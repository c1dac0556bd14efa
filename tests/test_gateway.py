import copy
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import pytest
import requests
from hypothesis import given, strategies as st

from claimgraph.adapters import HttpAdapterClient
from claimgraph.jsonform import write_text
from claimgraph.errors import (
    AdapterContractError,
    EmbeddingError,
    FixtureMissError,
    ProviderError,
    ProviderUnavailableError,
    RetryableProviderError,
)
from claimgraph.gateway import (
    FixtureProvider,
    GenerationRequest,
    GenerationResponse,
    HttpProvider,
    LlmGateway,
    Pricing,
    ResponseCache,
    Stage,
    TokenLedger,
    TokenUsage,
    count_tokens,
    fixture_totals,
    request_key,
)
from claimgraph.gateway import provider as provider_module
from claimgraph.gateway.scripted import ScriptedResponder
from claimgraph.pipeline import PipelineConfig, run_batch
from claimgraph.retrieval import RemoteEncoderClient
from claimgraph.retry import full_jitter


class EchoProvider:
    def __init__(self, fail_first: int = 0):
        self.calls = 0
        self.fail_first = fail_first

    def generate(self, request):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise RetryableProviderError("transient")
        return GenerationResponse(
            text=f"echo: {request.prompt_text}",
            usage=TokenUsage(count_tokens(request.prompt_text), 2),
        )


def make_gateway(provider, **kwargs):
    kwargs.setdefault("sleeper", lambda _s: None)
    return LlmGateway(provider, **kwargs)


def upper_end(ceiling):
    """The backoff draw pinned to the top of its range."""
    return ceiling


def test_count_tokens_is_whitespace_split():
    assert count_tokens("one two  three\nfour") == 4
    assert count_tokens("") == 0
    assert count_tokens("   ") == 0


def test_request_key_depends_on_identity_fields():
    base = GenerationRequest("p", 0.8, "m", 128)
    assert request_key(base) == request_key(GenerationRequest("p", 0.8, "m", 999))
    assert request_key(base) != request_key(GenerationRequest("q", 0.8, "m", 128))
    assert request_key(base) != request_key(GenerationRequest("p", 0.0, "m", 128))
    assert request_key(base) != request_key(GenerationRequest("p", 0.8, "m2", 128))


def test_ledger_accumulates_per_stage():
    ledger = TokenLedger()
    ledger.record(Stage.INFERENCE, TokenUsage(10, 5))
    ledger.record(Stage.INFERENCE, TokenUsage(1, 1))
    ledger.record(Stage.JUDGE, TokenUsage(7, 0))
    totals = ledger.totals()
    assert totals["inference"] == {"input_tokens": 11, "output_tokens": 6, "calls": 2}
    assert sum(e["input_tokens"] for e in totals.values()) == 18
    assert sum(e["output_tokens"] for e in totals.values()) == 6
    assert sum(e["calls"] for e in totals.values()) == 3


def test_ledger_adds_stored_totals_sorted_by_stage():
    ledger = TokenLedger()
    ledger.record(Stage.JUDGE, TokenUsage(7, 0))
    ledger.add({"inference": {"input_tokens": 11, "output_tokens": 6, "calls": 2}})
    ledger.add(ledger.totals())
    totals = ledger.totals()
    assert list(totals) == ["inference", "judge"]
    assert totals == {
        "inference": {"input_tokens": 22, "output_tokens": 12, "calls": 4},
        "judge": {"input_tokens": 14, "output_tokens": 0, "calls": 2},
    }
    # A copy: changing it leaves the ledger alone.
    totals["judge"]["calls"] = 99
    assert ledger.totals()["judge"]["calls"] == 2


def test_ledger_is_exact_under_concurrent_bookings():
    ledger = TokenLedger()
    threads_count, rounds = 16, 200
    barrier = threading.Barrier(threads_count, timeout=30)
    stages = [Stage.INFERENCE, Stage.JUDGE]

    def booker(n):
        barrier.wait()
        for _ in range(rounds):
            ledger.record(stages[n % 2], TokenUsage(3, n))

    threads = [threading.Thread(target=booker, args=(n,)) for n in range(threads_count)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    per_stage_calls = rounds * threads_count // 2
    assert ledger.totals() == {
        "inference": {
            "input_tokens": 3 * per_stage_calls,
            "output_tokens": rounds * sum(range(0, threads_count, 2)),
            "calls": per_stage_calls,
        },
        "judge": {
            "input_tokens": 3 * per_stage_calls,
            "output_tokens": rounds * sum(range(1, threads_count, 2)),
            "calls": per_stage_calls,
        },
    }


def test_usage_rejects_negative_counts():
    with pytest.raises(ValueError):
        TokenUsage(-1, 0)


def test_pricing_worked_examples():
    ledger = TokenLedger()
    ledger.record(Stage.INFERENCE, TokenUsage(44_220_000, 3_420_000))
    cost = Pricing("0.50", "1.50").price(ledger.totals())
    assert cost.input_cost == Decimal("22.110000")
    assert cost.output_cost == Decimal("5.130000")
    assert cost.total == Decimal("27.240000")


def test_pricing_quantizes_to_micro_dollars():
    ledger = TokenLedger()
    ledger.record(Stage.JUDGE, TokenUsage(1, 1))
    cost = Pricing("0.50", "1.50").price(ledger.totals())
    # 5e-7 is a tie and lands on the even digit; 1.5e-6 ties away to 2e-6.
    assert cost.input_cost == Decimal("0.000000")
    assert cost.output_cost == Decimal("0.000002")


@given(st.integers(0, 10**7), st.integers(0, 10**7))
def test_cost_is_additive_across_stages(a, b):
    one = TokenLedger()
    one.record(Stage.INFERENCE, TokenUsage(a + b, 0))
    two = TokenLedger()
    two.record(Stage.INFERENCE, TokenUsage(a, 0))
    two.record(Stage.JUDGE, TokenUsage(b, 0))
    # Same grand totals can differ by at most one quantum per extra bucket.
    pricing = Pricing()
    diff = abs(pricing.price(one.totals()).total - pricing.price(two.totals()).total)
    assert diff <= Decimal("0.000001")


def test_gateway_records_usage_and_caches(tmp_path):
    provider = EchoProvider()
    ledger = TokenLedger()
    gateway = make_gateway(
        provider, ledger=ledger, cache=ResponseCache(tmp_path / "cache")
    )
    first = gateway.complete("hello there", Stage.INFERENCE)
    assert first.text == "echo: hello there"
    assert not first.cached
    assert provider.calls == 1
    assert ledger.totals()["inference"]["calls"] == 1

    second = gateway.complete("hello there", Stage.INFERENCE)
    assert second.cached
    assert second.text == first.text
    assert provider.calls == 1
    # Cache hits are free: nothing new in the ledger.
    assert ledger.totals() == {
        "inference": {"input_tokens": 2, "output_tokens": 2, "calls": 1}
    }


def test_gateway_retries_then_succeeds():
    provider = EchoProvider(fail_first=2)
    sleeps = []
    gateway = LlmGateway(provider, sleeper=sleeps.append, jitter=upper_end)
    response = gateway.complete("x", Stage.INFERENCE)
    assert response.text == "echo: x"
    assert provider.calls == 3
    assert sleeps == [0.5, 1.0]


def test_gateway_gives_up_after_three_attempts():
    provider = EchoProvider(fail_first=99)
    gateway = make_gateway(provider)
    with pytest.raises(ProviderUnavailableError):
        gateway.complete("x", Stage.INFERENCE)
    assert provider.calls == 3


class HeldProvider(EchoProvider):
    """An ``EchoProvider`` whose first call waits for ``release`` and then,
    with ``error`` set, raises it."""

    def __init__(self, error=None):
        super().__init__()
        self.release = threading.Event()
        self.error = error
        self.lock = threading.Lock()

    def generate(self, request):
        with self.lock:
            first = self.calls == 0
            self.calls += 1
        if first:
            assert self.release.wait(timeout=30)
            if self.error is not None:
                raise self.error
        return GenerationResponse(f"echo: {request.prompt_text}", TokenUsage(2, 2))


class CountedCache(ResponseCache):
    """A store that counts its lookups; a send looks up before it calls or joins."""

    def __init__(self, root):
        super().__init__(root)
        self.gets = 0

    def get(self, request):
        self.gets += 1
        return super().get(request)


def send_copies(gateway, provider, arrived, copies=6):
    """Send one prompt from ``copies`` threads, each through its own copy of
    ``gateway`` with its own ledger; the first send is held until
    ``arrived()`` says every copy has been sent."""
    outcomes, ledgers = [None] * copies, [TokenLedger() for _ in range(copies)]

    def send(i):
        each = copy.copy(gateway)
        each.ledger = ledgers[i]
        try:
            outcomes[i] = each.complete("same prompt", Stage.INFERENCE)
        except Exception as exc:
            outcomes[i] = exc

    threads = [threading.Thread(target=send, args=(i,)) for i in range(copies)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 30
    while not arrived() and time.monotonic() < deadline:
        time.sleep(0.001)
    provider.release.set()
    for thread in threads:
        thread.join(timeout=30)
    return outcomes, [ledger.totals() for ledger in ledgers]


def test_copies_of_a_request_in_flight_join_its_one_provider_call(tmp_path):
    provider, cache = HeldProvider(), CountedCache(tmp_path)
    gateway = make_gateway(provider, cache=cache)
    outcomes, usages = send_copies(gateway, provider, lambda: cache.gets == 6)
    assert provider.calls == 1
    assert [response.text for response in outcomes] == ["echo: same prompt"] * 6
    # The first send is booked once; a joined copy books nothing, like a hit.
    assert usages[0] == {"inference": {"input_tokens": 2, "output_tokens": 2, "calls": 1}}
    assert usages[1:] == [{}] * 5
    assert [response.cached for response in outcomes] == [False] + [True] * 5
    assert gateway._pending == {}
    assert gateway.complete("same prompt", Stage.INFERENCE).cached


def test_copies_of_a_failing_request_share_its_error_and_the_next_send_calls_again(tmp_path):
    provider, cache = HeldProvider(error=ProviderError("refused")), CountedCache(tmp_path)
    gateway = make_gateway(provider, cache=cache)
    outcomes, usages = send_copies(gateway, provider, lambda: cache.gets == 6)
    assert provider.calls == 1
    assert all(isinstance(outcome, ProviderError) for outcome in outcomes)
    assert usages == [{}] * 6
    assert gateway.complete("same prompt", Stage.INFERENCE).text == "echo: same prompt"
    assert provider.calls == 2


def test_without_a_cache_every_send_is_booked_and_a_replay_books_a_reply_once(tmp_path):
    provider = HeldProvider()
    _, usages = send_copies(make_gateway(provider), provider, lambda: provider.calls == 6)
    assert provider.calls == 6
    assert [usage["inference"]["calls"] for usage in usages] == [1] * 6

    # A replay takes the cached path too: it books and stores one reply once, as its recording did.
    live, request, fixture_dir = record_through_run_cache(tmp_path, "replayed")
    replay = FixtureProvider(fixture_dir)
    ledger, cache = TokenLedger(), ResponseCache(tmp_path / "run2")
    gateway = make_gateway(replay, ledger=ledger, cache=cache)
    sent = [gateway.complete(request.prompt_text, Stage.INFERENCE) for _ in range(2)]
    assert replay.call_count == 1
    assert [response.cached for response in sent] == [False, True]
    assert ledger.totals() == {"inference": {"input_tokens": live.usage.input_tokens,
                                             "output_tokens": live.usage.output_tokens, "calls": 1}}
    cache.close()
    log = "responses.jsonl"
    assert (tmp_path / "run2" / log).read_bytes() == (fixture_dir / log).read_bytes()


def test_judge_stage_runs_at_temperature_zero():
    seen = []

    class Spy:
        def generate(self, request):
            seen.append(request.temperature)
            return GenerationResponse("ok", TokenUsage(1, 1))

    gateway = make_gateway(Spy())
    gateway.complete("p", Stage.JUDGE)
    gateway.complete("p", Stage.INFERENCE)
    assert seen == [0.0, 0.8]


def test_cache_evicts_corrupted_entries(tmp_path):
    request = GenerationRequest("p", 0.8, "m", 10)
    ResponseCache(tmp_path).put(request, GenerationResponse("good", TokenUsage(1, 1)))
    (path,) = tmp_path.iterdir()
    path.write_text("{not json\n", encoding="utf-8")  # the entry's one line, corrupted
    cache = ResponseCache(tmp_path)
    assert cache.get(request) is None and len(cache) == 0
    cache.put(request, GenerationResponse("fresh", TokenUsage(1, 1)))
    assert ResponseCache(tmp_path).get(request).text == "fresh"


def test_cache_round_trip_marks_cached(tmp_path):
    cache = ResponseCache(tmp_path)
    request = GenerationRequest("p", 0.8, "m", 10)
    cache.put(request, GenerationResponse("body", TokenUsage(3, 4)))
    hit = cache.get(request)
    assert hit.cached
    assert hit.text == "body"
    assert hit.usage == TokenUsage(3, 4)


def test_concurrent_puts_of_one_key_leave_one_entry(tmp_path):
    cache = ResponseCache(tmp_path)
    request = GenerationRequest("same prompt", 0.8, "m", 10)
    response = GenerationResponse("body", TokenUsage(3, 4))
    threads_count, rounds = 16, 25
    barrier = threading.Barrier(threads_count, timeout=30)
    errors = []

    def writer():
        barrier.wait()
        for _ in range(rounds):
            try:
                cache.put(request, response)
            except Exception as exc:  # collected, asserted on below
                errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(threads_count)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(cache) == 1
    assert cache.get(request).text == "body"
    assert list(tmp_path.glob("*.tmp")) == []


def test_concurrent_puts_of_distinct_keys_all_read_back_whole(tmp_path):
    cache = ResponseCache(tmp_path)
    threads_count, rounds = 8, 50
    barrier = threading.Barrier(threads_count, timeout=30)

    def writer(n):
        barrier.wait()
        for i in range(rounds):
            request = GenerationRequest(f"writer {n} prompt {i}", 0.8, "m", 10)
            cache.put(request, GenerationResponse(f"{n}:{i} " * (i + 1), TokenUsage(n, i)))

    threads = [threading.Thread(target=writer, args=(n,)) for n in range(threads_count)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    reopened = ResponseCache(tmp_path)
    assert len(reopened) == len(cache) == threads_count * rounds
    for n in range(threads_count):
        for i in range(rounds):
            hit = reopened.get(GenerationRequest(f"writer {n} prompt {i}", 0.8, "m", 10))
            assert (hit.text, hit.usage) == (f"{n}:{i} " * (i + 1), TokenUsage(n, i))


def test_atomic_write_removes_its_temp_file_on_error(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        write_text(target, "text")
    assert list(tmp_path.glob("*.tmp")) == []


def test_atomic_write_closes_its_file_whether_or_not_it_succeeds(tmp_path):
    open_fds = Path("/proc/self/fd")
    if not open_fds.is_dir():
        pytest.skip("counting open file descriptors needs /proc/self/fd")
    before = len(list(open_fds.iterdir()))
    for _ in range(20):
        write_text(tmp_path / "file", "text")
        with pytest.raises(UnicodeEncodeError):
            write_text(tmp_path / "file", "\ud800")  # a lone surrogate has no UTF-8 form
    assert len(list(open_fds.iterdir())) == before
    assert [path.name for path in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text(encoding="utf-8") == "text"


def test_a_torn_last_line_is_a_miss_and_the_next_put_starts_a_fresh_line(tmp_path):
    asked = [GenerationRequest(f"p{i}", 0.8, "m", 10) for i in range(3)]
    texts = ["reply 0", "reply\n1", "naïve ☃"]
    cache = ResponseCache(tmp_path)
    for i, (request, text) in enumerate(zip(asked, texts)):
        cache.put(request, GenerationResponse(text, TokenUsage(i, 1)))
    log = tmp_path / "responses.jsonl"
    # What a kill inside the last append leaves: it ends inside the snowman's UTF-8 bytes.
    log.write_bytes(log.read_bytes()[:-4])
    reopened = ResponseCache(tmp_path)
    assert [reopened.get(r) and reopened.get(r).text for r in asked] == [*texts[:2], None]
    reopened.put(asked[2], GenerationResponse("again", TokenUsage(2, 1)))
    final = ResponseCache(tmp_path)
    assert [final.get(r).text for r in asked] == [*texts[:2], "again"]
    assert fixture_totals(tmp_path) == TokenUsage(3, 3)


def test_a_miss_through_the_gateway_hashes_its_request_once(tmp_path, monkeypatch):
    hashed = []

    def sha256(data):
        hashed.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(provider_module, "hashlib", SimpleNamespace(sha256=sha256))
    gateway = make_gateway(EchoProvider(), cache=ResponseCache(tmp_path))
    assert not gateway.complete("hello", Stage.INFERENCE).cached  # a get, a call and a put
    assert len(hashed) == 1
    assert gateway.complete("hello", Stage.INFERENCE).cached  # a new request, hashed anew
    assert len(hashed) == 2


def test_a_batch_hashes_each_request_once(two_records, tmp_path, monkeypatch):
    """``request_key`` runs in ``complete``, ``get`` and ``put``, but hashes a
    request only the first time: one hash per request built, hit or miss."""
    hashed, built = [], []
    build_request = LlmGateway.build_request

    def sha256(data):
        hashed.append(data)
        return hashlib.sha256(data)

    def counted(self, prompt_text, stage):
        built.append(prompt_text)
        return build_request(self, prompt_text, stage)

    monkeypatch.setattr(provider_module, "hashlib", SimpleNamespace(sha256=sha256))
    monkeypatch.setattr(LlmGateway, "build_request", counted)
    run_batch(two_records, PipelineConfig(), tmp_path / "run")
    assert len(built) > 2 * 4 and len(hashed) == len(built)


KILLED_WRITER = """
import sys
from claimgraph.gateway import GenerationRequest, GenerationResponse, ResponseCache, TokenUsage

cache = ResponseCache(sys.argv[1])
i = 0
while True:
    text = str(i) * (i % 3000)
    cache.put(GenerationRequest(f"prompt {i}", 0.8, "m", 10), GenerationResponse(text, TokenUsage(i, 1)))
    i += 1
"""


def test_a_writer_killed_mid_loop_leaves_a_store_that_serves_only_whole_entries(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")) if p
    )
    log = tmp_path / "responses.jsonl"
    child = subprocess.Popen([sys.executable, "-c", KILLED_WRITER, str(tmp_path)], env=env)
    try:
        deadline = time.monotonic() + 60
        while (not log.exists() or log.stat().st_size < 2_000_000) and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL
    cache = ResponseCache(tmp_path)
    stored = len(cache)
    assert stored > 100
    for i in range(stored + 1):
        hit = cache.get(GenerationRequest(f"prompt {i}", 0.8, "m", 10))
        if i < stored:
            assert (hit.text, hit.usage) == (str(i) * (i % 3000), TokenUsage(i, 1))
        else:
            assert hit is None
    request = GenerationRequest("after the kill", 0.8, "m", 10)
    cache.put(request, GenerationResponse("whole", TokenUsage(1, 1)))
    assert ResponseCache(tmp_path).get(request).text == "whole"


def record_through_run_cache(tmp_path, prompt):
    """Record one reply the way a run does, then copy the cache as fixtures."""
    cache_dir = tmp_path / "run" / "cache"
    gateway = make_gateway(ScriptedResponder(seed=0), cache=ResponseCache(cache_dir))
    live = gateway.complete(prompt, Stage.INFERENCE)
    fixture_dir = tmp_path / "fixtures"
    shutil.copytree(cache_dir, fixture_dir)
    return live, gateway.build_request(prompt, Stage.INFERENCE), fixture_dir


def test_recording_then_fixture_replay(tmp_path):
    live, request, fixture_dir = record_through_run_cache(tmp_path, "anything goes")
    assert not live.cached

    replay = FixtureProvider(fixture_dir)
    response = replay.generate(request)
    assert response.text == live.text
    assert response.usage == live.usage
    assert not response.cached
    assert replay.call_count == 1
    assert fixture_totals(fixture_dir) == live.usage


def test_fixture_miss_is_loud(tmp_path):
    provider = FixtureProvider(tmp_path)
    with pytest.raises(FixtureMissError):
        provider.generate(GenerationRequest("never recorded", 0.8, "m", 10))
    assert provider.call_count == 1


def test_fixture_records_are_inspectable(tmp_path):
    live, request, fixture_dir = record_through_run_cache(tmp_path, "inspect me")
    (path,) = fixture_dir.iterdir()
    assert path.name == "responses.jsonl"
    (line,) = path.read_text(encoding="utf-8").splitlines()
    # The compact log line: the prompt itself is not stored, only its key.
    key, input_tokens, output_tokens, text = json.loads(line)
    assert key == request_key(request)
    assert (input_tokens, output_tokens) == (2, live.usage.output_tokens)
    assert text == live.text


@pytest.mark.parametrize("log", [None, ""], ids=["absent_log", "empty_log"])
def test_a_stray_entry_file_is_not_part_of_a_store(tmp_path, log):
    """A ``<request_key>.json`` entry file beside the log is never read."""
    request = GenerationRequest("old style", 0.8, "m", 10)
    entry = {"text": "recorded reply", "input_tokens": 2, "output_tokens": 2}
    (tmp_path / f"{request_key(request)}.json").write_text(json.dumps(entry), encoding="utf-8")
    if log is not None:
        (tmp_path / "responses.jsonl").write_text(log, encoding="utf-8")
    with pytest.raises(FixtureMissError):
        FixtureProvider(tmp_path).generate(request)
    assert fixture_totals(tmp_path) == TokenUsage(0, 0)
    cache = ResponseCache(tmp_path)
    assert cache.get(request) is None and len(cache) == 0


# Corrupt log lines for the request KEY. Each id names the fault as it would
# read in a JSON-object entry; the ids stay fixed so each case keeps its name.
CORRUPT_LINES = [
    pytest.param('["KEY",1,1,"t', id="{not json"),
    pytest.param('["KEY",1,"t"]', id='{"text": "t", "input_tokens": 1}'),
    pytest.param('["KEY",1,1,3]', id='{"text": 3, "input_tokens": 1, "output_tokens": 1}'),
    pytest.param('["KEY",-1,1,"t"]', id='{"text": "t", "input_tokens": -1, "output_tokens": 1}'),
    pytest.param(
        '{"key":"KEY","text":"t","input_tokens":1,"output_tokens":1}', id='["text"]'
    ),
    pytest.param("[]", id="[]"),
    pytest.param("{}", id="{}"),
]


@pytest.mark.parametrize("line", CORRUPT_LINES)
def test_a_corrupt_cache_entry_is_evicted_and_counts_as_a_miss(tmp_path, line):
    provider = EchoProvider()
    ledger = TokenLedger()
    request = make_gateway(provider).build_request("hello", Stage.INFERENCE)
    log = tmp_path / "responses.jsonl"
    log.write_text(line.replace("KEY", request_key(request)) + "\n", encoding="utf-8")
    written = log.read_bytes()
    # Fixture replay: the skipped line is an unknown request, and stays on disk.
    with pytest.raises(FixtureMissError):
        FixtureProvider(tmp_path).generate(request)
    assert fixture_totals(tmp_path) == TokenUsage(0, 0)
    assert log.read_bytes() == written
    cache = ResponseCache(tmp_path)
    assert cache.get(request) is None
    gateway = make_gateway(provider, ledger=ledger, cache=cache)
    response = gateway.complete("hello", Stage.INFERENCE)
    assert not response.cached
    assert provider.calls == 1
    assert ledger.totals()["inference"]["calls"] == 1
    assert cache.get(request).text == "echo: hello"
    assert ResponseCache(tmp_path).get(request).text == "echo: hello"  # the fresh line wins


# --- HttpProvider, offline through an injected session -----------------------


class FakeResponse:
    def __init__(self, status_code=200, payload=None, headers=None):
        self.status_code = status_code
        self.payload = payload
        self.text = str(payload)
        self.headers = headers or {}

    def json(self):
        if isinstance(self.payload, Exception):
            raise self.payload
        return self.payload


class FakeSession:
    """Stands in for ``requests.Session``: canned outcomes in turn, the last repeating."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0) if len(self.outcomes) > 1 else self.outcomes[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def reply(content="a b c", usage=None):
    payload = {"choices": [{"message": {"content": content}}]}
    if usage is not None:
        payload["usage"] = usage
    return FakeResponse(200, payload)


def http_generate(outcome, request=None, **kwargs):
    session = FakeSession(outcome)
    provider = HttpProvider("http://llm.invalid/v1/", session=session, **kwargs)
    response = provider.generate(request or GenerationRequest("one two", 0.8, "m"))
    return response, session


@pytest.mark.parametrize(
    "outcome",
    [
        FakeResponse(429, {"error": "slow down"}),
        FakeResponse(503, {"error": "unavailable"}),
        requests.ConnectionError("refused"),
        requests.Timeout("timed out"),
    ],
)
def test_http_transient_failures_are_retryable(outcome):
    with pytest.raises(RetryableProviderError):
        http_generate(outcome)


@pytest.mark.parametrize(
    "outcome",
    [
        FakeResponse(400, {"error": "bad request"}),
        FakeResponse(200, ValueError("not json")),
        FakeResponse(200, {"choices": []}),
        FakeResponse(200, {"choices": [{"message": {}}]}),
        FakeResponse(200, ["not", "an", "object"]),
        reply(content=None),
        reply(content=5),
        reply(usage={"prompt_tokens": "3", "completion_tokens": 7}),
        reply(usage={"prompt_tokens": 3, "completion_tokens": -1}),
        reply(usage={"prompt_tokens": True}),
        reply(usage={"completion_tokens": 2.0}),
        reply(usage=["not", "a", "mapping"]),
    ],
)
def test_http_bad_request_and_malformed_payload_are_not_retryable(outcome):
    with pytest.raises(ProviderError) as raised:
        http_generate(outcome)
    assert not isinstance(raised.value, RetryableProviderError)


def test_http_usage_from_payload_or_counted():
    counted, _ = http_generate(reply("a b c"))
    assert counted.text == "a b c"
    assert counted.usage == TokenUsage(count_tokens("one two"), 3)
    reported, _ = http_generate(reply(usage={"prompt_tokens": 11, "completion_tokens": 7}))
    assert reported.usage == TokenUsage(11, 7)


def test_http_sends_max_tokens_and_authorization_only_when_set():
    _, session = http_generate(reply())
    (post,) = session.posts
    assert post["url"] == "http://llm.invalid/v1/chat/completions"
    assert post["json"] == {
        "model": "m",
        "messages": [{"role": "user", "content": "one two"}],
        "temperature": 0.8,
    }
    assert "Authorization" not in post["headers"]

    _, session = http_generate(
        reply(), GenerationRequest("one two", 0.0, "m", 64), api_key="secret", timeout=5.0
    )
    (post,) = session.posts
    assert post["json"]["max_tokens"] == 64
    assert post["json"]["temperature"] == 0.0
    assert post["headers"]["Authorization"] == "Bearer secret"
    assert post["timeout"] == 5.0


# --- One retry policy: the gateway, the encoder and the HTTP adapter ---------


def via_gateway(session, sleeper, jitter=upper_end):
    provider = HttpProvider("http://llm.invalid/v1", session=session)
    gateway = LlmGateway(provider, sleeper=sleeper, jitter=jitter)
    return gateway.complete("one two", Stage.INFERENCE).text


def via_encoder(session, sleeper, jitter=upper_end):
    encoder = RemoteEncoderClient(
        "http://encoder.invalid/embed", 2, session=session, sleeper=sleeper, jitter=jitter
    )
    return encoder.embed_batch(["a", "b"]).tolist()


def via_adapter(session, sleeper, jitter=upper_end):
    adapter = HttpAdapterClient(
        "http://adapter.invalid/predict", session=session, sleeper=sleeper, jitter=jitter
    )
    return adapter.predict("p", ["false", "half", "true"])


class Client(NamedTuple):
    call: Callable
    good_reply: object
    returns: object
    give_up: type  # raised once every attempt failed
    final: type  # raised at once for a failure that is not retried
    missing_key: object
    wrong_shape: object


CLIENTS = {
    "gateway": Client(
        via_gateway,
        reply("a b c").payload,
        "a b c",
        ProviderUnavailableError,
        ProviderError,
        {"choices": []},
        ["not", "an", "object"],
    ),
    "encoder": Client(
        via_encoder,
        {"embeddings": [[1.0, 0.0], [0.0, 1.0]]},
        [[1.0, 0.0], [0.0, 1.0]],
        EmbeddingError,
        EmbeddingError,
        {"vectors": [[1.0, 0.0], [0.0, 1.0]]},
        {"embeddings": [[1.0, 0.0, 0.0]]},
    ),
    "adapter": Client(
        via_adapter,
        {"probabilities": [0.1, 0.7, 0.2]},
        [0.1, 0.7, 0.2],
        AdapterContractError,
        AdapterContractError,
        {"labels": ["false", "half", "true"]},
        [0.1, 0.7, 0.2],
    ),
}
TRANSIENT = [
    FakeResponse(429, {"error": "slow down"}),
    FakeResponse(503, {"error": "unavailable"}),
    requests.ConnectionError("refused"),
    requests.Timeout("timed out"),
]


@pytest.mark.parametrize("client", CLIENTS)
@pytest.mark.parametrize("outcome", TRANSIENT, ids=["429", "503", "connection", "timeout"])
def test_transient_failures_get_three_posts_then_the_give_up_error(client, outcome):
    session, sleeps = FakeSession(outcome), []
    with pytest.raises(CLIENTS[client].give_up):
        CLIENTS[client].call(session, sleeps.append)
    assert len(session.posts) == 3
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("client", CLIENTS)
def test_one_transient_failure_then_a_good_reply(client):
    spec = CLIENTS[client]
    session, sleeps = FakeSession(FakeResponse(503, {}), FakeResponse(200, spec.good_reply)), []
    assert spec.call(session, sleeps.append) == spec.returns
    assert len(session.posts) == 2
    assert sleeps == [0.5]


@pytest.mark.parametrize("client", CLIENTS)
@pytest.mark.parametrize("failure", ["400", "not_json", "missing_key", "wrong_shape"])
def test_final_failures_get_one_post_and_no_sleep(client, failure):
    spec = CLIENTS[client]
    outcome = {
        "400": FakeResponse(400, {"error": "bad request"}),
        "not_json": FakeResponse(200, ValueError("not json")),
        "missing_key": FakeResponse(200, spec.missing_key),
        "wrong_shape": FakeResponse(200, spec.wrong_shape),
    }[failure]
    session, sleeps = FakeSession(outcome), []
    with pytest.raises(spec.final):
        spec.call(session, sleeps.append)
    assert len(session.posts) == 1
    assert sleeps == []


# --- Backoff: a full-jitter draw, floored by a Retry-After -------------------


def lower_end(ceiling):
    """The backoff draw pinned to the bottom of its range."""
    return 0.0


def test_each_backoff_is_drawn_below_a_doubling_ceiling():
    ceilings, sleeps = [], []

    def draw(ceiling):
        ceilings.append(ceiling)
        return ceiling / 4

    gateway = LlmGateway(EchoProvider(fail_first=2), sleeper=sleeps.append, jitter=draw)
    assert gateway.complete("x", Stage.INFERENCE).text == "echo: x"
    assert ceilings == [0.5, 1.0]
    assert sleeps == [0.125, 0.25]


@given(st.floats(min_value=0.0, max_value=60.0))
def test_full_jitter_draws_within_its_ceiling(ceiling):
    assert 0.0 <= full_jitter(ceiling) <= ceiling


# Retry-After headers and the floor each sets: only delta-seconds set one.
RETRY_AFTER = {
    "present": ({"Retry-After": "2"}, 2.0),
    "padded": ({"Retry-After": " 3 "}, 3.0),
    "zero": ({"Retry-After": "0"}, 0.0),
    "absent": ({}, None),
    "http_date": ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, None),
    "fraction": ({"Retry-After": "1.5"}, None),
    "negative": ({"Retry-After": "-1"}, None),
    "malformed": ({"Retry-After": "soon"}, None),
    "non_ascii_digit": ({"Retry-After": "\u0663"}, None),
}


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize("case", RETRY_AFTER)
def test_a_429_or_503_carries_its_retry_after_in_delta_seconds(status, case):
    headers, retry_after = RETRY_AFTER[case]
    with pytest.raises(RetryableProviderError) as raised:
        http_generate(FakeResponse(status, {}, headers))
    assert raised.value.retry_after == retry_after


@pytest.mark.parametrize("status", [500, 502])
def test_other_5xx_replies_carry_no_retry_after(status):
    with pytest.raises(RetryableProviderError) as raised:
        http_generate(FakeResponse(status, {}, {"Retry-After": "2"}))
    assert raised.value.retry_after is None


@pytest.mark.parametrize("client", CLIENTS)
@pytest.mark.parametrize(
    "case, jitter, sleep",
    [
        ("present", lower_end, 2.0),
        ("present", upper_end, 2.0),
        ("zero", lower_end, 0.0),
        ("zero", upper_end, 0.5),
        ("absent", lower_end, 0.0),
        ("absent", upper_end, 0.5),
        ("malformed", lower_end, 0.0),
        ("malformed", upper_end, 0.5),
    ],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_a_retry_after_is_a_floor_on_the_drawn_sleep(client, case, jitter, sleep):
    spec = CLIENTS[client]
    headers, _retry_after = RETRY_AFTER[case]
    session = FakeSession(FakeResponse(429, {}, headers), FakeResponse(200, spec.good_reply))
    sleeps = []
    assert spec.call(session, sleeps.append, jitter) == spec.returns
    assert len(session.posts) == 2
    assert sleeps == [sleep]
