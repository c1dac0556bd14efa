import json
import shutil
import sys
import threading
from decimal import Decimal

import pytest
import requests
from hypothesis import given, strategies as st

from claimgraph.atomic import write_text_atomic
from claimgraph.errors import (
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
    estimate_cost,
    fixture_totals,
    request_key,
)
from claimgraph.gateway.scripted import ScriptedResponder


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
    totals = ledger.stage_totals(Stage.INFERENCE)
    assert totals.usage == TokenUsage(11, 6)
    assert totals.calls == 2
    assert ledger.total_usage == TokenUsage(18, 6)
    assert ledger.total_calls == 3


def test_usage_rejects_negative_counts():
    with pytest.raises(ValueError):
        TokenUsage(-1, 0)


def test_pricing_worked_examples():
    ledger = TokenLedger()
    ledger.record(Stage.INFERENCE, TokenUsage(44_220_000, 3_420_000))
    breakdown = estimate_cost(ledger, Pricing("0.50", "1.50"))
    assert breakdown.input_cost == Decimal("22.110000")
    assert breakdown.output_cost == Decimal("5.130000")
    assert breakdown.total == Decimal("27.240000")


def test_pricing_quantizes_to_micro_dollars():
    ledger = TokenLedger()
    ledger.record(Stage.JUDGE, TokenUsage(1, 1))
    breakdown = estimate_cost(ledger, Pricing("0.50", "1.50"))
    # 5e-7 is a tie and lands on the even digit; 1.5e-6 ties away to 2e-6.
    assert breakdown.input_cost == Decimal("0.000000")
    assert breakdown.output_cost == Decimal("0.000002")


@given(st.integers(0, 10**7), st.integers(0, 10**7))
def test_cost_is_additive_across_stages(a, b):
    one = TokenLedger()
    one.record(Stage.INFERENCE, TokenUsage(a + b, 0))
    two = TokenLedger()
    two.record(Stage.INFERENCE, TokenUsage(a, 0))
    two.record(Stage.JUDGE, TokenUsage(b, 0))
    # Same grand totals can differ by at most one quantum per extra bucket.
    diff = abs(estimate_cost(one).total - estimate_cost(two).total)
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
    assert ledger.stage_totals(Stage.INFERENCE).calls == 1

    second = gateway.complete("hello there", Stage.INFERENCE)
    assert second.cached
    assert second.text == first.text
    assert provider.calls == 1
    # Cache hits are free: nothing new in the ledger.
    assert ledger.stage_totals(Stage.INFERENCE).calls == 1
    assert ledger.total_usage == TokenUsage(2, 2)


def test_gateway_retries_then_succeeds():
    provider = EchoProvider(fail_first=2)
    sleeps = []
    gateway = LlmGateway(provider, sleeper=sleeps.append)
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
    cache = ResponseCache(tmp_path)
    request = GenerationRequest("p", 0.8, "m", 10)
    cache.put(request, GenerationResponse("good", TokenUsage(1, 1)))
    path = next(tmp_path.glob("*.json"))
    path.write_text("{not json", encoding="utf-8")
    assert cache.get(request) is None
    assert not path.exists()


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


def test_atomic_write_removes_its_temp_file_on_error(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        write_text_atomic(target, "text")
    assert list(tmp_path.glob("*.tmp")) == []


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
    _live, request, fixture_dir = record_through_run_cache(tmp_path, "inspect me")
    (path,) = fixture_dir.glob("*.json")
    assert path.name == f"{request_key(request)}.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    # The compact run-dir record: the prompt itself is not stored.
    assert set(record) == {"model_id", "temperature", "text", "input_tokens", "output_tokens"}
    assert record["model_id"] == request.model_id
    assert record["temperature"] == request.temperature
    assert record["input_tokens"] == 2


def test_fixture_replays_the_older_verbose_record_format(tmp_path):
    request = GenerationRequest("old style", 0.8, "m", 10)
    record = {
        "request_sha256": request_key(request),
        "model_id": "m",
        "temperature": 0.8,
        "prompt_text": "old style",
        "text": "recorded reply",
        "input_tokens": 2,
        "output_tokens": 2,
    }
    (tmp_path / f"{request_key(request)}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8"
    )
    response = FixtureProvider(tmp_path).generate(request)
    assert response.text == "recorded reply"
    assert response.usage == TokenUsage(2, 2)
    assert fixture_totals(tmp_path) == TokenUsage(2, 2)
    assert ResponseCache(tmp_path).get(request).text == "recorded reply"


@pytest.mark.parametrize(
    "body",
    [
        "{not json",
        '{"text": "t", "input_tokens": 1}',
        '{"text": 3, "input_tokens": 1, "output_tokens": 1}',
        '{"text": "t", "input_tokens": -1, "output_tokens": 1}',
        '["text"]',
    ],
)
def test_corrupt_fixture_raises_and_stays_on_disk(tmp_path, body):
    request = GenerationRequest("p", 0.8, "m", 10)
    path = tmp_path / f"{request_key(request)}.json"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ProviderError, match=path.name) as raised:
        FixtureProvider(tmp_path).generate(request)
    assert not isinstance(raised.value, (FixtureMissError, RetryableProviderError))
    assert path.read_text(encoding="utf-8") == body


# --- HttpProvider, offline through an injected session -----------------------


class FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self.payload = payload
        self.text = str(payload)

    def json(self):
        if isinstance(self.payload, Exception):
            raise self.payload
        return self.payload


class FakeSession:
    """Stands in for ``requests.Session``: one canned outcome for every post."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


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
