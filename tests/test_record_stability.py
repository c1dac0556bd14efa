"""Golden digests of run_claim records and prompts across pipeline configurations.

Each record digest is a sha256 over the records of forty fixture claims run
through ``run_claim`` with the scripted provider: each record's JSON form,
the form written to disk, with its ``durations`` cut to the stages timed, in
order (the record's stage trace is read off them), since the times vary,
plus its derived ``explanation_graph`` (None without one). The graph is not
stored, so it is added under the key a stored copy once had: the digest pins
what is written and what is derived from it. A refactor of the pipeline must
leave every digest unchanged; a change that is meant to alter records must
update the digest it moves and say why.

Each prompt digest is a sha256 over every prompt the provider receives in the
same run, sorted, so that it does not depend on the order in which a claim's
overlapping calls reach the provider. A change that is meant to alter a
prompt (a template body, the graph serialization, a corrective note) must
update the prompt digest of every config it moves and say why in CHANGES.md;
the record digests of those configs move with it. No rationale or analysis
prompt of any config lists an evidence line twice.

Each document digest is a sha256 over the bytes of a document a run writes:
``report.json`` and ``cost.json`` of a scripted batch over the same claims,
the default batch's ``report.json`` once ``judge_run`` has judged it, and the
fixture dataset's ``manifest.json``, whose ``expected_stats`` are computed. ``cost.json``'s three timing values are nulled first, and its text
must be the indented JSON form of what it holds, so the rest of its bytes are
pinned. The batch documents must keep their digests when the provider holds
the first send of each prompt the claims send twice, so that the copy is sent
while the first is in flight. Digests move on purpose by the rule for record
digests.

The mean bytes per claim that a default batch's record files (less their
``durations``) and response log hold are capped at what their compact forms
take, so a part written back in a longer form fails here first.
"""
import hashlib
import json
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from claimgraph.fixtures import build_fixture_dataset
from claimgraph.gateway import Stage
from claimgraph.gateway.scripted import ScriptedResponder
from claimgraph.ingest import load_manifest, load_records
from claimgraph.pipeline import PipelineConfig, build_runtime, judge_run, run_batch, run_claim

STUB_ADAPTER = {"type": "stub", "probabilities": [0.1, 0.7, 0.2]}

CONFIGS = {
    "default": {},
    "hypergraph": {"graph_structure": "hypergraph"},
    "background": {"with_background": True},
    "enhanced": {"decomposition": "enhanced"},
    "external_adapter": {"inference_path": "external_adapter", "adapter": STUB_ADAPTER},
    "no_subclaims": {"ablations": ("no_subclaims",)},
    "no_edges": {"ablations": ("no_edges",)},
    "no_evidence": {"ablations": ("no_evidence",)},
    "no_competing": {"ablations": ("no_competing",)},
    # Starts from the adapter path, so the digest sees an ablation that fails
    # to force the prompt-only path.
    "no_inference_training": {
        "inference_path": "external_adapter",
        "adapter": STUB_ADAPTER,
        "ablations": ("no_inference_training",),
    },
    "claim_only_bare": {"ablations": ("no_subclaims", "no_evidence", "no_competing")},
}

DIGESTS = {
    "default": "fd0b87e423985fa656cb0ed7d3a186cb36bc77b3983eae9be795b906910b0353",
    "hypergraph": "efab5029cc8c030f6c17c833a07bdc61afb0d374713f7f3813dd5095f92ed97c",
    "background": "04671208f510f5f8a8b2f68d0c677b4f2aa70bf401d1109093099ad63754c6d7",
    "enhanced": "227bf0d72a3db11a1d287a1de7502d9f014d65ac5486fad6841d934df7bf58ca",
    "external_adapter": "1e2fe102dbbc8869404185a29e16b2cab038f4b33ee63408772a7a43f9ea1040",
    "no_subclaims": "82dbcd83cd510c63792757b17101f795c7b66705ea8131b7ceaefb517e073d56",
    "no_edges": "532a967483170873eeeeeefa5ea739c00f4a807aa7986c586d97d8159e3b0efe",
    "no_evidence": "51facd86a77f9158b5f7377804411c47d56e76c53835ab1bea24dcdd0f86d215",
    "no_competing": "336b08f63f009aecccaf945fadfa152ba640ec7ce7d95045a4d76d8e1356c9f6",
    "no_inference_training": "fd0b87e423985fa656cb0ed7d3a186cb36bc77b3983eae9be795b906910b0353",
    "claim_only_bare": "9f6ff96a46de78d650bf1aa0c794c41783c0bdf1a0d6b834b75ba3637f07e54e",
}


# The configs whose batch documents are pinned, and the timing values nulled in cost.json.
DOCUMENT_CONFIGS = ("default", "background", "external_adapter")
COST_TIMINGS = ("latency_components_sec", "estimated_latency_sec", "measured_latency_sec")

DOCUMENT_DIGESTS = {
    "default/report.json": "479cd68671bf9b5c0664712e76fe838b1820323317fef1c9f6f8ab39e6b0b4e3",
    "default/cost.json": "0d21e3faa2de6df7c98608acab168a5a72218e7b1428e172e9349b4a6c0ae62d",
    "background/report.json": "e7cc1f9d8dbb87922714e8cf676358ddcb10e4fe5099aa63f35aff2efad9592a",
    "background/cost.json": "bc91b87d626953c0ec78ddcf1bbd20ddfdd954d2442f3a36b4d7befee0d4ba22",
    "external_adapter/report.json": "8ee54a3daec1ed1724d52145dfc4d22cfcc1df78538064ee4244109b791b40af",
    "external_adapter/cost.json": "e73897ca189cd40f5ac86e3a0b0b855b2fd0b2e7b40765d7a71f5477560f1ea2",
    "default/judged/report.json": "4b460a88818d99547b0f01b904819128ae155587efcba1bd54929c4bfd5cf0cc",
    "manifest.json": "f68d135d9757f4b0a7b79c91efa0174470b7852250aa27ab2a3e01b134e15df6",
}

PROMPT_DIGESTS = {
    "default": "96380106eb176f74c3a6f8af89d6b79f18baeadc0e564c567dc624fa381cbc90",
    "hypergraph": "9c8ccbe72633987b1accc2c4ba1b2cd94007949898b22617af51787083595fe6",
    "background": "3d7c811ef6f15770c2f5bc5cd136f8f421d36b417b9cd116a79581ebe2102410",
    "enhanced": "fd34d9cd83a339ce523a01346efd2e17a423e92cb1889f36b321a33a20dd8947",
    "external_adapter": "cb00f0137a4609e73b87f71608c7a2a8892a18ee1a5497175e973b29f35e0f9a",
    "no_subclaims": "a883b508dd6fe93feda9ab6ef8cb702d774b256d1a2fe138d2c2092c1908c7ec",
    "no_edges": "bbfb0f1b967a32498d6582abf216060bb8e0fea2f2c704d2b3582b2de36af612",
    "no_evidence": "95a552daac45b93128fccbbc545687618a474669fe3eeec251a4314a8905736b",
    "no_competing": "317b4fdedcb8c1864b836b297978c386f65a8a4b2a1e1e0e0b63ef6f03746ab1",
    "no_inference_training": "96380106eb176f74c3a6f8af89d6b79f18baeadc0e564c567dc624fa381cbc90",
    "claim_only_bare": "f1ac87b5eaf496ac7dcf2918921a8e02e1d7ac20d1c80647136b880e66234ce7",
}


class PromptSpy(ScriptedResponder):
    """The default scripted provider, keeping every prompt it is sent."""

    def __init__(self) -> None:
        super().__init__(seed=0)
        self.prompts = []

    def generate(self, request):
        self.prompts.append(request.prompt_text)
        return super().generate(request)


class ShuffledSpy(PromptSpy):
    """A ``PromptSpy`` that sleeps 0-3 ms, set by a hash of the prompt.

    A claim's overlapping calls then finish in an order unrelated to the
    order they were sent in.
    """

    def generate(self, request):
        delay_ms = hashlib.sha256(request.prompt_text.encode("utf-8")).digest()[0] % 4
        time.sleep(delay_ms / 1000)
        return super().generate(request)


def sha256_json(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_stage_keys(record) -> None:
    """Every traced stage is timed, and every timing and usage key is a stage."""
    assert set(record.stage_trace) <= set(record.durations)
    assert set(record.durations) | set(record.stage_usage) <= {stage.value for stage in Stage}


def run_digests(config: PipelineConfig, claims, spy=None, claim_workers=1):
    """(records digest, prompts digest) of one run over ``claims``."""
    spy = spy if spy is not None else PromptSpy()
    runtime = build_runtime(config, provider=spy)
    with ThreadPoolExecutor(max_workers=claim_workers) as pool:
        records = list(pool.map(lambda claim: run_claim(runtime, claim), claims))
    payloads = []
    for record in records:
        check_stage_keys(record)
        payload = record.to_dict()
        assert "explanation_graph" not in payload
        payload["durations"] = [*payload["durations"]]
        payload["explanation_graph"] = record.explanation_graph
        payloads.append(payload)
    return sha256_json(payloads), sha256_json(sorted(spy.prompts))


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    return build_fixture_dataset(tmp_path_factory.mktemp("stability"), claim_count=40, seed=11)


@pytest.fixture(scope="module")
def claims(manifest_path):
    records, rejects = load_records(load_manifest(manifest_path))
    assert not rejects
    return records


@pytest.fixture(scope="module")
def digests(claims):
    """Per config: (records digest, prompts digest, the prompts the provider received)."""
    runs = {}

    def of(name):
        if name not in runs:
            spy = PromptSpy()
            runs[name] = (*run_digests(PipelineConfig(**CONFIGS[name]), claims, spy), spy.prompts)
        return runs[name]

    return of


def test_every_config_has_a_digest():
    assert set(DIGESTS) == set(CONFIGS)
    assert set(PROMPT_DIGESTS) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_records_match_golden_digest(name, digests):
    assert digests(name)[0] == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_prompts_match_golden_digest(name, digests):
    assert digests(name)[1] == PROMPT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_digests_do_not_depend_on_call_order(name, claims):
    config = PipelineConfig(**CONFIGS[name])
    expected = (DIGESTS[name], PROMPT_DIGESTS[name])
    assert run_digests(config, claims, ShuffledSpy(), claim_workers=4) == expected


# Around the evidence block of a rationale or a lone-analysis prompt.
EVIDENCE_OPENS = "but they are mixed with noise: "
EVIDENCE_CLOSES = ".\nNote, please do not repeat the claim"


def evidence_lines(prompt: str):
    """The lines of a rationale or analysis prompt's evidence block; None for other prompts."""
    _head, opens, rest = prompt.partition(EVIDENCE_OPENS)
    if not opens:
        return None
    block, closes, _tail = rest.rpartition(EVIDENCE_CLOSES)
    assert closes
    return block.split("\n")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_no_evidence_block_repeats_a_line(name, digests):
    # Reports carry copies of one sentence, and retrieval ranks each copy;
    # a prompt lists the text once.
    blocks = [lines for lines in map(evidence_lines, digests(name)[2]) if lines is not None]
    assert blocks
    repeating = [lines for lines in blocks if len(set(lines)) < len(lines)]
    assert not repeating, f"{len(repeating)} of {len(blocks)} evidence blocks repeat a line"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cost_without_timings(text: str) -> str:
    """``cost.json``'s text with its timing values nulled; the text must be its own JSON form."""
    payload = json.loads(text)
    assert json.dumps(payload, ensure_ascii=False, indent=2) == text
    payload.update(dict.fromkeys(COST_TIMINGS))
    return json.dumps(payload, ensure_ascii=False, indent=2)


def check_documents(name, run_dir) -> None:
    report = (run_dir / "report.json").read_text(encoding="utf-8")
    cost = (run_dir / "cost.json").read_text(encoding="utf-8")
    assert sha256_text(report) == DOCUMENT_DIGESTS[f"{name}/report.json"]
    assert sha256_text(cost_without_timings(cost)) == DOCUMENT_DIGESTS[f"{name}/cost.json"]


@pytest.mark.parametrize("name", DOCUMENT_CONFIGS)
def test_batch_documents_match_golden_digests(name, claims, tmp_path):
    run_batch(claims, PipelineConfig(**CONFIGS[name]), tmp_path, provider=ScriptedResponder(seed=0))
    check_documents(name, tmp_path)


class SlowFirstSpy(ScriptedResponder):
    """The default scripted provider, holding the first send of each ``held``
    prompt for 0.3 s, so that a copy is sent while it is still in flight."""

    def __init__(self, held) -> None:
        super().__init__(seed=0)
        self.held = set(held)
        self.lock = threading.Lock()

    def generate(self, request):
        with self.lock:
            first = request.prompt_text in self.held
            self.held.discard(request.prompt_text)
        if first:
            time.sleep(0.3)
        return super().generate(request)


@pytest.mark.parametrize("name", DOCUMENT_CONFIGS)
def test_batch_documents_do_not_depend_on_when_a_copy_is_sent(name, claims, tmp_path):
    # The prompts a cacheless run sends more than once; a batch's cache
    # answers each copy, or its call joins the first send's.
    config = PipelineConfig(**CONFIGS[name])
    spy = PromptSpy()
    runtime = build_runtime(config, provider=spy)
    for claim in claims:
        run_claim(runtime, claim)
    runtime.close()
    copied = [prompt for prompt, sends in Counter(spy.prompts).items() if sends > 1]
    assert copied
    run_batch(claims, config, tmp_path, provider=SlowFirstSpy(copied))
    check_documents(name, tmp_path)


def test_a_judged_report_matches_its_golden_digest(claims, tmp_path):
    # The judge calls run at once; ShuffledSpy makes them finish out of order.
    config = PipelineConfig(**CONFIGS["default"])
    run_batch(claims, config, tmp_path, provider=ScriptedResponder(seed=0))
    judge_run(tmp_path, config, provider=ShuffledSpy())
    report = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert json.loads(report)["judged"] == len(claims)
    assert sha256_text(report) == DOCUMENT_DIGESTS["default/judged/report.json"]


# Mean bytes per claim a default scripted batch over the forty claims writes:
# its record files, less the compact JSON of their timing-only durations, and
# its response log. A record part written back as a dict of its fields, an
# evidence text written more than once, a stored copy of the stage trace, or a
# longer request key, goes over them.
RECORD_BYTES_PER_CLAIM = 2797
LOG_BYTES_PER_CLAIM = 2298


def test_a_batch_writes_no_more_bytes_per_claim_than_its_compact_forms(claims, tmp_path):
    run_batch(claims, PipelineConfig(), tmp_path, provider=ScriptedResponder(seed=0))
    texts = [path.read_text(encoding="utf-8") for path in (tmp_path / "runs").iterdir()]
    timing = sum(len(json.dumps(json.loads(text)["durations"], separators=(",", ":"))) for text in texts)
    record_bytes = sum(len(text.encode("utf-8")) for text in texts) - timing
    log_bytes = (tmp_path / "cache" / "responses.jsonl").stat().st_size
    assert len(texts) == len(claims)
    assert record_bytes / len(claims) <= RECORD_BYTES_PER_CLAIM
    assert log_bytes / len(claims) <= LOG_BYTES_PER_CLAIM


def test_fixture_manifest_matches_golden_digest(manifest_path):
    text = manifest_path.read_text(encoding="utf-8")
    assert "expected_stats" in json.loads(text)
    assert sha256_text(text) == DOCUMENT_DIGESTS["manifest.json"]
