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
the record digests of those configs move with it.

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
    "default": "dc081c6f0246252b924f93cbf4d83804d9cec5830c320d65853ddaffbb6a2090",
    "hypergraph": "c83dd9e2a669525182da546a624db7b2897f45b02fbccc4f76625f0ec2b862e9",
    "background": "8b3fca7a5e351ef6a898ee4d086e03dcd2f83154b8b48e4bc281a005f6cfe484",
    "enhanced": "ce45d31bd1e8778368f6f05dfd94ef133f8fd4d60526df91fcbccf1191c6dfe1",
    "external_adapter": "745788f010e3d41ba869d7481dc20e78656450b54e6aaa0e195d49b3a58519c6",
    "no_subclaims": "695b4270a01902866366db7958c429c9d7fa9fe3e0c7fdfb2ee14a834b949eb2",
    "no_edges": "9bf8d7ad40aaf345dbd09de3bf47673f985881d8fd96c274513a573055dac17b",
    "no_evidence": "51facd86a77f9158b5f7377804411c47d56e76c53835ab1bea24dcdd0f86d215",
    "no_competing": "07e4f4ec8762830cf580dd2985a46acfabbf51381e3f45b9d0fb163b3dc6af65",
    "no_inference_training": "dc081c6f0246252b924f93cbf4d83804d9cec5830c320d65853ddaffbb6a2090",
    "claim_only_bare": "9f6ff96a46de78d650bf1aa0c794c41783c0bdf1a0d6b834b75ba3637f07e54e",
}


# The configs whose batch documents are pinned, and the timing values nulled in cost.json.
DOCUMENT_CONFIGS = ("default", "background", "external_adapter")
COST_TIMINGS = ("latency_components_sec", "estimated_latency_sec", "measured_latency_sec")

DOCUMENT_DIGESTS = {
    "default/report.json": "984aaafc48d8eca4b57bc9385d5b3c580419ee12b6894637a1914f295bdae7b0",
    "default/cost.json": "f8518b626ce353bfa951cd8e14fd364d20f58653323869593d7a572fec47e2cd",
    "background/report.json": "36d111ca1100fc2544de6e1c2fb2f6c7e58ab881627f3f61116db854e9717822",
    "background/cost.json": "afe096ed3525b113062b6607bb977d2f7c7d0f1086783da989a971f9a477bbbb",
    "external_adapter/report.json": "8ee54a3daec1ed1724d52145dfc4d22cfcc1df78538064ee4244109b791b40af",
    "external_adapter/cost.json": "6ac2cae60c1c3e427617fadab1f38eb598c9f72a7e31414c3558f34d58a9741d",
    "default/judged/report.json": "f156152f4e101930d8773d4fc9309a733b7bf6554edbc0be346ed307318cacd9",
    "manifest.json": "f68d135d9757f4b0a7b79c91efa0174470b7852250aa27ab2a3e01b134e15df6",
}

PROMPT_DIGESTS = {
    "default": "59770f268e1552cd1467f41d2ccbf7016225098628f7111f8cbfa4e6d6fc4042",
    "hypergraph": "2283a354d8f560d693a37334beec69fb00ce8d1b5877c8fee6ca578aabee5e0a",
    "background": "16b61fd4ffd3ce1e51db3a8736388d11cc6823812ff5ddb713a5a49794c58ad4",
    "enhanced": "c06df29804a5ac26fce0df1fedcbfb31243173f46120ad30ed9dfe6ec5696737",
    "external_adapter": "d204ae7a8696c5434f3bf727b907b242e3e2f0cadc36a6b74b351caef384e55b",
    "no_subclaims": "54da5662ccaa203767217185bb955897aa09c3d9f9de2a886b08e85506dd20e3",
    "no_edges": "c5f437bcb44a625238b69dd121ea229edd897f8089d7b18dd3763e0d565cbf85",
    "no_evidence": "95a552daac45b93128fccbbc545687618a474669fe3eeec251a4314a8905736b",
    "no_competing": "542306f2d816446b3bad280c4ab4d2d193d278185677fb4176bdad3d0d5cae26",
    "no_inference_training": "59770f268e1552cd1467f41d2ccbf7016225098628f7111f8cbfa4e6d6fc4042",
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
    runs = {}

    def of(name):
        if name not in runs:
            runs[name] = run_digests(PipelineConfig(**CONFIGS[name]), claims)
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
