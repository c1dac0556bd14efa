"""Golden digests of run_claim records and prompts across pipeline configurations.

Each record digest is a sha256 over the records of forty fixture claims run
through ``run_claim`` with the scripted provider, with the timing-only
``durations`` field removed. A refactor of the pipeline must leave every
digest unchanged; a change that is meant to alter records must update the
digest it moves and say why.

Each prompt digest is a sha256 over every prompt the provider receives in the
same run, sorted, so that it does not depend on the order in which a claim's
overlapping calls reach the provider. A change that is meant to alter a
prompt (a template body, the graph serialization, a corrective note) must
update the prompt digest of every config it moves and say why in CHANGES.md;
the record digests of those configs move with it.
"""
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from claimgraph.fixtures import build_fixture_dataset
from claimgraph.gateway.scripted import ScriptedResponder
from claimgraph.ingest import load_manifest, load_records
from claimgraph.pipeline import PipelineConfig, build_runtime, run_claim

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
    "default": "8508f930a32544792d9be9c995247cbc0fc6b7ae15bdeefb9226b25c469f7827",
    "hypergraph": "84413c7400431ff6ed658a770f3bd19a261694e3c717df4a2293a9cbc52295e6",
    "background": "bd930ad0a4d385cc3005cde87eca47b39b960b90e6e75455e640f48b45e9e1b4",
    "enhanced": "221fd6436796e81547fb4cd55d6ef323530fc0424ba335161a9ae296539820e4",
    "external_adapter": "88962acafdd06818d3c2530ef55318ac97753ad7b521d258d86c7ee9dfa817ad",
    "no_subclaims": "654a4309e2b24c0f068f242eaa5453be647a64b83c4337bca62b98e6a4124f6d",
    "no_edges": "8c3e08d137cbeffed9aff2e79a689376ac1d49ebec3f675678fd98ec70aa7805",
    "no_evidence": "155983249162e954f39cd38330c2bb8fd536a13487b6539ee445ec064ff7aa3d",
    "no_competing": "a0fcd7b11f5ed1eddba5b71431853c2489b3bbabdc47a289a8cfe6f5777cae1a",
    "no_inference_training": "00b2d3412551134a288f74e189fb3aee8dd461e815a07edc2a9173314452585d",
    "claim_only_bare": "7d49ea65bffaf7689fb24e764a7176266936a7d9436dd26fdcb15be84925c825",
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


def run_digests(config: PipelineConfig, claims, spy=None, claim_workers=1):
    """(records digest, prompts digest) of one run over ``claims``."""
    spy = spy if spy is not None else PromptSpy()
    runtime = build_runtime(config, provider=spy)
    with ThreadPoolExecutor(max_workers=claim_workers) as pool:
        records = list(pool.map(lambda claim: run_claim(runtime, claim), claims))
    payloads = []
    for record in records:
        payload = record.to_dict()
        del payload["durations"]
        payloads.append(payload)
    return sha256_json(payloads), sha256_json(sorted(spy.prompts))


@pytest.fixture(scope="module")
def claims(tmp_path_factory):
    root = tmp_path_factory.mktemp("stability")
    manifest = load_manifest(build_fixture_dataset(root, claim_count=40, seed=11))
    records, rejects = load_records(manifest)
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
