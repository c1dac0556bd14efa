"""Golden digests of run_claim records and prompts across pipeline configurations.

Each record digest is a sha256 over the records of forty fixture claims run
through ``run_claim`` with the scripted provider, with the timing-only
``durations`` field removed. A refactor of the pipeline must leave every
digest unchanged; a change that is meant to alter records must update the
digest it moves and say why.

Each prompt digest is a sha256 over every prompt the provider receives in the
same run, in the order it receives them. A change that is meant to alter a
prompt (a template body, the graph serialization, a corrective note) must
update the prompt digest of every config it moves and say why in CHANGES.md;
the record digests of those configs move with it.
"""
import hashlib
import json

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
    "no_inference_training": {"ablations": ("no_inference_training",)},
    "claim_only_bare": {"ablations": ("no_subclaims", "no_evidence", "no_competing")},
}

DIGESTS = {
    "default": "8508f930a32544792d9be9c995247cbc0fc6b7ae15bdeefb9226b25c469f7827",
    "hypergraph": "c94d1c495703a6d49e2d29330156f6bf43b4618618bbb35b26568f19ca2593a2",
    "background": "b1fd63901575cb08f30e648482ce732799f4548d6d191fdc34e52fd72db9eaa0",
    "enhanced": "221fd6436796e81547fb4cd55d6ef323530fc0424ba335161a9ae296539820e4",
    "external_adapter": "88962acafdd06818d3c2530ef55318ac97753ad7b521d258d86c7ee9dfa817ad",
    "no_subclaims": "654a4309e2b24c0f068f242eaa5453be647a64b83c4337bca62b98e6a4124f6d",
    "no_edges": "8c3e08d137cbeffed9aff2e79a689376ac1d49ebec3f675678fd98ec70aa7805",
    "no_evidence": "155983249162e954f39cd38330c2bb8fd536a13487b6539ee445ec064ff7aa3d",
    "no_competing": "a0fcd7b11f5ed1eddba5b71431853c2489b3bbabdc47a289a8cfe6f5777cae1a",
    "no_inference_training": "f1e185f11e7c286431e4ca5f47d527315aecd54a73162157b68584b55fb503d3",
    "claim_only_bare": "7d49ea65bffaf7689fb24e764a7176266936a7d9436dd26fdcb15be84925c825",
}


PROMPT_DIGESTS = {
    "default": "6c127a4cc4b70b3bcfdfe39285ef95e22465cc54b66ba95a29617182d4841e9d",
    "hypergraph": "b4c6fd3a9206c0c25e3bf1d104c835c29f0d47541664d55b540f3426318b826a",
    "background": "d72e273ab6bf4f32d47527e323bb10e60c7b8c11cbfa26364489e2ef55d434f9",
    "enhanced": "858fe4aefe64f1567e095ffb80028353113e26c1d6e876adb60bc68349a4740f",
    "external_adapter": "a688005ccb30c13bddce94d21824adf3c4134b7558914cafb512e0450cb0abd1",
    "no_subclaims": "50838cfb3d4e36951e2d47746b4cf94e10136fb5f79fb8c421d2c77a8f42338c",
    "no_edges": "8ccf7d975d55e934f136346ca6917f84a1094c82a585983cc5a7760ebbd8a1ab",
    "no_evidence": "940f5fb15abc67827af4ca0137288192f614c13c1a06e4e34ba8a9d971ce7d4b",
    "no_competing": "18401b9e0bd91609b77f26d5ba3e4ef903eb3e2172e94eb77fa9329dc5de7e61",
    "no_inference_training": "6c127a4cc4b70b3bcfdfe39285ef95e22465cc54b66ba95a29617182d4841e9d",
    "claim_only_bare": "2caefccaa20f0bcd61b545f71ce0aa19ffeebf7019ea80b907f769cdab081221",
}


class PromptSpy(ScriptedResponder):
    """The default scripted provider, keeping every prompt it is sent."""

    def __init__(self) -> None:
        super().__init__(seed=0)
        self.prompts = []

    def generate(self, request):
        self.prompts.append(request.prompt_text)
        return super().generate(request)


def sha256_json(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_digests(config: PipelineConfig, claims):
    """(records digest, prompts digest) of one run over ``claims``."""
    spy = PromptSpy()
    runtime = build_runtime(config, provider=spy)
    payloads = []
    for claim in claims:
        payload = run_claim(runtime, claim).to_dict()
        del payload["durations"]
        payloads.append(payload)
    return sha256_json(payloads), sha256_json(spy.prompts)


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
