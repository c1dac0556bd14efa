"""Golden digests of run_claim records across pipeline configurations.

Each digest is a sha256 over the records of forty fixture claims run through
``run_claim`` with the scripted provider, with the timing-only ``durations``
field removed. A refactor of the pipeline must leave every digest unchanged;
a change that is meant to alter records must update the digest it moves and
say why.
"""
import hashlib
import json

import pytest

from claimgraph.fixtures import build_fixture_dataset
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
    "default": "9b4776bee1d79a4051663787e8f5ca8c0c2801bfb9ff9487cd85c0b1c2ba9688",
    "hypergraph": "110cdbcf334173fcd1c22c4c6e6aacff5de29b3bd927a7b25d1603382c7c6a75",
    "background": "ceede4de7939de9bc03a038f3fb2d1daac050fca86bec2080297233a127a3b12",
    "enhanced": "3b7de699d5d6c5a99e41232ff6c4bf02f2634ed7b8023c81cd7a397c46805d9c",
    "external_adapter": "1ff45e70353fd6c9473523ad51ff443dbf2e12ca8b080a4c964dd9f7db8689ed",
    "no_subclaims": "d9ae76840901729eff1db211c79d9bfa31f4043cfea82cec3958cce816e515a1",
    "no_edges": "9415a40e05b30b263f1541b22ab8f40e332767415ae3822ff7635c359ed0914c",
    "no_evidence": "627e45176b2b524e411cd6719c1cb163f94d135ddb409d3aa1b77a2cd4ad5ae3",
    "no_competing": "8a831a9cf4186b65251ffc1df0b93f88cce84aa7eb1a1a95d8574a3878fca359",
    "no_inference_training": "faca594c4c70f732494af47d0348e7da71cc8faf74957351b5dad838189b30fd",
    "claim_only_bare": "35498befea7c1647cba95847ad3d7d8a9adeb536dfc6e3c75efe7bb2eb96423c",
}


@pytest.fixture(scope="module")
def claims(tmp_path_factory):
    root = tmp_path_factory.mktemp("stability")
    manifest = load_manifest(build_fixture_dataset(root, claim_count=40, seed=11))
    records, rejects = load_records(manifest)
    assert not rejects
    return records


def records_digest(config: PipelineConfig, claims) -> str:
    runtime = build_runtime(config)
    payloads = []
    for claim in claims:
        payload = run_claim(runtime, claim).to_dict()
        del payload["durations"]
        payloads.append(payload)
    canonical = json.dumps(payloads, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_every_config_has_a_digest():
    assert set(DIGESTS) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_records_match_golden_digest(name, claims):
    assert records_digest(PipelineConfig(**CONFIGS[name]), claims) == DIGESTS[name]
