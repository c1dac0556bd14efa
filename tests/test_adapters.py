import sys

import pytest

from claimgraph.adapters import LineAdapterClient
from claimgraph.errors import AdapterContractError

LABELS = ["false", "half", "true"]


def replying(line):
    """A child script that answers every request line with ``line``."""
    return f"import sys\nfor _ in sys.stdin:\n    print({line!r}, flush=True)\n"


@pytest.fixture
def line_client():
    made = []

    def make(script):
        made.append(LineAdapterClient([sys.executable, "-c", script]))
        return made[-1]

    yield make
    for client in made:
        client.close()


def test_line_adapter_answers_over_one_child_and_close_reaps_it(line_client):
    client = line_client(replying('{"probabilities": [0.1, 0.7, 0.2]}'))
    assert client.predict("p", LABELS) == [0.1, 0.7, 0.2]
    child = client._process
    assert client.predict("q", LABELS) == [0.1, 0.7, 0.2]
    assert client._process is child
    client.close()
    # EOF on its stdin ends the child's loop; close waits for it.
    assert child.returncode == 0
    assert client._process is None


@pytest.mark.parametrize(
    "script",
    [
        replying("not json"),
        replying('{"labels": []}'),
        replying("[0.1, 0.7, 0.2]"),
        "pass",  # exits before answering
    ],
    ids=["not_json", "no_probabilities", "not_an_object", "early_exit"],
)
def test_line_adapter_contract_violations(line_client, script):
    client = line_client(script)
    with pytest.raises(AdapterContractError):
        client.predict("p", LABELS)
    child = client._process
    client.close()
    assert child.returncode is not None
