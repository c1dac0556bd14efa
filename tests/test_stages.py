"""The nine model-call sites: their stage, their corrective re-asks, and names spelled once.

Each call site is fed only unusable replies. Its calls must be booked under
its own ``Stage`` member, each re-ask must be the first prompt plus the
site's corrective note, and the site must then give up the way it always
has: with its error, or for edges with the safeguard fallback. Fed a usable
reply on its last attempt instead, the site returns what that reply says; a
provider failure on the re-ask propagates as it is.
"""
import ast
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple

import pytest

import claimgraph
from claimgraph.errors import (
    DecompositionError,
    ExplanationError,
    HyperedgeParseError,
    JudgeFailureError,
    PredictionError,
    ProviderError,
    SummarizationError,
    UnparseableLabelError,
)
from claimgraph.evaluation import JudgeScores, judge_explanation
from claimgraph.explain import (
    CompetingExplanations,
    generate_background,
    generate_competing_pair,
    generate_lone_analysis,
)
from claimgraph.gateway import Stage
from claimgraph.graphs import (
    HyperGraph,
    assemble_claim_graph,
    decompose_claim,
    generate_edges,
    generate_hyperedges,
)
from claimgraph.inference import ZERO_SHOT, DefenseGraph, PredictionResult, predict_zero_shot
from claimgraph.labels import THREE_WAY
from claimgraph.retrieval import (
    EvidenceCandidate,
    EvidenceSet,
    HashingBagOfWordsEmbedder,
    RetrievedEvidence,
    build_corpus_index,
)
from claimgraph.summarize import SubClaimVerdict, SummaryOutcome, summarize_explanations

from fakes import FakeGateway

SUB_CLAIMS = ["The mayor signed the bill.", "The bill cut taxes."]
EVIDENCE = EvidenceSet(1, (RetrievedEvidence(0, 0, "The mayor signed it.", 0.9),), 5)
EMBEDDER = HashingBagOfWordsEmbedder(dimension=16)

DECOMPOSE_NOTES = (
    "\nNote: You must return at least two distinct sub-claims.",
    "\nNote: Previous outputs were invalid. Return a numbered list of at least two "
    "distinct sub-claims.",
)
EDGE_NOTES = (
    '\nNote: Output must contain the "edges" key mapped to a list of index pairs.',
    '\nNote: Previous outputs were invalid. Output a dictionary with an "edges" list '
    "of (source, target) index pairs.",
)
HYPEREDGE_NOTES = (
    '\nNote: Output must contain the "hyperedges" key mapped to a list of index lists.',
    '\nNote: Previous outputs were invalid. Output a dictionary with a "hyperedges" '
    "list of index lists.",
)
EMPTY_NOTE = ("\nNote: The rationale must not be empty.",)
RE_ASKED = "summary response needed a corrective re-ask"


def background(gw):
    candidates = [EvidenceCandidate(0, i, f"sentence {i} about the bill") for i in range(4)]
    index = build_corpus_index(candidates, EMBEDDER)
    text, _pool = generate_background(gw, 1, SUB_CLAIMS[1], index, EMBEDDER, 3)
    return text


def summary_reply(entries, final=None):
    """A summary reply with a verdict for each ``index: prediction`` in ``entries``."""
    verdicts = {
        f"sub-claim {i}": {"reasoning": f"r{i}", "prediction": prediction}
        for i, prediction in entries.items()
    }
    payload = {"sub-claims-veracity": verdicts}
    if final is not None:
        payload["final-explanation"] = final
    return json.dumps(payload)


def summary(gw):
    entries = tuple(
        CompetingExplanations(i, false_oriented=f"f{i}", true_oriented=f"t{i}") for i in (1, 2)
    )
    defense = DefenseGraph(assemble_claim_graph("The claim.", SUB_CLAIMS, set()), entries)
    return summarize_explanations(gw, defense, THREE_WAY.label("half"))


@dataclass(frozen=True)
class CallSite:
    call: Callable[[FakeGateway], object]
    reply: str  # unusable; sent on every attempt
    stage: Stage
    notes: Tuple[str, ...]  # appended to the first prompt by each re-ask, in order
    first_prompt: str  # the first 16 hex digits of the first prompt's sha256
    usable: Tuple[str, ...]  # the last attempt's usable reply, then any later calls' replies
    recovered: object  # what the site returns when its last attempt is usable
    error: Optional[Tuple[type, str]] = None  # how the site gives up, if it raises
    cause: Optional[type] = None  # the type of that error's __cause__
    returns: object = None  # what it returns when it gives up without raising


CALL_SITES = {
    "decompose_claim": CallSite(
        lambda gw: decompose_claim(gw, "The mayor signed a tax bill."),
        "one line only",
        Stage.CLAIM_DECOMPOSITION,
        DECOMPOSE_NOTES,
        "049b9a758be3598b",
        usable=("1. The mayor signed it.\n2. The bill cut taxes.",),
        recovered=["The mayor signed it.", "The bill cut taxes."],
        error=(
            DecompositionError,
            "decomposition kept returning fewer than two sub-claims for "
            "'The mayor signed a tax bill.'",
        ),
    ),
    "generate_edges": CallSite(
        lambda gw: generate_edges(gw, "The claim.", SUB_CLAIMS),
        "garbled",
        Stage.EDGE_GENERATION,
        EDGE_NOTES,
        "9d9198791a1e84c3",
        usable=('{"edges": [(1, 0), (2, 2), (1, 2)]}',),
        recovered=(
            {(1, 0), (1, 2)},
            [f"edge parse attempt {n} failed: response has no edge list key" for n in (1, 2)]
            + ["dropped self-loop (2, 2)"],
        ),
        returns=(
            set(),
            [f"edge parse attempt {n} failed: response has no edge list key" for n in (1, 2, 3)]
            + ["edge generation unusable after 3 attempts; keeping safeguard edges only"],
        ),
    ),
    "generate_hyperedges": CallSite(
        lambda gw: generate_hyperedges(gw, "The claim.", SUB_CLAIMS),
        "no lists here",
        Stage.HYPEREDGE_GENERATION,
        HYPEREDGE_NOTES,
        "db3a04dd5fea4a38",
        usable=('{"hyperedges": [[1, 2, 7], [0]]}',),
        recovered=(
            HyperGraph("The claim.", tuple(SUB_CLAIMS), ((1, 2),), ("llm_generated",)),
            [f"hyperedge parse attempt {n} failed: response has no index lists" for n in (1, 2)]
            + [
                "dropped out-of-range index 7 from hyperedge [1, 2, 7]",
                "dropped hyperedge [0] with fewer than two valid members",
            ],
        ),
        error=(HyperedgeParseError, "hyperedge generation unusable after 3 attempts"),
    ),
    "generate_competing_pair": CallSite(
        lambda gw: generate_competing_pair(gw, 1, SUB_CLAIMS[0], EVIDENCE),
        "",
        Stage.EXPLANATION_GENERATION,
        EMPTY_NOTE,
        "fac5988e08acd1e7",
        usable=("No record shows it.", "It was signed."),
        recovered=CompetingExplanations(
            1, false_oriented="No record shows it.", true_oriented="It was signed."
        ),
        error=(ExplanationError, "false-oriented explanation came back empty twice"),
    ),
    "generate_lone_analysis": CallSite(
        lambda gw: generate_lone_analysis(gw, 1, SUB_CLAIMS[0], EVIDENCE),
        " ",
        Stage.EXPLANATION_GENERATION,
        EMPTY_NOTE,
        "bf4c8a5518ab8c78",
        usable=(" Signed in May. ",),
        recovered=CompetingExplanations(1, analysis="Signed in May."),
        error=(ExplanationError, "analysis came back empty twice"),
    ),
    "generate_background": CallSite(
        background,
        "\n",
        Stage.BACKGROUND_GENERATION,
        EMPTY_NOTE,
        "af2c86c580aebec9",
        usable=("Tax bills pass yearly.",),
        recovered="Tax bills pass yearly.",
        error=(ExplanationError, "background analysis came back empty twice"),
    ),
    "predict_zero_shot": CallSite(
        lambda gw: predict_zero_shot(gw, "Which label?", THREE_WAY),
        "no verdict",
        Stage.INFERENCE,
        ("\nAnswer with exactly one label.",),
        "0c3d8f3652436cde",
        usable=("Half true.",),
        recovered=PredictionResult(THREE_WAY.label("half"), ZERO_SHOT),
        error=(
            PredictionError,
            "no parseable label after re-ask: could not find a three_way label in "
            "'no verdict' (first reply: could not find a three_way label in 'no verdict')",
        ),
        cause=UnparseableLabelError,
    ),
    "summarize_explanations": CallSite(
        summary,
        "no structure",
        Stage.FINAL_EXPLANATION_GENERATION,
        (
            "\nNote: Include an entry for every sub-claim and a non-empty "
            "final-explanation value.",
        ),
        "c5eaa5979bf9fdb2",
        usable=(summary_reply({1: "true", 2: "false"}, "Both checked."),),
        recovered=SummaryOutcome(
            (SubClaimVerdict(1, True, "r1"), SubClaimVerdict(2, False, "r2")),
            "Both checked.",
            (RE_ASKED,),
        ),
        error=(SummarizationError, "no usable final-explanation after re-ask"),
        cause=ValueError,
    ),
    "judge_explanation": CallSite(
        lambda gw: judge_explanation(gw, "The claim.", THREE_WAY.label("false"), "Because."),
        "junk",
        Stage.JUDGE,
        ("\nNote: Output integer scores from 1 to 5 for all four keys.",),
        "8dd5afd822181a55",
        usable=('{"misleadingness": 2, "informativeness": 4, "soundness": 3, "readability": 5}',),
        recovered=JudgeScores(2, 4, 3, 5),
        error=(
            JudgeFailureError,
            "judge reply unusable after re-ask: judge reply lacks keys: "
            "['misleadingness', 'informativeness', 'soundness', 'readability']",
        ),
        cause=ValueError,
    ),
}


@pytest.mark.parametrize("name", list(CALL_SITES))
def test_unusable_replies_are_re_asked_under_the_sites_stage_then_given_up(name):
    site = CALL_SITES[name]
    gw = FakeGateway([site.reply] * (1 + len(site.notes)))
    if site.error is None:
        assert site.call(gw) == site.returns
    else:
        error, message = site.error
        with pytest.raises(error) as raised:
            site.call(gw)
        assert str(raised.value) == message
        assert type(raised.value.__cause__) is (site.cause or type(None))
    assert gw.replies == []
    first = gw.prompts[0][1]
    assert hashlib.sha256(first.encode("utf-8")).hexdigest()[:16] == site.first_prompt
    assert gw.prompts == [(site.stage, first + note) for note in ("",) + site.notes]
    assert all(type(stage) is Stage for stage, _ in gw.prompts)


@pytest.mark.parametrize("name", list(CALL_SITES))
def test_a_usable_reply_on_the_last_attempt_is_taken(name):
    site = CALL_SITES[name]
    gw = FakeGateway([site.reply] * len(site.notes) + list(site.usable))
    assert site.call(gw) == site.recovered
    assert gw.replies == []
    first = gw.prompts[0][1]
    attempts = [(site.stage, first + note) for note in ("",) + site.notes]
    assert gw.prompts[: len(attempts)] == attempts


@pytest.mark.parametrize("name", list(CALL_SITES))
def test_a_provider_error_on_the_re_ask_propagates_unchanged(name):
    site = CALL_SITES[name]
    failure = ProviderError("provider down")
    gw = FakeGateway([site.reply, failure])
    with pytest.raises(ProviderError) as raised:
        site.call(gw)
    assert raised.value is failure
    first = gw.prompts[0][1]
    assert gw.prompts == [(site.stage, first), (site.stage, first + site.notes[0])]


def _fallback(index):
    return SubClaimVerdict(index, True, fallback=True)  # "half" leans true


@pytest.mark.parametrize(
    "first, re_ask, kept",
    [
        pytest.param(
            summary_reply({1: "false"}, "First."),
            summary_reply({1: "true", 2: "true"}),
            SummaryOutcome(
                (SubClaimVerdict(1, False, "r1"), _fallback(2)),
                "First.",
                (RE_ASKED, "verdict for sub-claim 2 missing; fallback applied"),
            ),
            id="first-is-more-usable",
        ),
        pytest.param(
            summary_reply({1: "false"}, "First."),
            summary_reply({2: "false"}, "Second."),
            SummaryOutcome(
                (_fallback(1), SubClaimVerdict(2, False, "r2")),
                "Second.",
                (RE_ASKED, "verdict for sub-claim 1 missing; fallback applied"),
            ),
            id="tie-keeps-the-re-ask",
        ),
    ],
)
def test_the_summary_keeps_the_more_usable_of_its_two_replies(first, re_ask, kept):
    gw = FakeGateway([first, re_ask])
    assert CALL_SITES["summarize_explanations"].call(gw) == kept
    assert gw.replies == []


def _is_enum(node: ast.ClassDef) -> bool:
    return any(isinstance(base, ast.Name) and base.id.endswith("Enum") for base in node.bases)


def _outside_enums(tree: ast.AST):
    """Every node of ``tree`` outside enum bodies."""
    pending = [tree]
    while pending:
        node = pending.pop()
        if not (isinstance(node, ast.ClassDef) and _is_enum(node)):
            yield node
            pending.extend(ast.iter_child_nodes(node))


def _stage_literals(tree: ast.AST):
    """String constants equal to a stage name, outside enum bodies."""
    names = {stage.value for stage in Stage}
    for node in _outside_enums(tree):
        if isinstance(node, ast.Constant) and node.value in names:
            yield node.lineno, node.value


def test_stage_names_are_spelled_only_in_enum_bodies():
    package = Path(claimgraph.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {value!r}" for line, value in sorted(_stage_literals(tree))]
    assert found == []


def test_stage_literal_scan_sees_code_but_not_enum_bodies():
    tree = ast.parse(
        "class T(str, Enum):\n    JUDGE = 'judge'\n\ntrace = ['inference']\n"
    )
    assert list(_stage_literals(tree)) == [(4, "inference")]


def _stage_calls(tree: ast.AST):
    """Line numbers of ``Stage(...)`` and ``<x>.Stage(...)`` calls, outside enum bodies."""
    return sorted(
        node.lineno
        for node in _outside_enums(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "Stage"
    )


def test_only_the_decoder_turns_a_value_into_a_stage():
    """A stage is read from its value by ``jsonform.from_json`` alone; the code holds ``Stage``s."""
    package = Path(claimgraph.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(package)}:{line}" for line in _stage_calls(tree)]
    assert found == []


def test_stage_call_scan_sees_calls_but_not_enum_bodies_or_other_names():
    tree = ast.parse(
        "Stage(name)\n"
        "ledger.Stage('x')\n"
        "class T(str, Enum):\n    A = Stage('a')\n"
        "Stage.INFERENCE\n"
        "Stages(name)\n"
        "isinstance(x, Stage)\n"
    )
    assert _stage_calls(tree) == [1, 2]


def _complete_calls(tree: ast.AST):
    """Line numbers of calls to an attribute named ``complete``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "complete"
    ]


def test_only_the_gateway_module_calls_complete():
    """Every other module asks through ``gateway.ask``, the one re-ask loop."""
    package = Path(claimgraph.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "gateway" / "gateway.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(package)}:{line}" for line in _complete_calls(tree)]
    assert found == []


def test_complete_call_scan_sees_only_calls_named_complete():
    tree = ast.parse("gw.complete(p, s)\ngw.completed(p)\nf = gw.complete\n")
    assert _complete_calls(tree) == [1]


def _json_file_reads(tree: ast.AST):
    """Line numbers of ``json.load(...)`` and of ``json.loads(<x>.read_text(...))``."""
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
        ):
            continue
        argument = node.args[0] if node.args else None
        reads_a_file = (
            isinstance(argument, ast.Call)
            and isinstance(argument.func, ast.Attribute)
            and argument.func.attr == "read_text"
        )
        if node.func.attr == "load" or (node.func.attr == "loads" and reads_a_file):
            found.append(node.lineno)
    return found


def test_only_the_reader_turns_a_files_text_into_json():
    """Every JSON file is read through ``jsonform.read_json``, the one checked reader."""
    package = Path(claimgraph.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "jsonform.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(package)}:{line}" for line in _json_file_reads(tree)]
    assert found == []


def test_json_file_read_scan_flags_file_reads_but_not_text_parsing():
    tree = ast.parse(
        "json.loads(path.read_text(encoding='utf-8'))\n"
        "json.load(handle)\n"
        "json.loads(line)\n"
        "json.dumps(payload)\n"
        "json.loads(Path(p).read_text())\n"
    )
    assert _json_file_reads(tree) == [1, 2, 5]


_WRITE_MODE = re.compile(r"[rbt+]*[wax][rwaxbt+]*")


def _file_writes(tree: ast.AST):
    """Line numbers of calls that create or replace a file.

    These are ``<x>.write_text`` and ``<x>.write_bytes`` (a bare
    ``write_text(...)`` is jsonform's, imported), ``json.dump``, ``fdopen``,
    ``mkstemp``, ``os.open``, and ``open`` or ``<x>.open`` with a w, a or x mode.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, attribute = node.func, isinstance(node.func, ast.Attribute)
        name = func.attr if attribute else getattr(func, "id", None)
        owner = getattr(func.value, "id", None) if attribute else None
        arguments = [*node.args, *(k.value for k in node.keywords if k.arg == "mode")]
        modes = [str(a.value) for a in arguments if isinstance(a, ast.Constant)]
        if (
            name in ("fdopen", "mkstemp")
            or (attribute and name in ("write_text", "write_bytes") and owner != "jsonform")
            or (name, owner) in (("dump", "json"), ("open", "os"))
            or (name == "open" and any(_WRITE_MODE.fullmatch(mode) for mode in modes))
        ):
            found.append(node.lineno)
    return found


def test_only_the_writer_creates_or_replaces_files():
    """Every file is written through ``jsonform.write_text``: atomic, one temp-file rule."""
    package = Path(claimgraph.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "jsonform.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(package)}:{line}" for line in _file_writes(tree)]
    assert found == []


def test_file_write_scan_flags_file_writes_but_not_pipes_reads_or_the_writer():
    tree = ast.parse(
        "path.write_text(text, encoding='utf-8')\n"
        "Path(p).write_bytes(data)\n"
        "json.dump(payload, handle)\n"
        "os.fdopen(fd, 'w')\n"
        "tempfile.mkstemp(dir=d)\n"
        "open(p, 'w', encoding='ascii')\n"
        "path.open(mode='a')\n"
        "open(p, 'xb')\n"
        "os.open(p, flags, 0o666)\n"
        "mkstemp()\n"
        "self._process.stdin.write(line)\n"
        "open(p, encoding='ascii')\n"
        "path.open('rb')\n"
        "write_text(path, text)\n"
        "jsonform.write_text(path, text)\n"
        "json.dumps(payload)\n"
        "subprocess.Popen(argv, stdin=subprocess.PIPE, text=True)\n"
    )
    assert _file_writes(tree) == list(range(1, 11))


def _splat_builds(tree: ast.AST):
    """``(line, name)`` of each ``Kind(**payload)``: ``cls`` or a capitalised name given ``**``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or all(k.arg is not None for k in node.keywords):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "cls" or name[:1].isupper():
            found.append((node.lineno, name))
    return found


# A judge reply's scores, coerced from a model's reply; no stored document.
_REPLY_BUILDS = {("evaluation.py", "JudgeScores")}


def test_only_the_decoder_builds_a_kind_from_a_splatted_payload():
    """Every stored document is decoded by ``jsonform.from_json``, the one decoder."""
    package = Path(claimgraph.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "jsonform.py":
            continue
        where = str(path.relative_to(package))
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{where}:{line} {name}"
            for line, name in _splat_builds(tree)
            if (where, name) not in _REPLY_BUILDS
        ]
    assert found == []


def test_splat_build_scan_flags_kinds_built_from_a_payload_but_not_other_calls():
    tree = ast.parse(
        "Kind(**payload)\n"
        "cls(**fields)\n"
        "module.Kind(a, **e)\n"
        "replace(config, **changes)\n"
        "Kind(*args)\n"
        "Kind(a=1)\n"
        "f(**kwargs)\n"
    )
    assert _splat_builds(tree) == [(1, "Kind"), (2, "cls"), (3, "Kind")]


def _hand_written_forms(tree: ast.AST):
    """Line numbers of ``to_dict`` functions that return a dict display or a ``dict(...)`` call."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name != "to_dict":
            continue
        values = [r.value for r in ast.walk(node) if isinstance(r, ast.Return)]
        if any(
            isinstance(value, (ast.Dict, ast.DictComp))
            or (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict")
            for value in values
        ):
            found.append(node.lineno)
    return found


def test_only_as_json_writes_a_json_form():
    """Every record part and document a run writes gets its JSON form from ``jsonform.as_json``."""
    package = Path(claimgraph.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(package)}:{line}" for line in _hand_written_forms(tree)]
    assert found == []


def test_json_form_scan_flags_hand_written_to_dicts_but_not_the_encoder():
    tree = ast.parse(
        "def to_dict(self):\n    return {'claims': self.claim_count}\n"
        "def to_dict(self):\n    return dict(self.counts)\n"
        "def to_dict(self):\n    return {k: v for k, v in self.items}\n"
        "def to_dict(self):\n    if self.x:\n        return as_json(self)\n    return {}\n"
        "def to_dict(self):\n    return as_json(self)\n"
        "def as_dict(self):\n    return {'a': 1}\n"
        "def to_dict(self):\n    payload = {}\n    return payload\n"
        "def to_dict(self):\n    return json.loads(dict)\n"
    )
    assert _hand_written_forms(tree) == [1, 3, 5, 7]
