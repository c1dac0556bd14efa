"""The template registry must match the checked-in transcription files
byte for byte; any drift in the frozen prompt bodies fails here first."""
import re
from pathlib import Path

import pytest

from claimgraph.errors import UnboundSlotError, UnknownTemplateError
from claimgraph.gateway.prompts import (
    SLOT_PATTERN,
    TemplateId,
    get_template,
    render_body,
    render_prompt,
)

TRANSCRIPTIONS = Path(__file__).parent / "data" / "prompt_transcriptions"


@pytest.mark.parametrize("template_id", list(TemplateId))
def test_body_matches_transcription_bytes(template_id):
    expected = (TRANSCRIPTIONS / f"{template_id.value}.txt").read_bytes()
    assert get_template(template_id).body.encode("utf-8") == expected


@pytest.mark.parametrize("template_id", list(TemplateId))
def test_render_only_touches_slot_markers(template_id):
    template = get_template(template_id)
    bindings = {slot: f"{{{{{slot}}}}}" for slot in template.slots}
    # Substituting each slot with its own marker must reproduce the body.
    assert render_body(template.body, bindings) == template.body


@pytest.mark.parametrize("template_id", list(TemplateId))
def test_transcription_without_markers_equals_render_of_empties(template_id):
    template = get_template(template_id)
    raw = (TRANSCRIPTIONS / f"{template_id.value}.txt").read_text(encoding="utf-8")
    stripped = re.sub(SLOT_PATTERN, "", raw)
    rendered = render_body(template.body, {slot: "" for slot in template.slots})
    assert rendered == stripped


def test_registry_is_complete():
    assert {t.value for t in TemplateId} == {
        "decompose",
        "edges",
        "rationale",
        "inference",
        "summarize",
        "hyperedges",
        "background",
        "decompose_plus",
        "judge",
    }
    for template_id in TemplateId:
        assert get_template(template_id).template_id is template_id


def test_unknown_template_rejected():
    with pytest.raises(UnknownTemplateError):
        get_template("riddle")


def test_unbound_slot_rejected():
    with pytest.raises(UnboundSlotError):
        render_prompt(TemplateId.DECOMPOSE, {})


def test_extra_bindings_ignored():
    text = render_prompt(TemplateId.DECOMPOSE, {"claim": "X.", "beside": "the point"})
    assert "X." in text
    assert "beside" not in text


def test_single_pass_substitution():
    # A value containing a slot marker must come through literally, not
    # get re-expanded against the other bindings.
    out = render_body("a {{x}} b", {"x": "{{x}}"})
    assert out == "a {{x}} b"
    out = render_body("{{x}} {{y}}", {"x": "{{y}}", "y": "2"})
    assert out == "{{y}} 2"


def test_rationale_prior_appears_twice():
    text = render_prompt(
        TemplateId.RATIONALE,
        {"sub_claim": "S", "prior_label": "false", "evidence": "E"},
    )
    assert text.count("false") >= 2
    assert "mixed with noise: E." in text


def test_inference_slots_in_order():
    template = get_template(TemplateId.INFERENCE)
    assert template.slots == ("node_content", "graph_structure", "label_set")


@pytest.mark.parametrize("template_id", list(TemplateId))
def test_render_prompt_without_none_equals_render_body(template_id):
    template = get_template(template_id)
    bindings = {slot: f"<{slot}>\nsecond line" for slot in template.slots}
    assert render_prompt(template_id, bindings) == render_body(template.body, bindings)


@pytest.mark.parametrize("template_id", list(TemplateId))
def test_render_prompt_still_rejects_an_unbound_slot(template_id):
    template = get_template(template_id)
    bindings = {slot: "x" for slot in template.slots[1:]}
    # A None elsewhere must not let the missing slot through.
    bindings["unrelated"] = None
    with pytest.raises(UnboundSlotError):
        render_prompt(template_id, bindings)


def test_render_prompt_drops_exactly_the_line_of_a_none_slot():
    bindings = {"node_content": "N1\nN2", "graph_structure": "S", "label_set": "{a, b}"}
    full = render_prompt(TemplateId.INFERENCE, bindings)
    without = render_prompt(TemplateId.INFERENCE, dict(bindings, graph_structure=None))
    assert without.split("\n") == [
        line for line in full.split("\n") if line != "# Graph Structure: S"
    ]
    assert len(without.split("\n")) == len(full.split("\n")) - 1
    # The last line goes together with the line break before it.
    block = render_prompt(TemplateId.INFERENCE, dict(bindings, label_set=None))
    assert block == full[: full.index("\n# Query (Q):")]
