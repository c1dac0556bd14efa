import pytest
from hypothesis import given, strategies as st

from claimgraph.errors import SchemeMismatchError, UnparseableLabelError
from claimgraph.labels import (
    SIX_WAY,
    THREE_WAY,
    VeracityLabel,
    label_to_score,
    map_six_to_three,
    max_score,
    parse_label_string,
    scheme_by_name,
)

schemes = st.sampled_from([THREE_WAY, SIX_WAY])


def test_scheme_registry():
    assert scheme_by_name("three_way") is THREE_WAY
    assert scheme_by_name("six_way") is SIX_WAY
    with pytest.raises(ValueError):
        scheme_by_name("nine_way")


def test_label_set_rendering():
    assert THREE_WAY.render_label_set() == "{false, half, true}"
    assert SIX_WAY.render_label_set() == (
        "{pants-fire, false, barely-true, half-true, mostly-true, true}"
    )


def test_three_way_scores():
    assert label_to_score(THREE_WAY.label("false")) == 0.0
    assert label_to_score(THREE_WAY.label("half")) == 2.5
    assert label_to_score(THREE_WAY.label("true")) == 5.0
    assert max_score(THREE_WAY) == 5.0


def test_six_way_scores_are_ordinal():
    scores = [label_to_score(lbl) for lbl in SIX_WAY.all_labels()]
    assert scores == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert max_score(SIX_WAY) == 5.0


def test_map_six_to_three_covers_every_label():
    expected = {
        "pants-fire": "false",
        "false": "false",
        "barely-true": "false",
        "half-true": "half",
        "mostly-true": "true",
        "true": "true",
    }
    for six_ident, three_ident in expected.items():
        mapped = map_six_to_three(SIX_WAY.label(six_ident))
        assert mapped.scheme is THREE_WAY
        assert mapped.identifier == three_ident


def test_map_six_to_three_rejects_other_schemes():
    with pytest.raises(SchemeMismatchError):
        map_six_to_three(THREE_WAY.label("half"))


def test_half_true_alias_resolves_in_three_way():
    assert VeracityLabel.from_identifier(THREE_WAY, "half-true").identifier == "half"
    assert parse_label_string("half-true", THREE_WAY).identifier == "half"


def test_half_true_alias_resolves_inside_three_way_prose():
    for text in ("The claim is half-true.", "Label: half-true", "HALF-TRUE, mostly"):
        assert parse_label_string(text, THREE_WAY).identifier == "half"
    # Only the alias is a spelling of a three-way label; other six-way names are not.
    with pytest.raises(UnparseableLabelError):
        parse_label_string("mostly-true", THREE_WAY)
    with pytest.raises(UnparseableLabelError):
        parse_label_string("The claim is mostly-true.", THREE_WAY)
    # Six-way has no aliases, so its prose parsing is unchanged.
    assert parse_label_string("The claim is half-true.", SIX_WAY).identifier == "half-true"
    assert parse_label_string("Label: barely-true", SIX_WAY).identifier == "barely-true"


def test_parse_exact_with_punctuation():
    assert parse_label_string("  True. ", THREE_WAY).identifier == "true"
    assert parse_label_string('"pants-fire"', SIX_WAY).identifier == "pants-fire"


def test_parse_prefers_longer_identifier_inside_prose():
    text = "I would say the label is mostly-true."
    assert parse_label_string(text, SIX_WAY).identifier == "mostly-true"
    # "true" alone must not win over the hyphenated form it is embedded in.
    assert parse_label_string("Verdict: barely-true", SIX_WAY).identifier == "barely-true"


def test_parse_respects_token_boundaries():
    with pytest.raises(UnparseableLabelError):
        parse_label_string("untrue statement", THREE_WAY)
    with pytest.raises(UnparseableLabelError):
        parse_label_string("no verdict here", THREE_WAY)


@given(schemes, st.data())
def test_every_identifier_round_trips_through_parse(scheme, data):
    ident = data.draw(st.sampled_from(scheme.labels))
    assert parse_label_string(f"The label is {ident}.", scheme).identifier == ident


@given(schemes, st.data())
def test_scores_are_monotone_in_scheme_order(scheme, data):
    i = data.draw(st.integers(0, len(scheme.labels) - 2))
    lower = label_to_score(scheme.label(scheme.labels[i]))
    upper = label_to_score(scheme.label(scheme.labels[i + 1]))
    assert lower < upper


SCORES = {
    "three_way": {"false": 0.0, "half": 2.5, "true": 5.0},
    "six_way": {
        "pants-fire": 0.0, "false": 1.0, "barely-true": 2.0,
        "half-true": 3.0, "mostly-true": 4.0, "true": 5.0,
    },
}


@pytest.mark.parametrize("scheme, half_true", [(THREE_WAY, "half"), (SIX_WAY, "half-true")])
def test_each_scheme_reads_its_own_scores_and_aliases(scheme, half_true):
    scores = {label.identifier: label_to_score(label) for label in scheme.all_labels()}
    assert scores == SCORES[scheme.name]
    assert max_score(scheme) == 5.0
    assert VeracityLabel.from_identifier(scheme, "half-true").identifier == half_true
    assert parse_label_string("half-true", scheme).identifier == half_true
    for ident in scheme.labels:
        assert VeracityLabel.from_identifier(scheme, f" {ident.upper()} ").identifier == ident
        assert parse_label_string(ident, scheme).identifier == ident
