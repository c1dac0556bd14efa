"""Veracity label schemes, scoring, mapping, and free-text label parsing.

Two schemes are supported: a three-way scheme (false / half / true) and a
six-way scheme (pants-fire through true). Labels are value objects tied to
their scheme; mixing schemes raises ``SchemeMismatchError``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .errors import SchemeMismatchError, UnparseableLabelError


@dataclass(frozen=True)
class VeracityScheme:
    """An ordered label set, least-true to most-true, with each label's score
    and ``aliases``, the (spelling, identifier) pairs some sources use.
    ``spellings``, the one lookup table, maps each identifier and alias to an index."""

    name: str
    labels: Tuple[str, ...]
    scores: Tuple[float, ...]
    aliases: Tuple[Tuple[str, str], ...] = ()
    spellings: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate label identifiers in scheme")
        spellings = {label: index for index, label in enumerate(self.labels)}
        spellings.update((alias, spellings[label]) for alias, label in self.aliases)
        object.__setattr__(self, "spellings", spellings)

    def __len__(self) -> int:
        return len(self.labels)

    def label(self, identifier: str) -> "VeracityLabel":
        return VeracityLabel.from_identifier(self, identifier)

    def all_labels(self) -> Tuple["VeracityLabel", ...]:
        return tuple(VeracityLabel(self, i) for i in range(len(self.labels)))

    def render_label_set(self) -> str:
        """Brace-delimited listing used verbatim in prompts, e.g. ``{false, half, true}``."""
        return "{" + ", ".join(self.labels) + "}"


# Some sources spell the middle three-way class "half-true".
THREE_WAY = VeracityScheme(
    "three_way", ("false", "half", "true"), (0.0, 2.5, 5.0), (("half-true", "half"),)
)
SIX_WAY = VeracityScheme(
    "six_way",
    ("pants-fire", "false", "barely-true", "half-true", "mostly-true", "true"),
    (0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
)

_SCHEMES = {s.name: s for s in (THREE_WAY, SIX_WAY)}


def scheme_by_name(name: str) -> VeracityScheme:
    try:
        return _SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown label scheme: {name!r}") from None


@dataclass(frozen=True)
class VeracityLabel:
    scheme: VeracityScheme
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < len(self.scheme):
            raise ValueError(f"label index {self.index} out of range for {self.scheme.name}")

    @property
    def identifier(self) -> str:
        return self.scheme.labels[self.index]

    @classmethod
    def from_identifier(cls, scheme: VeracityScheme, identifier: str) -> "VeracityLabel":
        index = scheme.spellings.get(identifier.strip().lower())
        if index is None:
            raise UnparseableLabelError(f"{identifier!r} is not a label of scheme {scheme.name}")
        return cls(scheme, index)

    def __str__(self) -> str:
        return self.identifier


def map_six_to_three(label: VeracityLabel) -> VeracityLabel:
    """Collapse a six-way label onto the three-way scheme.

    pants-fire, false, barely-true -> false; half-true -> half;
    mostly-true, true -> true.
    """
    if label.scheme.name != SIX_WAY.name:
        raise SchemeMismatchError("map_six_to_three expects a six_way label")
    return VeracityLabel(THREE_WAY, (0, 0, 0, 1, 2, 2)[label.index])


def label_to_score(label: VeracityLabel) -> float:
    """Numeric veracity score: 0/2.5/5 for three_way, ordinal 0..5 for six_way."""
    return label.scheme.scores[label.index]


def max_score(scheme: VeracityScheme) -> float:
    return max(scheme.scores)


def parse_label_string(text: str, scheme: VeracityScheme) -> VeracityLabel:
    """Resolve model output text to a label of ``scheme``.

    The whole string (after trimming whitespace and surrounding punctuation,
    case-insensitively) is tried as an exact identifier first. Otherwise the
    longest identifier or alias that occurs in the text as a standalone token
    wins, so "mostly-true" beats the "true" inside it.
    """
    normalized = text.strip().lower()
    exact = scheme.spellings.get(normalized.strip(" \t\r\n.,;:!?\"'()[]"))
    if exact is not None:
        return VeracityLabel(scheme, exact)
    # Longest-first substring pass; token boundaries keep "true" from
    # matching inside "untrue" or "mostly-true".
    for spelling in sorted(scheme.spellings, key=len, reverse=True):
        pattern = r"(?<![a-z0-9-])" + re.escape(spelling) + r"(?![a-z0-9-])"
        if re.search(pattern, normalized):
            return VeracityLabel(scheme, scheme.spellings[spelling])
    raise UnparseableLabelError(f"could not find a {scheme.name} label in {text!r}")
