"""The one JSON form of record parts, and the one checked reader of JSON files."""
from __future__ import annotations

import dataclasses
import functools
import json
import typing
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Tuple, TypeVar, Union

T = TypeVar("T")
Error = Callable[[str], Exception]

_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.lru_cache(maxsize=None)
def _fields(kind: type) -> Tuple[Tuple[str, tuple], ...]:
    """Each field of dataclass ``kind``: its name and the JSON types its annotation admits."""

    def json_types(hint) -> tuple:
        origin = typing.get_origin(hint) or hint
        if origin is Union:
            return sum(map(json_types, typing.get_args(hint)), ())
        return {float: (int, float), tuple: (list,)}.get(origin, (origin,))

    hints = typing.get_type_hints(kind)
    return tuple((f.name, json_types(hints[f.name])) for f in dataclasses.fields(kind))


def as_json(value):
    """``value`` as plain JSON values: a dataclass becomes the dict of its
    fields and a tuple a list, recursively; scalars return at once."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is tuple or kind is list:
        return [as_json(item) for item in value]
    if kind is dict:
        return {key: as_json(item) for key, item in value.items()}
    return {name: as_json(getattr(value, name)) for name, _types in _fields(kind)}


def checked_fields(kind: type, payload: dict, error: Error) -> dict:
    """The entries of ``payload`` that name fields of dataclass ``kind``.

    A value whose JSON type the field's annotation does not admit raises
    ``error`` naming the field. A float field admits an int; only a bool
    field admits a bool.
    """
    fields = {}
    for name, allowed in _fields(kind):
        if name in payload:
            value = fields[name] = payload[name]
            if not isinstance(value, allowed) or (type(value) is bool and bool not in allowed):
                expected = " or ".join(t.__name__ for t in allowed)
                got = type(value).__name__
                raise error(f"{kind.__name__} field {name!r} must be {expected}, not {got}")
    return fields


@contextmanager
def unreadable(error: Error, what: str, where: object) -> Iterator[None]:
    """Raise a fault of the document read inside as ``error("unreadable <what> <where>: <cause>")``."""
    try:
        yield
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise error(f"unreadable {what} {where}: {exc}") from exc


def read_json(path: Union[str, Path], error: Error, what: str, decode: Callable[[dict], T]) -> T:
    """The JSON object in ``path``, decoded by ``decode``; a fault raises ``error`` (``unreadable``).

    Every JSON file the program reads back comes through here: a config
    (``--config`` or a run's ``config.json``), a run record, a dataset
    manifest, and a response-store entry (cache or fixture).
    """
    with unreadable(error, what, path):
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise TypeError(f"not a JSON object but {type(payload).__name__}")
        return decode(payload)
