"""The one JSON form of record parts, the one writer of files and the one checked reader.

Every file the program writes is replaced atomically by ``write_text`` (or
``write_json``); every JSON file it reads back goes through ``read_json``.
The one exception is an append-only JSON-lines log, such as the response
store's: ``append_json`` adds one compact line to it, and ``read_json_lines``
reads it back, skipping any line that does not decode.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import typing
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple, TypeVar, Union

T = TypeVar("T")
Error = Callable[[str], Exception]

_SCALARS = frozenset({str, int, float, bool, type(None)})

# The JSON types a value may have, each with the shape of its items (None: unchecked).
Shape = Tuple[Tuple[type, Optional["Shape"]], ...]


def _shape(hint) -> Shape:
    """What an annotation admits: a float admits an int, a tuple is a list, and
    ``List[X]``, ``Tuple[X, ...]`` and ``Dict[str, X]`` hold Xs."""
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin is Union:
        return sum(map(_shape, args), ())
    items = {list: args[:1], tuple: args[:1], dict: args[1:]}.get(origin)
    kinds = {float: (int, float), tuple: (list,)}.get(origin, (origin,))
    return tuple((kind, _shape(items[0]) if items else None) for kind in kinds)


@functools.lru_cache(maxsize=None)
def _fields(kind: type) -> Tuple[Tuple[str, Shape], ...]:
    """Each field of dataclass ``kind``: its name and the shape its annotation admits."""
    hints = typing.get_type_hints(kind)
    return tuple((f.name, _shape(hints[f.name])) for f in dataclasses.fields(kind))


def _misfit(shape: Shape, value) -> Optional[str]:
    """Why ``shape`` does not admit ``value``, or None; a bool is only a bool (or an object)."""
    for kind, items in shape:
        if isinstance(value, kind) and (type(value) is not bool or kind in (bool, object)):
            if items is not None:
                for key, item in value.items() if kind is dict else enumerate(value):
                    fault = _misfit(items, item)
                    if fault:
                        return f"item {key!r} {fault}"
            return None
    expected = " or ".join(kind.__name__ for kind, _items in shape)
    return f"must be {expected}, not {type(value).__name__}"


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
    return {name: as_json(getattr(value, name)) for name, _admits in _fields(kind)}


def checked_fields(kind: type, payload: dict, error: Error) -> dict:
    """The entries of ``payload`` that name fields of dataclass ``kind``.

    A value the field's annotation does not admit raises ``error`` naming
    the field, and the item for one inside a ``List[X]``, ``Tuple[X, ...]``
    or ``Dict[str, X]``. A float field admits an int; only a bool field
    admits a bool.
    """
    fields = {}
    for name, shape in _fields(kind):
        if name in payload:
            fault = _misfit(shape, payload[name])
            if fault:
                raise error(f"{kind.__name__} field {name!r} {fault}")
            fields[name] = payload[name]
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
    manifest, and a legacy response-store entry file (cache or fixture).
    """
    with unreadable(error, what, path):
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise TypeError(f"not a JSON object but {type(payload).__name__}")
        return decode(payload)


def read_json_lines(path: Union[str, Path], decode: Callable[[object], T]) -> List[T]:
    """Each line of the JSON-lines log at ``path`` decoded by ``decode``; a missing log has none.

    A line that does not parse or that ``decode`` refuses (ValueError or
    TypeError), such as the torn last line of an appender killed mid-write,
    is skipped.
    """
    try:
        lines = Path(path).read_bytes().splitlines()
    except FileNotFoundError:
        return []
    entries = []
    for line in lines:
        try:
            entries.append(decode(json.loads(line)))
        except (ValueError, TypeError):
            continue
    return entries


def sweep_temp_files(*directories: Path) -> None:
    """Remove the temp files that writers killed inside ``write_text`` left in ``directories``."""
    for directory in directories:
        for orphan in directory.glob("*.*.tmp"):
            orphan.unlink()


def write_text(path: Union[str, Path], text: str) -> None:
    """Replace ``path`` with ``text``; readers see the old file or the whole new one.

    The text goes to a new temp file ``<name>.<random>.tmp`` beside ``path``,
    which is renamed over it. The temp file is created exclusively, so
    concurrent writers of one path never share one, and with mode 0o666
    before umask, the permissions a plain write gives.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Union[str, Path], payload: object, indent: Optional[int] = None) -> None:
    """Write ``payload`` through ``write_text``: compact on one line, as records
    are, or indented by ``indent`` for documents people read."""
    separators = (",", ":") if indent is None else None
    write_text(path, json.dumps(payload, ensure_ascii=False, indent=indent, separators=separators))


def append_json(path: Union[str, Path], payload: object) -> None:
    """Append ``payload`` to the JSON-lines log at ``path`` as one compact line.

    The log is created by the first append, with mode 0o666 before umask,
    the permissions a plain write gives. The line goes out in one
    ``O_APPEND`` write, so concurrent appenders never split each other's
    lines; after a torn last line it starts on a fresh one.
    """
    line = json.dumps(payload, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        end = os.lseek(fd, 0, os.SEEK_END)
        torn = end > 0 and os.pread(fd, 1, end - 1) != b"\n"
        data = b"\n" * torn + line + b"\n"
        if os.write(fd, data) != len(data):
            raise OSError(f"short append to {path}")
    finally:
        os.close(fd)
