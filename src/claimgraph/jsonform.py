"""The one JSON form of typed values each way, the one writer of files and the one checked reader.

Record parts, configs, exported graphs and the documents a run writes
(``report.json``, ``cost.json``, a manifest's ``expected_stats``) have one
encoder, ``as_json``, and one decoder, its inverse ``from_json``, which read
a dict's keys as they read its values and a ``TypedDict`` as a dataclass. A field
written under another key names it once, in ``field(metadata={"json": key})``.
A ``field(metadata={"rows": True})`` writes each of its parts (a dataclass or
``TypedDict`` of 2+ fields) as a row, the list of its fields' forms in order,
as a SQLite row leaves names to the schema, a part's own ``rows`` fields
included: an evidence set is ``[sub_claim_index, hits, k]``, each hit
``[report_index, sentence_index, text, similarity]`` (a run record then
writes the text as an index into its table of distinct texts,
``RunRecord.to_dict``). A part reads back from its row or, as older files
hold it, from the dict of its fields. A part that repeats fields of the
dataclass holding it names them in ``field(metadata={"shares": names})``:
they are written once, on the holder, and the part reads them back from
there, ignoring the copies an older file still holds in the part (a run
record's ``graph`` is written as ``{"edges": [...]}``).
Every file the program writes is replaced atomically by ``write_text``
(or ``write_json``); every JSON file it reads back goes through
``read_json``. The one exception is an append-only JSON-lines log, such as
the response store's: an ``Appender`` holds it open and adds one compact line
per ``append``, and ``read_json_lines`` reads it back, skipping any line that
does not decode. One writer at a time holds a directory (``locked``), so
``sweep_temp_files`` never removes a live writer's temp file.
"""
from __future__ import annotations

import dataclasses
import fcntl
import functools
import json
import operator
import os
import typing
import weakref
from contextlib import contextmanager
from decimal import Decimal
from enum import Enum, EnumMeta
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple, TypeVar, Union

T = TypeVar("T")
Error = Callable[[str], Exception]

_SCALARS = frozenset({str, int, float, bool, type(None)})


def as_json(value):
    """``value`` as plain JSON values: a dataclass becomes the dict of its
    fields, each under its JSON key, without the keys it ``shares`` with its
    holder and with a ``rows`` field's parts as rows, a tuple a list, an Enum its value
    and a Decimal its ``str``, recursively, a dict's keys included; scalars return at once."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is tuple or kind is list:
        return [as_json(item) for item in value]
    if kind is dict:
        return {as_json(key): as_json(item) for key, item in value.items()}
    if isinstance(value, Enum):
        return value.value
    if kind is Decimal:
        return str(value)
    form = {}
    for name, key, _of, _required, shared, row in _plan(kind)[2]:
        item = getattr(value, name)
        if row is not None:
            form[key] = _rows(row, item)
            continue
        item = form[key] = as_json(item)
        if shared and item is not None:
            for held in shared:
                del item[held]
    return form


def _rows(row: Callable, parts):
    """A ``rows`` field's ``parts``, a list or a dict of them, each as its ``row``."""
    if type(parts) is dict:
        return {as_json(key): row(part) for key, part in parts.items()}
    return [*map(row, parts)]


def _row(hint) -> Callable:
    """The writer of a part's row, its fields' JSON forms in declaration order,
    for a ``rows`` field of ``hint``; a field of the part marked ``rows`` writes rows too."""
    args = typing.get_args(hint)
    part = args[1] if typing.get_origin(hint) is dict else args[0]
    fields = _plan(part)[2]
    getter = operator.itemgetter if typing.is_typeddict(part) else operator.attrgetter
    values = getter(*(name for name, *_ in fields))
    rows = [f[5] for f in fields]
    return lambda part: [as_json(v) if row is None else _rows(row, v) for v, row in zip(values(part), rows)]


@functools.lru_cache(maxsize=None)
def _plan(hint, row: bool = False) -> tuple:
    """How ``from_json`` reads annotation ``hint``: ``(admits, build, inner)``.

    ``admits`` are its JSON types (a float admits an int, a tuple is a list, a
    dataclass or TypedDict a dict, or a list too as a ``rows`` part, ``row``, an
    Enum its values' types, a Decimal a str, ``object`` all), ``build`` what it
    becomes (None: itself) and ``inner`` the plans of its members or items, a dict's
    ``(keys, items)`` plans, an Enum's map of values to members, or each field's
    ``(name, key, plan, required, shares, row)``, its plan None if not passed back
    (``init=False``), its row a ``_row``."""
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin is Union:
        arms = tuple(_plan(arm, row) for arm in args)
        return sum((arm[0] for arm in arms), ()), Union, arms
    admits = (list, dict) if row else (dict,)
    if dataclasses.is_dataclass(origin):
        hints, missing = typing.get_type_hints(origin), dataclasses.MISSING
        return admits, origin, tuple(
            (f.name, f.metadata.get("json", f.name), _plan(hints[f.name], "rows" in f.metadata) if f.init else None,
             f.init and f.default is f.default_factory is missing, f.metadata.get("shares", ()),
             _row(hints[f.name]) if "rows" in f.metadata else None)
            for f in dataclasses.fields(origin)
        )
    if typing.is_typeddict(origin):
        return admits, origin, tuple(
            (name, name, _plan(hint), name in origin.__required_keys__, (), None)
            for name, hint in typing.get_type_hints(origin).items()
        )
    if isinstance(origin, EnumMeta):
        members = {member.value: member for member in origin}
        return tuple({type(value): None for value in members}), origin, members
    if origin is Decimal:
        return (str,), Decimal, None
    admits = {float: (int, float), tuple: (list,), object: (object, bool)}.get(origin, (origin,))
    if origin in (list, tuple, dict) and args:
        return admits, origin, (_plan(args[0]), _plan(args[1], row)) if origin is dict else _plan(args[0], row)
    return admits, None, None


def _fits(admits: Tuple[type, ...], value) -> bool:
    """Whether ``value``'s JSON type is one of ``admits``; a bool only where bool is."""
    return bool in admits if type(value) is bool else isinstance(value, admits)


def from_json(kind, value, error: Error = TypeError):
    """The ``kind`` whose ``as_json`` form is ``value``, rebuilt by its annotations.

    A dict's keys are decoded by its key annotation, and a ``TypedDict`` as a
    dataclass, by its required keys, into a plain dict. A ``rows`` part is read
    from the list of all its fields or, as older files hold it, the dict of
    them. A part's ``shares`` are read from its holder's keys. Keys naming no
    field or an ``init=False`` one are ignored, a ``Union`` takes its first
    member that admits the value and ``object`` is unchecked. A fault raises
    ``error`` with its path: ``RunRecord field 'evidence' item 0 field 'k'
    must be int, not str`` or ``RunRecord field 'verdicts' item 1 must hold 4
    items, not 3``.
    """
    return _decode(_plan(kind), value, kind.__name__, error)


def _decode(plan: tuple, value, path: str, error: Error):
    admits, build, inner = plan
    if not _fits(admits, value):
        expected = " or ".join(kind.__name__ for kind in admits)
        raise error(f"{path} must be {expected}, not {type(value).__name__}")
    if build is None:
        return value
    if build is Union:
        return _decode(next(arm for arm in inner if _fits(arm[0], value)), value, path, error)
    if build is list or build is tuple:
        items = [_decode(inner, v, f"{path} item {i!r}", error) for i, v in enumerate(value)]
        return items if build is list else tuple(items)
    if build is dict:
        keys, items = inner
        return {
            _decode(keys, k, f"{path} key {k!r}", error): _decode(items, v, f"{path} item {k!r}", error)
            for k, v in value.items()
        }
    if isinstance(build, EnumMeta):
        member = inner.get(value)
        if member is None:
            raise error(f"{path} must be a {build.__name__} value, not {value!r}")
        return member
    if build is Decimal:
        try:
            return Decimal(value)
        except ArithmeticError:
            raise error(f"{path} must be a decimal, not {value!r}") from None
    if type(value) is list:  # a row: the list of the part's fields, read as the dict of them
        if len(value) != len(inner):
            raise error(f"{path} must hold {len(inner)} items, not {len(value)}")
        value = {field[1]: item for field, item in zip(inner, value)}  # field[1]: its key
    fields = {}
    for name, key, field_plan, required, shared, _row_of in inner:
        if field_plan is None or key not in value:
            if required:
                raise error(f"{path} field {key!r} is missing")
        elif field_plan[1] is None and _fits(field_plan[0], value[key]):
            fields[name] = value[key]  # the common case: a leaf that fits needs no path
        else:
            item = value[key]
            if shared and type(item) is dict:
                item = dict(item, **{held: value[held] for held in shared if held in value})
            fields[name] = _decode(field_plan, item, f"{path} field {key!r}", error)
    return build(**fields)


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
    (``--config`` or a run's ``config.json``), a run record and a dataset
    manifest.
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


@contextmanager
def locked(error: Error, what: str, directory: Path) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``directory``; one held elsewhere raises ``error`` at once.

    A lock on the directory adds no file to it; the kernel drops it when its
    holder dies, so a killed writer leaves no stale lock."""
    directory.mkdir(parents=True, exist_ok=True)
    fd = os.open(directory, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise error(f"{what} {directory} is in use by another batch") from None
        yield
    finally:
        os.close(fd)


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


class Appender:
    """The one writer of a JSON-lines log, open from an ``append`` until ``close``.

    The first append creates the log with mode 0o666 before umask, the
    permissions a plain write gives, and checks its tail once: after a torn
    last line, the first line starts on a fresh one. Each line is one
    ``O_APPEND`` write, so appenders never split each other's lines; the
    caller serialises its own. A dropped appender closes its log (``weakref.finalize``).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._close: Optional[weakref.finalize] = None

    def append(self, payload: object) -> None:
        data = json.dumps(payload, ensure_ascii=False, separators=(",", ":")).encode() + b"\n"
        if self._close is None or not self._close.alive:
            self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            self._close = weakref.finalize(self, os.close, self._fd)
            end = os.lseek(self._fd, 0, os.SEEK_END)
            if end > 0 and os.pread(self._fd, 1, end - 1) != b"\n":
                data = b"\n" + data
        if os.write(self._fd, data) != len(data):
            raise OSError(f"short append to {self.path}")

    def close(self) -> None:
        if self._close is not None:
            self._close()
