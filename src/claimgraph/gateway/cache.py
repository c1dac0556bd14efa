"""The one content-addressed response store: cache, fixture replay, totals.

A store is a directory holding one append-only log, ``responses.jsonl``,
and nothing else is read from it. Each stored reply is one compact JSON
line, ``[request_key, input_tokens, output_tokens, text]``. The log is read
once when the store is opened, into a dict that lookups use; an older line's
64-hex key is cut to the 32 of ``request_key``, so it still answers. A put of a key
the store does not hold appends its line through a ``jsonform.Appender``,
which holds the log open from the first put (its tail checked then) to
``close()``.

A line that does not decode, such as the torn last line of a writer killed
mid-append, is skipped: its entry is a miss, and a store opened after it
starts on a fresh line. A line glued onto a tail torn later never decodes
either, since the torn line leaves its array open. The gateway writes every
provider reply, replayed ones too, into its run directory's ``cache/``; a
copy of that directory is a fixture set that ``FixtureProvider`` replays.
"""
from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..errors import FixtureMissError
from ..jsonform import Appender, read_json_lines
from .ledger import TokenUsage
from .provider import GenerationRequest, GenerationResponse, request_key

LOG_NAME = "responses.jsonl"


def _from_line(line: object) -> Tuple[str, GenerationResponse]:
    """A log line, ``[request_key, input_tokens, output_tokens, text]``, as (key, reply)."""
    if type(line) is not list or [type(item) for item in line] != [str, int, int, str]:
        raise ValueError("not a [request_key, input_tokens, output_tokens, text] line")
    key, input_tokens, output_tokens, text = line
    return key[:32], GenerationResponse(text, TokenUsage(input_tokens, output_tokens))


def _entries(root: Path) -> Dict[str, GenerationResponse]:
    """Every reply in the log of the store at ``root``, by request key."""
    return dict(read_json_lines(root / LOG_NAME, _from_line))


class ResponseCache:
    """The store under ``root``, read once when it is opened.

    A request whose line was skipped is a miss, so the caller falls through
    to a fresh provider call, whose put logs the reply in its place.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._entries = _entries(self.root)
        self._lock = threading.Lock()
        self._log = Appender(self.root / LOG_NAME)

    def get(self, request: GenerationRequest) -> Optional[GenerationResponse]:
        reply = self._entries.get(request_key(request))
        if reply is None:
            return None
        return GenerationResponse(reply.text, reply.usage, cached=True)

    def put(self, request: GenerationRequest, response: GenerationResponse) -> None:
        key = request_key(request)
        with self._lock:
            if key in self._entries:
                return
            usage = response.usage
            self._log.append([key, usage.input_tokens, usage.output_tokens, response.text])
            self._entries[key] = response

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __len__(self) -> int:
        return len(self._entries)


class FixtureProvider:
    """Strict replay over a store, typically a copy of a recorded run's cache.

    Unknown requests raise FixtureMissError; nothing is fabricated. A request
    whose line was skipped is unknown too, and the log stays as it is on
    disk. ``call_count`` counts every ``generate`` call, hit or miss.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        if not self.root.is_dir():
            raise NotADirectoryError(f"path {root} is not a directory")
        self._entries = _entries(self.root)
        self.call_count = 0
        self._count_lock = threading.Lock()

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        with self._count_lock:
            self.call_count += 1
        key = request_key(request)
        reply = self._entries.get(key)
        if reply is None:
            raise FixtureMissError(
                f"no recorded response for request {key} "
                f"(prompt starts {request.prompt_text[:60]!r})"
            )
        return reply


def fixture_totals(root: Union[str, Path]) -> TokenUsage:
    """Sum the token counts over every reply in a store directory's log."""
    total = TokenUsage()
    for reply in _entries(Path(root)).values():
        total = total + reply.usage
    return total
