"""The one content-addressed response store: cache, fixture replay, totals.

A store is a directory of ``<request_key>.json`` records, each holding
``model_id``, ``temperature``, ``text``, ``input_tokens`` and
``output_tokens`` (extra fields are ignored). The gateway writes every
provider reply into its run directory's ``cache/``; a copy of that directory
is a fixture set that ``FixtureProvider`` replays.
"""
from __future__ import annotations

import threading
from pathlib import Path
from typing import Optional, Union

from ..errors import FixtureMissError, ProviderError
from ..jsonform import read_json, write_json
from .ledger import TokenUsage
from .provider import GenerationRequest, GenerationResponse, request_key

def _load(path: Path, cached: bool = False) -> GenerationResponse:
    """One stored record; an unusable one raises ProviderError naming the file."""

    def decode(record: dict) -> GenerationResponse:
        text = record["text"]
        if not isinstance(text, str):
            raise TypeError("text field is not a string")
        usage = TokenUsage(int(record["input_tokens"]), int(record["output_tokens"]))
        return GenerationResponse(text=text, usage=usage, cached=cached)

    return read_json(path, ProviderError, "stored response", decode)


class ResponseCache:
    """One JSON file per request hash under ``root``.

    A corrupted entry (unreadable JSON, missing fields, negative counts) is
    evicted on read so the caller falls through to a fresh provider call.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, request: GenerationRequest) -> Path:
        return self.root / f"{request_key(request)}.json"

    def get(self, request: GenerationRequest) -> Optional[GenerationResponse]:
        path = self._path(request)
        if not path.exists():
            return None
        try:
            return _load(path, cached=True)
        except ProviderError:
            # Evict and treat as a miss.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, request: GenerationRequest, response: GenerationResponse) -> None:
        record = {
            "model_id": request.model_id,
            "temperature": request.temperature,
            "text": response.text,
            "input_tokens": response.usage.input_tokens,
            "output_tokens": response.usage.output_tokens,
        }
        write_json(self._path(request), record)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


class FixtureProvider:
    """Strict replay over a store, typically a copy of a recorded run's cache.

    Unknown requests raise FixtureMissError; nothing is fabricated. An
    unusable record raises ProviderError naming the file and stays on disk.
    ``call_count`` counts every ``generate`` call, hit or miss.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.call_count = 0
        self._count_lock = threading.Lock()

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        with self._count_lock:
            self.call_count += 1
        key = request_key(request)
        path = self.root / f"{key}.json"
        if not path.is_file():
            raise FixtureMissError(
                f"no recorded response for request {key} "
                f"(prompt starts {request.prompt_text[:60]!r})"
            )
        return _load(path)


def fixture_totals(root: Union[str, Path]) -> TokenUsage:
    """Sum the token counts over every record in a store directory."""
    total = TokenUsage()
    for path in sorted(Path(root).glob("*.json")):
        total = total + _load(path).usage
    return total
