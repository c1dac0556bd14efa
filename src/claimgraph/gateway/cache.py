"""Content-addressed on-disk cache for generation responses."""
from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from ..atomic import write_text_atomic
from .ledger import TokenUsage
from .provider import GenerationRequest, GenerationResponse, request_key


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
            record = json.loads(path.read_text(encoding="utf-8"))
            text = record["text"]
            usage = TokenUsage(int(record["input_tokens"]), int(record["output_tokens"]))
            if not isinstance(text, str):
                raise TypeError("text field is not a string")
        except (ValueError, TypeError, KeyError, OSError):
            # Evict and treat as a miss.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return GenerationResponse(text=text, usage=usage, cached=True)

    def put(self, request: GenerationRequest, response: GenerationResponse) -> None:
        record = {
            "model_id": request.model_id,
            "temperature": request.temperature,
            "text": response.text,
            "input_tokens": response.usage.input_tokens,
            "output_tokens": response.usage.output_tokens,
        }
        write_text_atomic(self._path(request), json.dumps(record, ensure_ascii=False))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
