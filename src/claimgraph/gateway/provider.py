"""Text generation providers sharing one request/response contract.

A provider is anything with ``generate(request) -> GenerationResponse``.
Requests are identified by a stable content hash of (model_id, temperature,
prompt_text); the response cache and the fixture replay store both key on it.
"""
from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol, Union

import requests

from ..atomic import write_text_atomic
from ..errors import FixtureMissError, ProviderError, RetryableProviderError
from .ledger import TokenUsage


def count_tokens(text: str) -> int:
    """Whitespace-delimited token count, used wherever no real tokenizer exists."""
    return len(text.split())


@dataclass(frozen=True)
class GenerationRequest:
    prompt_text: str
    temperature: float
    model_id: str
    max_output_tokens: Optional[int] = None


@dataclass(frozen=True)
class GenerationResponse:
    text: str
    usage: TokenUsage
    cached: bool = False


def request_key(request: GenerationRequest) -> str:
    payload = json.dumps(
        {
            "model_id": request.model_id,
            "prompt_text": request.prompt_text,
            "temperature": request.temperature,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Provider(Protocol):
    def generate(self, request: GenerationRequest) -> GenerationResponse: ...


class _CallCounting:
    """Mixin tracking how many generate() calls actually reached the provider."""

    def __init__(self) -> None:
        self._count_lock = threading.Lock()
        self._call_count = 0

    def _bump(self) -> None:
        with self._count_lock:
            self._call_count += 1

    @property
    def call_count(self) -> int:
        with self._count_lock:
            return self._call_count


class FixtureProvider(_CallCounting):
    """Replays recorded responses from a directory of per-request records.

    Each record is ``<sha256>.json`` holding the response text and token
    counts. Unknown requests raise FixtureMissError; nothing is fabricated.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        super().__init__()
        self.root = Path(root)

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        self._bump()
        key = request_key(request)
        path = self.root / f"{key}.json"
        if not path.exists():
            raise FixtureMissError(
                f"no recorded response for request {key} "
                f"(prompt starts {request.prompt_text[:60]!r})"
            )
        record = json.loads(path.read_text(encoding="utf-8"))
        return GenerationResponse(
            text=record["text"],
            usage=TokenUsage(record["input_tokens"], record["output_tokens"]),
        )


class RecordingProvider(_CallCounting):
    """Wraps a delegate provider and persists every response as a fixture record."""

    def __init__(self, delegate: Provider, root: Union[str, Path]) -> None:
        super().__init__()
        self.delegate = delegate
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        self._bump()
        key = request_key(request)
        path = self.root / f"{key}.json"
        if path.exists():
            record = json.loads(path.read_text(encoding="utf-8"))
            return GenerationResponse(
                text=record["text"],
                usage=TokenUsage(record["input_tokens"], record["output_tokens"]),
            )
        response = self.delegate.generate(request)
        record = {
            "request_sha256": key,
            "model_id": request.model_id,
            "temperature": request.temperature,
            "prompt_text": request.prompt_text,
            "text": response.text,
            "input_tokens": response.usage.input_tokens,
            "output_tokens": response.usage.output_tokens,
        }
        write_text_atomic(path, json.dumps(record, ensure_ascii=False, indent=2))
        return response


def fixture_totals(root: Union[str, Path]) -> TokenUsage:
    """Sum the token counts over every record in a fixture directory."""
    total = TokenUsage()
    for path in sorted(Path(root).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        total = total + TokenUsage(record["input_tokens"], record["output_tokens"])
    return total


class HttpProvider(_CallCounting):
    """Client for an OpenAI-style chat completions endpoint.

    Transient transport problems (connection errors, timeouts, 429, 5xx)
    surface as RetryableProviderError so the gateway can back off and retry.
    """

    def __init__(
        self,
        base_url: str,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
        session: Optional[requests.Session] = None,
    ) -> None:
        super().__init__()
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.session = session or requests.Session()

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        self._bump()
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = {
            "model": request.model_id,
            "messages": [{"role": "user", "content": request.prompt_text}],
            "temperature": request.temperature,
        }
        if request.max_output_tokens is not None:
            body["max_tokens"] = request.max_output_tokens
        try:
            resp = self.session.post(
                f"{self.base_url}/chat/completions",
                json=body,
                headers=headers,
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise RetryableProviderError(f"transport failure: {exc}") from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            raise RetryableProviderError(f"provider returned HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise ProviderError(f"provider returned HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            payload = resp.json()
            text = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed provider payload: {exc}") from exc
        usage = payload.get("usage") or {}
        input_tokens = usage.get("prompt_tokens", count_tokens(request.prompt_text))
        output_tokens = usage.get("completion_tokens", count_tokens(text))
        return GenerationResponse(text=text, usage=TokenUsage(input_tokens, output_tokens))
