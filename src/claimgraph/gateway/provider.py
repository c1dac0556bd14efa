"""Text generation providers sharing one request/response contract.

A provider is anything with ``generate(request) -> GenerationResponse``.
Requests are identified by a stable content hash of (model_id, temperature,
prompt_text); the response store in ``cache.py`` keys on it. Fixture replay
(``FixtureProvider``) lives there too: a fixture set is a copy of a recorded
run's ``cache/`` directory.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Protocol

import requests

from ..errors import ProviderError, RetryableProviderError
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
    """sha256 of (model_id, prompt_text, temperature), the store's file name.

    ``max_output_tokens`` is left out: a run directory refuses a config with
    another hash unless forced, so the config fixes it for every request the
    run's cache sees and it cannot tell two of them apart.
    ``test_request_key_depends_on_identity_fields`` pins this.
    """
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


class HttpProvider:
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
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.session = session or requests.Session()

    def generate(self, request: GenerationRequest) -> GenerationResponse:
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
