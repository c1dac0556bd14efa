"""Text generation providers sharing one request/response contract.

A provider is anything with ``generate(request) -> GenerationResponse``.
Requests are identified by a stable content hash of (model_id, temperature,
prompt_text), 128 bits of sha256; the response store in ``cache.py`` keys on it. Fixture replay
(``FixtureProvider``) lives there too: a fixture set is a copy of a recorded
run's ``cache/`` directory.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol

from ..errors import ProviderError
from ..retry import new_session, post_json
from .ledger import TokenUsage

if TYPE_CHECKING:
    import requests


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
    """The first 32 hex (128 bits) of the sha256 of (model_id, prompt_text, temperature), a reply's key.

    ``max_output_tokens`` is left out: a run directory refuses a config whose
    ``max_output_tokens`` differs from its ``config.json``, so it is fixed for
    every request the run's cache sees and cannot tell two of them apart.
    ``test_request_key_depends_on_identity_fields`` pins this. Hashed once per
    request, kept in its ``__dict__`` (a ``cached_property``'s one lock before
    Python 3.12 would queue every request's first use).
    """
    key = request.__dict__.get("_key")
    if key is None:
        payload = json.dumps(
            {
                "model_id": request.model_id,
                "prompt_text": request.prompt_text,
                "temperature": request.temperature,
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        key = request.__dict__["_key"] = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]
    return key


class Provider(Protocol):
    def generate(self, request: GenerationRequest) -> GenerationResponse: ...


class HttpProvider:
    """Client for an OpenAI-style chat completions endpoint.

    Failures are sorted by ``claimgraph.retry.post_json``: connection errors,
    timeouts, 429 and 5xx raise RetryableProviderError, which the gateway
    retries; any other status or a malformed payload raises ProviderError.
    Without a ``session`` it makes one with ``claimgraph.retry.new_session``.
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
        self.session = session or new_session()

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        body = {
            "model": request.model_id,
            "messages": [{"role": "user", "content": request.prompt_text}],
            "temperature": request.temperature,
        }
        if request.max_output_tokens is not None:
            body["max_tokens"] = request.max_output_tokens
        url = f"{self.base_url}/chat/completions"
        payload = post_json(self.session, url, body, self.timeout, headers=headers)
        try:
            text = payload["choices"][0]["message"]["content"]
            if type(text) is not str:
                raise TypeError(f"content is {type(text).__name__}, not str")
            usage = payload.get("usage") or {}
            input_tokens = usage.get("prompt_tokens", count_tokens(request.prompt_text))
            output_tokens = usage.get("completion_tokens", count_tokens(text))
            if any(type(n) is not int or n < 0 for n in (input_tokens, output_tokens)):
                raise TypeError(f"token counts {input_tokens!r}, {output_tokens!r} are not counts")
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ProviderError(f"malformed provider payload: {exc}") from exc
        return GenerationResponse(text=text, usage=TokenUsage(input_tokens, output_tokens))
