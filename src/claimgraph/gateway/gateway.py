"""Gateway facade: the one path through which prompts reach a provider.

Responsibilities: per-stage token accounting, optional response caching,
retries under the policy in ``claimgraph.retry``, and a cap on concurrent
in-flight provider calls.
"""
from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..errors import ProviderUnavailableError
from ..retry import with_retries
from .cache import FixtureProvider, ResponseCache
from .ledger import Stage, TokenLedger
from .provider import GenerationRequest, GenerationResponse, Provider


class LlmGateway:
    def __init__(
        self,
        provider: Provider,
        ledger: Optional[TokenLedger] = None,
        cache: Optional[ResponseCache] = None,
        model_id: str = "default-model",
        generation_temperature: float = 0.8,
        judge_temperature: float = 0.0,
        max_output_tokens: Optional[int] = 1024,
        max_in_flight: int = 8,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        self.provider = provider
        self.ledger = ledger if ledger is not None else TokenLedger()
        self.cache = cache
        self.model_id = model_id
        self.generation_temperature = generation_temperature
        self.judge_temperature = judge_temperature
        self.max_output_tokens = max_output_tokens
        self._sleep = sleeper
        self._in_flight = threading.Semaphore(max_in_flight)

    def build_request(self, prompt_text: str, stage: Stage) -> GenerationRequest:
        judge = Stage(stage) is Stage.JUDGE
        return GenerationRequest(
            prompt_text=prompt_text,
            temperature=self.judge_temperature if judge else self.generation_temperature,
            model_id=self.model_id,
            max_output_tokens=self.max_output_tokens,
        )

    def complete(self, prompt_text: str, stage: Stage) -> GenerationResponse:
        """Send one prompt; returns the response and books its usage by stage.

        A cache hit returns the stored response without touching the provider
        or the ledger (zero new tokens). A reply replayed by a
        ``FixtureProvider`` is already stored, so it is not cached again.
        """
        stage = Stage(stage)
        request = self.build_request(prompt_text, stage)
        if self.cache is not None:
            hit = self.cache.get(request)
            if hit is not None:
                return hit
        response = with_retries(
            lambda: self._generate(request), ProviderUnavailableError, self._sleep
        )
        self.ledger.record(stage, response.usage)
        if self.cache is not None and not isinstance(self.provider, FixtureProvider):
            self.cache.put(request, response)
        return response

    def _generate(self, request: GenerationRequest) -> GenerationResponse:
        # One attempt holds one in-flight slot; backoff sleeps hold none.
        with self._in_flight:
            return self.provider.generate(request)
