"""Gateway facade: the one path through which prompts reach a provider.

Responsibilities: per-stage token accounting, optional response caching,
bounded retries with exponential backoff, and a cap on concurrent in-flight
provider calls.
"""
from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..errors import ProviderUnavailableError, RetryableProviderError
from .cache import ResponseCache
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
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.provider = provider
        self.ledger = ledger if ledger is not None else TokenLedger()
        self.cache = cache
        self.model_id = model_id
        self.generation_temperature = generation_temperature
        self.judge_temperature = judge_temperature
        self.max_output_tokens = max_output_tokens
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._sleep = sleeper
        self._in_flight = threading.Semaphore(max_in_flight)

    def temperature_for(self, stage: Stage) -> float:
        if Stage(stage) is Stage.JUDGE:
            return self.judge_temperature
        return self.generation_temperature

    def build_request(
        self, prompt_text: str, stage: Stage, temperature: Optional[float] = None
    ) -> GenerationRequest:
        return GenerationRequest(
            prompt_text=prompt_text,
            temperature=self.temperature_for(stage) if temperature is None else temperature,
            model_id=self.model_id,
            max_output_tokens=self.max_output_tokens,
        )

    def complete(
        self,
        prompt_text: str,
        stage: Stage,
        temperature: Optional[float] = None,
    ) -> GenerationResponse:
        """Send one prompt; returns the response and books its usage by stage.

        A cache hit returns the stored response without touching the provider
        or the ledger (zero new tokens).
        """
        stage = Stage(stage)
        request = self.build_request(prompt_text, stage, temperature)
        if self.cache is not None:
            hit = self.cache.get(request)
            if hit is not None:
                return hit
        response = self._generate_with_retries(request)
        self.ledger.record(stage, response.usage)
        if self.cache is not None:
            self.cache.put(request, response)
        return response

    def _generate_with_retries(self, request: GenerationRequest) -> GenerationResponse:
        last_error: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            if attempt > 0:
                self._sleep(self.backoff_base * (2 ** (attempt - 1)))
            try:
                with self._in_flight:
                    return self.provider.generate(request)
            except RetryableProviderError as exc:
                last_error = exc
        raise ProviderUnavailableError(
            f"provider failed after {self.max_attempts} attempts: {last_error}"
        ) from last_error
