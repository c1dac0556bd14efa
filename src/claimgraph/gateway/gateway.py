"""Gateway facade: the one path through which prompts reach a provider.

Responsibilities: per-stage token accounting, optional response caching,
one provider call per in-flight request key, retries under the policy in
``claimgraph.retry``, a cap on concurrent in-flight provider calls, and
(``ask``) the one corrective re-ask loop, on one path for every provider.
"""
from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..errors import ClaimGraphError, ProviderUnavailableError
from ..retry import full_jitter, with_retries
from .cache import ResponseCache
from .ledger import Stage, TokenLedger
from .provider import GenerationRequest, GenerationResponse, Provider, request_key

T = TypeVar("T")


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
        max_in_flight: Optional[int] = None,
        sleeper: Callable[[float], None] = time.sleep,
        jitter: Callable[[float], float] = full_jitter,
    ) -> None:
        self.provider = provider
        self.ledger = ledger if ledger is not None else TokenLedger()
        self.cache = cache
        self.model_id = model_id
        self.generation_temperature = generation_temperature
        self.judge_temperature = judge_temperature
        self.max_output_tokens = max_output_tokens
        self._sleep = sleeper
        self._jitter = jitter
        # No cap of its own without max_in_flight: a run's is its provider_concurrency.
        self._in_flight = (
            nullcontext() if max_in_flight is None else threading.Semaphore(max_in_flight)
        )
        # Calls in flight by request key; a shallow copy shares the map and its lock.
        self._pending: Dict[str, Future] = {}
        self._pending_lock = threading.Lock()

    def build_request(self, prompt_text: str, stage: Stage) -> GenerationRequest:
        judge = stage == Stage.JUDGE
        return GenerationRequest(
            prompt_text=prompt_text,
            temperature=self.judge_temperature if judge else self.generation_temperature,
            model_id=self.model_id,
            max_output_tokens=self.max_output_tokens,
        )

    def complete(self, prompt_text: str, stage: Stage) -> GenerationResponse:
        """Send one prompt; returns the response and books its usage by stage.

        A cache hit returns the stored response without touching the provider
        or the ledger (zero new tokens). With a cache, a request whose
        ``request_key`` is already in flight on this gateway or a copy of it
        joins that call: it waits for its reply (or its error) and, like a
        hit, books nothing, so one reply is paid for once however its sends
        interleave. A replay (``FixtureProvider``) takes this path too, so it
        books and stores each distinct reply once, as its recording did.
        """
        request = self.build_request(prompt_text, stage)
        if self.cache is None:
            return self._spend(request, stage)
        key = request_key(request)
        with self._pending_lock:
            # Checked under the lock: a reply is stored before its call leaves _pending.
            hit = self.cache.get(request)
            if hit is not None:
                return hit
            flight = self._pending.get(key)
            leading = flight is None
            if leading:
                flight = self._pending[key] = Future()
        if not leading:
            return dataclasses.replace(flight.result(), cached=True)
        try:
            response = self._spend(request, stage)
            self.cache.put(request, response)
            flight.set_result(response)
            return response
        except BaseException as exc:
            flight.set_exception(exc)
            raise
        finally:
            with self._pending_lock:
                del self._pending[key]

    def _spend(self, request: GenerationRequest, stage: Stage) -> GenerationResponse:
        """One provider call, retried under the policy, booked in the ledger."""
        response = with_retries(
            lambda: self._generate(request), ProviderUnavailableError, self._sleep, self._jitter
        )
        self.ledger.record(stage, response.usage)
        return response

    def _generate(self, request: GenerationRequest) -> GenerationResponse:
        # One attempt holds one in-flight slot; backoff sleeps hold none.
        with self._in_flight:
            return self.provider.generate(request)


def ask(
    gateway: LlmGateway, prompt: str, stage: Stage, notes: Sequence[str], parse: Callable[[str], T]
) -> Tuple[Optional[T], List[Exception]]:
    """Send ``prompt``, then re-ask with each note in turn until ``parse`` takes a reply.

    Re-ask k sends ``prompt + notes[k - 1]`` under the same stage. Returns the
    taken value (or ``None``) and, in order, each ValueError or ClaimGraphError
    ``parse`` raised; whatever ``gateway.complete`` raises propagates at once.
    """
    rejections: List[Exception] = []
    for note in ("", *notes):
        response = gateway.complete(prompt + note, stage)
        try:
            return parse(response.text), rejections
        except (ValueError, ClaimGraphError) as exc:
            rejections.append(exc)
    return None, rejections
