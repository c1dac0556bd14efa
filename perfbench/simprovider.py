"""The benchmark's provider: the offline scripted responder behind a counter
and an optional simulated latency.

Latency is ``fixed_ms + per_output_token_ms * output_tokens`` of the scripted
reply. The reply is a pure function of the request, so the latency is too:
two runs over the same inputs sleep the same amounts, call for call.
"""
from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from claimgraph.gateway import GenerationRequest, GenerationResponse

# Simulated latency of the provider_bound and repeated_claims workloads.
FIXED_MS = 10.0
PER_OUTPUT_TOKEN_MS = 0.05


class CountingProvider:
    """Counts calls, tokens, busy time and in-flight calls across threads."""

    def __init__(
        self,
        fixed_ms: float = 0.0,
        per_output_token_ms: float = 0.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        # Imported here so the benchmark can check for the source first.
        from claimgraph.gateway.scripted import ScriptedResponder

        self._inner = ScriptedResponder()
        self.fixed_ms = fixed_ms
        self.per_output_token_ms = per_output_token_ms
        self._sleep = sleep
        self._lock = threading.Lock()
        self.calls = 0
        self.input_tokens = 0
        self.output_tokens = 0
        self.busy_s = 0.0
        self.in_flight = 0
        self.max_in_flight = 0

    def latency_s(self, response: GenerationResponse) -> float:
        return (self.fixed_ms + self.per_output_token_ms * response.usage.output_tokens) / 1000.0

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        started = time.perf_counter()
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            response = self._inner.generate(request)
            delay = self.latency_s(response)
            if delay > 0.0:
                self._sleep(delay)
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self.in_flight -= 1
                self.busy_s += elapsed
        with self._lock:
            self.calls += 1
            self.input_tokens += response.usage.input_tokens
            self.output_tokens += response.usage.output_tokens
        return response
