"""External classifier adapters for the prediction step.

Wire contract (version 1): the request is a JSON object
``{"prompt_text": str, "labels": [str, ...]}``; the response is
``{"probabilities": [float, ...]}`` with one non-negative entry per label
summing to 1 within 1e-6. Violations raise AdapterContractError.
"""
from __future__ import annotations

import contextlib
import json
import math
import subprocess
import threading
import time
from typing import TYPE_CHECKING, Callable, List, Optional, Protocol, Sequence

from .errors import AdapterContractError
from .retry import full_jitter, new_session, post_json, with_retries

if TYPE_CHECKING:
    import requests

PROBABILITY_SUM_TOLERANCE = 1e-6


class ClassifierAdapter(Protocol):
    def predict(self, prompt_text: str, labels: List[str]) -> Sequence[float]: ...


def validate_probabilities(raw: Sequence[float], expected_length: int) -> List[float]:
    try:
        probs = [float(p) for p in raw]
    except (TypeError, ValueError) as exc:
        raise AdapterContractError(f"probabilities are not numeric: {exc}") from exc
    if len(probs) != expected_length:
        raise AdapterContractError(
            f"expected {expected_length} probabilities, got {len(probs)}"
        )
    check_distribution(probs, AdapterContractError)
    return probs


def check_distribution(probs: List[float], error: Callable[[str], Exception]) -> None:
    """Raise ``error`` unless ``probs`` are finite, non-negative and sum to 1."""
    if any(not math.isfinite(p) for p in probs):
        raise error("probabilities must be finite")
    if any(p < 0 for p in probs):
        raise error("probabilities must be non-negative")
    if abs(sum(probs) - 1.0) > PROBABILITY_SUM_TOLERANCE:
        raise error(
            f"probabilities sum to {sum(probs)!r}, not 1 within {PROBABILITY_SUM_TOLERANCE}"
        )


class StubAdapter:
    """Fixed probability source for tests and dry runs.

    It keeps whatever it is given, so tests can feed ``validate_probabilities``
    bad replies; a run's config is checked when its stub is built.
    """

    def __init__(self, probabilities: Sequence[float]) -> None:
        self._probabilities = list(probabilities)

    def predict(self, prompt_text: str, labels: List[str]) -> Sequence[float]:
        return list(self._probabilities)


def _reply_probabilities(payload: object) -> Sequence[float]:
    if not isinstance(payload, dict) or "probabilities" not in payload:
        raise AdapterContractError("adapter response lacks 'probabilities'")
    return payload["probabilities"]


class HttpAdapterClient:
    """POSTs the contract request to an HTTP endpoint.

    Transport errors, 429 and 5xx are retried (``claimgraph.retry``); any
    other failure is not. Every failure raises AdapterContractError.
    Without a ``session`` it makes one with ``claimgraph.retry.new_session``.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 60.0,
        session: Optional[requests.Session] = None,
        sleeper: Callable[[float], None] = time.sleep,
        jitter: Callable[[float], float] = full_jitter,
    ) -> None:
        self.url = url
        self.timeout = timeout
        self.session = session or new_session()
        self._sleep = sleeper
        self._jitter = jitter

    def predict(self, prompt_text: str, labels: List[str]) -> Sequence[float]:
        body = {"prompt_text": prompt_text, "labels": labels}
        payload = with_retries(
            lambda: post_json(self.session, self.url, body, self.timeout, AdapterContractError),
            AdapterContractError,
            self._sleep,
            self._jitter,
        )
        return _reply_probabilities(payload)


class LineAdapterClient:
    """Talks to a persistent subprocess over line-delimited JSON.

    One request object per stdin line; the process must answer with exactly
    one JSON line per request, in order.
    """

    def __init__(self, argv: Sequence[str]) -> None:
        if not argv:
            raise ValueError("argv must name a program")
        self.argv = list(argv)
        self._lock = threading.Lock()
        self._process: Optional[subprocess.Popen] = None

    def _ensure_process(self) -> subprocess.Popen:
        if self._process is None or self._process.poll() is not None:
            self._reap()
            self._process = subprocess.Popen(
                self.argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        return self._process

    def predict(self, prompt_text: str, labels: List[str]) -> Sequence[float]:
        request = json.dumps({"prompt_text": prompt_text, "labels": labels})
        with self._lock:
            process = self._ensure_process()
            try:
                assert process.stdin is not None and process.stdout is not None
                process.stdin.write(request + "\n")
                process.stdin.flush()
                line = process.stdout.readline()
            except (BrokenPipeError, OSError) as exc:
                raise AdapterContractError(f"adapter process failed: {exc}") from exc
        if not line:
            raise AdapterContractError("adapter process closed its output")
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise AdapterContractError(f"adapter line is not JSON: {exc}") from exc
        return _reply_probabilities(payload)

    def _reap(self) -> None:
        """Close the child's pipes, so it reads EOF, and wait for it to exit."""
        if self._process is not None:
            with contextlib.suppress(BrokenPipeError):  # it left a request unread
                self._process.stdin.close()
            self._process.wait(timeout=10)
            self._process.stdout.close()
            self._process = None

    def close(self) -> None:
        with self._lock:
            self._reap()
