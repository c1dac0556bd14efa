"""The one retry policy and HTTP failure classification for outside services.

This is the one module that loads the HTTP stack. ``requests`` is imported
on a client's first session (``new_session``) or post (``post_json``), never
at module level, so scripted and fixture runs never load it.
"""
from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Optional, Type, TypeVar

from .errors import ClaimGraphError, ProviderError, RetryableProviderError

MAX_ATTEMPTS = 3
BACKOFF_BASE = 0.5  # seconds, the ceiling of the first backoff; doubled before each later one

if TYPE_CHECKING:
    import requests

T = TypeVar("T")


def new_session() -> requests.Session:
    """A new ``requests.Session``; the HTTP clients' default session."""
    import requests

    return requests.Session()


def full_jitter(ceiling: float) -> float:
    """A sleep drawn uniformly from [0, ``ceiling``] seconds: Brooker's "full jitter"."""
    return random.uniform(0.0, ceiling)


def with_retries(
    attempt: Callable[[], T],
    give_up: Type[ClaimGraphError],
    sleeper: Callable[[float], None],
    jitter: Callable[[float], float] = full_jitter,
) -> T:
    """Call ``attempt`` until it returns, retrying only RetryableProviderError.

    Before attempt k + 1 it sleeps ``jitter(BACKOFF_BASE * 2 ** (k - 1))``, a
    draw from [0, that ceiling], so callers rejected at once do not retry in
    lockstep; the failure's ``retry_after``, when set, is a floor on the
    sleep. After ``MAX_ATTEMPTS`` failures, raises ``give_up`` from the last one.
    """
    for number in range(MAX_ATTEMPTS):
        if number:
            sleeper(max(jitter(BACKOFF_BASE * 2 ** (number - 1)), last_error.retry_after or 0.0))
        try:
            return attempt()
        except RetryableProviderError as exc:
            last_error = exc
    raise give_up(f"failed after {MAX_ATTEMPTS} attempts: {last_error}") from last_error


def _delay_seconds(value: Optional[str]) -> Optional[float]:
    """A ``Retry-After`` value in delta-seconds (RFC 9110 section 10.2.3); None for
    an HTTP-date, which sets no floor, or a malformed value."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


def post_json(
    session: requests.Session,
    url: str,
    body: object,
    timeout: float,
    error: Type[ClaimGraphError] = ProviderError,
    headers: Optional[dict] = None,
) -> object:
    """POST ``body`` as JSON and return the decoded reply.

    Transport errors, 429 and 5xx raise RetryableProviderError, whose
    ``retry_after`` a 429 or 503 reply's ``Retry-After`` header sets when it
    gives delta-seconds; any other status but 200, or a reply that is not
    JSON, raises ``error``.
    """
    import requests

    try:
        resp = session.post(url, json=body, headers=headers, timeout=timeout)
    except requests.RequestException as exc:
        raise RetryableProviderError(f"transport failure: {exc}") from exc
    if resp.status_code == 429 or resp.status_code >= 500:
        retry_after = None
        if resp.status_code in (429, 503):
            retry_after = _delay_seconds(resp.headers.get("Retry-After"))
        raise RetryableProviderError(f"{url} returned HTTP {resp.status_code}", retry_after)
    if resp.status_code != 200:
        raise error(f"{url} returned HTTP {resp.status_code}: {resp.text[:200]}")
    try:
        return resp.json()
    except ValueError as exc:
        raise error(f"{url} returned a reply that is not JSON: {exc}") from exc
