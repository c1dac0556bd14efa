"""The one retry policy and HTTP failure classification for outside services."""
from __future__ import annotations

from typing import Callable, Optional, Type, TypeVar

import requests

from .errors import ClaimGraphError, ProviderError, RetryableProviderError

MAX_ATTEMPTS = 3
BACKOFF_BASE = 0.5  # seconds before the second attempt, doubled before each later one

T = TypeVar("T")


def with_retries(
    attempt: Callable[[], T], give_up: Type[ClaimGraphError], sleeper: Callable[[float], None]
) -> T:
    """Call ``attempt`` until it returns, retrying only RetryableProviderError.

    After ``MAX_ATTEMPTS`` failures, raises ``give_up`` from the last one.
    """
    for number in range(MAX_ATTEMPTS):
        if number:
            sleeper(BACKOFF_BASE * 2 ** (number - 1))
        try:
            return attempt()
        except RetryableProviderError as exc:
            last_error = exc
    raise give_up(f"failed after {MAX_ATTEMPTS} attempts: {last_error}") from last_error


def post_json(
    session: requests.Session,
    url: str,
    body: object,
    timeout: float,
    error: Type[ClaimGraphError] = ProviderError,
    headers: Optional[dict] = None,
) -> object:
    """POST ``body`` as JSON and return the decoded reply.

    Transport errors, 429 and 5xx raise RetryableProviderError; any other
    status but 200, or a reply that is not JSON, raises ``error``.
    """
    try:
        resp = session.post(url, json=body, headers=headers, timeout=timeout)
    except requests.RequestException as exc:
        raise RetryableProviderError(f"transport failure: {exc}") from exc
    if resp.status_code == 429 or resp.status_code >= 500:
        raise RetryableProviderError(f"{url} returned HTTP {resp.status_code}")
    if resp.status_code != 200:
        raise error(f"{url} returned HTTP {resp.status_code}: {resp.text[:200]}")
    try:
        return resp.json()
    except ValueError as exc:
        raise error(f"{url} returned a reply that is not JSON: {exc}") from exc
