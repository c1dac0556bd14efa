"""Text generation plumbing: prompt registry, providers, cache, token ledger."""

from .prompts import TemplateId, PromptTemplate, get_template, render_prompt, render_body
from .ledger import Stage, TokenUsage, TokenLedger, Pricing
from .provider import (
    GenerationRequest,
    GenerationResponse,
    request_key,
    HttpProvider,
    count_tokens,
)
from .cache import FixtureProvider, ResponseCache, fixture_totals
from .gateway import LlmGateway, ask

__all__ = [
    "TemplateId",
    "PromptTemplate",
    "get_template",
    "render_prompt",
    "render_body",
    "Stage",
    "TokenUsage",
    "TokenLedger",
    "Pricing",
    "GenerationRequest",
    "GenerationResponse",
    "request_key",
    "HttpProvider",
    "FixtureProvider",
    "count_tokens",
    "fixture_totals",
    "ResponseCache",
    "LlmGateway",
    "ask",
]
