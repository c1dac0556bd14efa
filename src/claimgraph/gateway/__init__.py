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
