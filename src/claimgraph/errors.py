"""Exception hierarchy shared across the pipeline."""


class ClaimGraphError(Exception):
    """Base class for all errors raised by this package."""


class SchemeMismatchError(ClaimGraphError):
    """Two labels (or a label and an operation) disagree on the label scheme."""


class UnparseableLabelError(ClaimGraphError):
    """Free text could not be resolved to a label of the requested scheme."""


class UnboundSlotError(ClaimGraphError):
    """A prompt template was rendered without a binding for one of its slots."""


class UnknownTemplateError(ClaimGraphError):
    """Requested prompt template id is not in the registry."""


class ProviderError(ClaimGraphError):
    """Base class for text generation provider failures."""


class RetryableProviderError(ProviderError):
    """Transport error, HTTP 429 or 5xx: the one failure ``retry.with_retries`` retries."""


class ProviderUnavailableError(ProviderError):
    """Provider kept failing transiently through every attempt of the retry policy."""


class FixtureMissError(ProviderError):
    """Replay provider has no recorded response for the request."""


class DecompositionError(ClaimGraphError):
    """Claim decomposition kept returning fewer than two sub-claims."""


class EdgeParseError(ClaimGraphError):
    """No recognizable edge list in an edge-generation response."""


class HyperedgeParseError(ClaimGraphError):
    """No recognizable hyperedge list after the allowed re-prompts."""


class GraphStructureError(ClaimGraphError):
    """A claim-centered graph violates its structural invariants."""


class EmbeddingError(ClaimGraphError):
    """Embedding provider failed or returned vectors of the wrong shape."""


class ExplanationError(ClaimGraphError):
    """Explanation generation returned empty text after the allowed retry."""


class AssemblyError(ClaimGraphError):
    """Inference prompt assembly is missing required per-node material."""


class PredictionError(ClaimGraphError):
    """Veracity prediction failed after the allowed re-prompt."""


class AdapterContractError(ClaimGraphError):
    """External classifier adapter violated the probability wire contract."""


class SummarizationError(ClaimGraphError):
    """Summary response stayed unusable after the allowed re-prompt."""


class ConsistencyError(ClaimGraphError):
    """Cross-structure bookkeeping violation (e.g. verdict for unknown node)."""


class JudgeFailureError(ClaimGraphError):
    """Judge response stayed out of contract after the allowed re-prompt."""


class EvaluationError(ClaimGraphError):
    """Evaluation input is unusable (e.g. empty confusion matrix)."""


class DatasetError(ClaimGraphError):
    """Dataset manifest or record stream is malformed."""


class ConfigError(ClaimGraphError):
    """Pipeline configuration is inconsistent or incomplete."""
