"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``category`` so the CLI can
emit single-line errors of the form ``error: <category>: <detail>``.
"""


class AgentcastError(Exception):
    category = "runtime"


class SchemaError(AgentcastError):
    """A required CSV column or field is missing, or a series holds a
    non-finite value."""

    category = "schema"


class ParseError(AgentcastError):
    """A timestamp or value failed to parse; message carries the row number."""

    category = "parse"


class DuplicateTimestampError(AgentcastError):
    category = "duplicate"


class FrequencyError(AgentcastError):
    """Timestamps do not lie on any supported regular grid."""

    category = "frequency"


class InsufficientDataError(AgentcastError):
    category = "insufficient-data"


class SeriesTooShortError(AgentcastError):
    category = "series-too-short"


class NonFiniteForecastError(AgentcastError):
    """A model turned finite input into a non-finite mean or quantile."""

    category = "non-finite-forecast"


class AlignmentError(AgentcastError):
    """Frames passed to an ensemble disagree on keys, timestamps or levels."""

    category = "alignment"


class UnknownModelError(AgentcastError):
    category = "unknown-model"


class ProtocolError(AgentcastError):
    """A remote response violated the adapter wire contract."""

    category = "protocol"


class TransportError(AgentcastError):
    """Network failure that survived the retry budget."""

    category = "transport"


class RequestError(AgentcastError):
    """The server rejected the request (HTTP 4xx)."""

    category = "request"


class ConfigError(AgentcastError):
    category = "config"


class AgentError(AgentcastError):
    """The agent pipeline could not finish; carries the trace so far."""

    category = "agent"

    def __init__(self, message: str, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


# What a forecast may raise on data it cannot model: our typed errors,
# ValueError (numpy's LinAlgError among them) and ArithmeticError.  Fold
# isolation and the naive fallback catch these and nothing else, so a
# programming error such as a TypeError propagates.
_FORECAST_FAILURES = (AgentcastError, ValueError, ArithmeticError)
