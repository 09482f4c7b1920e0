"""Exception types shared across the package."""


class RankingError(Exception):
    """Base class for all package errors."""


class IdenticalPair(RankingError):
    """A pairwise operation received the same document on both sides."""


class UnknownDoc(RankingError):
    """An oracle was asked about a document it knows nothing about."""


class BackendFailure(RankingError):
    """An LLM backend call failed (transport, HTTP status, or bad payload)."""


class MissingText(RankingError):
    """An LLM comparison needs passage text that a candidate does not carry."""


class InvalidConfig(RankingError):
    """An algorithm or experiment configuration violates its contract."""


class ZeroBaseline(RankingError):
    """Percentage gain was requested against a non-positive baseline."""


class FormatError(RankingError):
    """An input line failed to parse; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ParseFallbackWarning(UserWarning):
    """An LLM completion carried no recognizable label; fell back to First."""
