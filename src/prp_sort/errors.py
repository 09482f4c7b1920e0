"""Exception types shared across the package."""


class RankingError(Exception):
    """Base class for all package errors."""


class BackendFailure(RankingError):
    """An LLM backend call failed (transport, HTTP status, or bad payload)."""


class InvalidConfig(RankingError):
    """A configuration or an input violates its contract: a bad config value,
    a missing passage text, or a document id that is empty, duplicated,
    unknown or compared with itself."""


class FormatError(RankingError):
    """An input line failed to parse; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ParseFallbackWarning(UserWarning):
    """An LLM completion carried no recognizable label; fell back to First."""
