"""Exception hierarchy shared by all xling modules."""

from __future__ import annotations


class XlingError(Exception):
    """Base class for every error raised by this package."""


class CorpusError(XlingError):
    """Problem with corpus content or layout."""


class EmptyCorpusError(CorpusError):
    """An operation that needs at least one document received none."""


class MalformedRecordError(CorpusError):
    """A corpus record could not be parsed.

    Carries the 1-based line number of the offending record.
    """

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class MissingCounterpartError(CorpusError):
    """A document on one side of a pair directory has no counterpart."""


class TruncatedStreamError(CorpusError):
    """A dump stream ended mid-page or is not well-formed page-wise XML."""


class DegenerateSplitError(CorpusError):
    """A train/test split would leave one part empty."""


class DictionaryError(XlingError):
    """Problem loading or using a bilingual dictionary."""


class MalformedLineError(DictionaryError):
    """A dictionary line could not be parsed (carries the line number)."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class UndefinedRateError(XlingError):
    """A rate with an empty denominator (e.g. OOV rate of an empty document)."""


class DimensionMismatchError(XlingError):
    """Vector or matrix dimensions do not match the model's space."""


class ModelError(XlingError):
    """Problem persisting or restoring a trained model."""


class CorruptModelError(ModelError):
    """Model file is truncated or its framing is invalid."""


class VersionMismatchError(ModelError):
    """Model file was written by an unsupported format version."""

    def __init__(self, found: int, supported: int):
        super().__init__(
            f"model format version {found} not supported (this build reads version {supported})"
        )
        self.found = found
        self.supported = supported


class ConvergenceError(XlingError):
    """Factorization failed: a LAPACK QR failed or the factors are not finite."""


class EmptyCandidatesError(XlingError):
    """Retrieval was asked to rank an empty candidate collection."""


class MissingGoldError(XlingError):
    """A query has no gold target in the supplied mapping."""

    def __init__(self, query_id: str):
        super().__init__(f"no gold target for query {query_id!r}")
        self.query_id = query_id


class SelfTestError(XlingError):
    """The identity-query self-test failed; lists the offending documents."""

    def __init__(self, offenders: list[str]):
        super().__init__(
            "self-test failed for %d document(s): %s" % (len(offenders), ", ".join(offenders))
        )
        self.offenders = list(offenders)


class TranslationError(XlingError):
    """A translator could not translate a document."""
