"""Error taxonomy for the EII stack.

Every error raised by the package derives from `EIIError` so callers can
catch integration failures without also swallowing programming errors.
"""

from typing import Optional


class EIIError(Exception):
    """Base class for all errors raised by the repro package."""

    #: the diagnostic code (`repro.common.diagnostics.CODES`) of the defect the
    #: binder raised this for, such as "EII104"; None where nothing was bound
    code: Optional[str] = None


class ParseError(EIIError):
    """Raised by the SQL lexer/parser on malformed input.

    Carries the offending position so tools can point at the token. When the
    source text is available the message carries a 1-based line/column
    location (and `line`/`column` are set); otherwise the raw offset.
    """

    def __init__(self, message, position=None, text=None):
        self.position = position
        self.text = text
        self.line = None
        self.column = None
        if position is not None and text is not None:
            prefix = text[:position]
            self.line = prefix.count("\n") + 1
            self.column = position - (prefix.rfind("\n") + 1) + 1
            message = f"{message} (at line {self.line}, column {self.column})"
        elif position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class SchemaError(EIIError):
    """Raised when a schema is malformed or a name cannot be resolved."""


class TypeMismatchError(EIIError):
    """Raised when a value cannot be coerced to the declared column type."""


class PlanError(EIIError):
    """Raised when a logical/physical plan cannot be built or is invalid."""


class SourceError(EIIError):
    """Raised when a data source rejects or fails a component query."""


class CapabilityError(SourceError):
    """Raised when a component query exceeds a source's declared capabilities."""


class InjectedFaultError(SourceError):
    """Raised by the netsim fault injector standing in for a real outage.

    A typed, retryable source failure: the resilience layer treats it like
    any transient `SourceError`, and tests can distinguish scripted faults
    from genuine bugs. Carries the faulted `source` name.
    """

    def __init__(self, message, source=None):
        self.source = source
        super().__init__(message)


class SourceTimeoutError(SourceError):
    """Raised when one fetch attempt exceeds the per-fetch timeout.

    Simulated-time semantics: the mediator "waited" `timeout_s` simulated
    seconds, gave up, and discarded whatever the source eventually returned.
    """

    def __init__(self, message, source=None, timeout_s=None):
        self.source = source
        self.timeout_s = timeout_s
        super().__init__(message)


class CircuitOpenError(SourceError):
    """Raised when a source's circuit breaker rejects a call outright.

    The breaker is protecting a source that has recently failed repeatedly;
    callers should fail over to a replica or degrade rather than retry.
    """

    def __init__(self, message, source=None):
        self.source = source
        super().__init__(message)


class TransactionError(EIIError):
    """Raised on invalid transaction usage in the storage substrate."""


class IntegrityError(EIIError):
    """Raised on key violations or constraint failures in storage."""


class ReformulationError(EIIError):
    """Raised when a mediated query has no rewriting over the sources."""


class AgreementViolation(EIIError):
    """Raised (or logged) when a data service agreement obligation fails."""


class ProcessError(EIIError):
    """Raised by the EAI process engine when a saga cannot complete."""


class AdmissionError(EIIError):
    """Raised when a query's predicted cost exceeds the admission budget,
    or when the workload scheduler rejects/sheds it under load.

    Carries `predicted_seconds` so callers can surface the expected
    performance to the user (the feedback loop Draper's §5 asks for).
    Scheduler-raised instances additionally carry the admission-queue
    state at the moment of rejection: `queue_depth` (the bound), `queued`
    (how many requests were waiting) and `queue_wait_s` (how long the
    rejected request had already waited, 0.0 at submission time).
    """

    def __init__(
        self,
        message,
        predicted_seconds=None,
        queue_depth=None,
        queued=None,
        queue_wait_s=None,
    ):
        self.predicted_seconds = predicted_seconds
        self.queue_depth = queue_depth
        self.queued = queued
        self.queue_wait_s = queue_wait_s
        super().__init__(message)
