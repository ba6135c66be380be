"""Exception hierarchy for the repro library.

Every exception raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause without swallowing programming errors such as
``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SpecificationError(ReproError):
    """A serial specification was queried in an inconsistent way.

    Raised, for example, when a history is replayed against a data type
    that does not define one of the history's operations.
    """


class DependencyError(ReproError):
    """A dependency-relation computation was given inconsistent inputs."""


class QuorumError(ReproError):
    """A quorum assignment or coterie is structurally invalid."""


class UnavailableError(ReproError):
    """No quorum of live repositories could be assembled for an operation."""

    def __init__(self, operation: str, missing: frozenset[int] = frozenset()):
        super().__init__(
            f"no available quorum for operation {operation!r}"
            + (f" (unreachable sites: {sorted(missing)})" if missing else "")
        )
        self.operation = operation
        self.missing = missing


class DegradedOperation(ReproError):
    """A read-only operation fell back to read-quorum-only degraded mode.

    Raised by :meth:`FrontEnd.execute` when the final quorum stayed
    unreachable through every retry but the operation's
    :class:`~repro.resilience.policy.RetryPolicy` enables
    ``degraded_reads`` and the operation never mutates state: the
    response is legal for the merged initial-quorum view but was *not*
    logged and is not part of the transaction.  Deliberately an
    exception on the plain :meth:`execute` path so a degraded result can
    never be mistaken for a replicated one; callers that opt in use
    :meth:`FrontEnd.execute_outcome`, which converts it into an explicit
    :class:`~repro.resilience.policy.OperationResult`.
    """

    def __init__(self, operation: str, response, attempts: int = 1):
        super().__init__(
            f"operation {operation!r} served in degraded read-quorum-only "
            f"mode after {attempts} final-quorum attempt(s)"
        )
        self.operation = operation
        self.response = response
        self.attempts = attempts


class TransactionError(ReproError):
    """Base class for transaction-level failures."""


class TransactionAborted(TransactionError):
    """The transaction was aborted; all of its effects have been undone."""

    def __init__(self, action_id: object, reason: str):
        super().__init__(f"transaction {action_id} aborted: {reason}")
        self.action_id = action_id
        self.reason = reason


class ConflictError(TransactionError):
    """A concurrency-control scheme refused an operation due to a conflict.

    Depending on the scheme this may be retried (lock conflicts) or must
    abort the transaction (timestamp-order violations).
    """

    def __init__(self, message: str, *, fatal: bool, holder: object | None = None):
        super().__init__(message)
        #: ``True`` when the transaction must abort (cannot simply wait).
        self.fatal = fatal
        #: For lock conflicts: the transaction holding the conflicting lock.
        self.holder = holder


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""
