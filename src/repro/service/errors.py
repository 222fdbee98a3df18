"""Structured error taxonomy of the serving layer.

Every failure a client can observe maps to one :class:`ServiceError`
subclass with a stable ``code`` slug (mirrored into the wire protocol's
``error.code`` field and the ``service.queries.failed.<code>`` metric)
and a ``retriable`` hint — an overloaded service says "come back with
backoff", a draining one says "this instance is going away", and a
poisoned request says "don't bother retrying".
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = [
    "ServiceError",
    "ServiceOverloadError",
    "ServiceUnavailableError",
    "SnapshotSwapRejectedError",
    "BadRequestError",
    "ScaleOutConfigError",
]


class ServiceError(RuntimeError):
    """Base class; ``code`` is a stable slug, ``retriable`` a client
    hint, ``detail`` a JSON-safe payload for the wire protocol."""

    code = "internal"
    retriable = False

    def __init__(
        self,
        message: str,
        *,
        code: Optional[str] = None,
        retriable: Optional[bool] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code
        if retriable is not None:
            self.retriable = retriable
        self.detail: Dict[str, Any] = detail if detail is not None else {}

    def to_wire(self) -> Dict[str, Any]:
        """The protocol's ``error`` object."""
        return {
            "code": self.code,
            "message": str(self),
            "retriable": bool(self.retriable),
            "detail": self.detail,
        }


class ServiceOverloadError(ServiceError):
    """Admission shed the request: every slot and queue position was
    taken (or the queue wait timed out).  Structured — carries the
    occupancy that caused the shed and a backoff hint — so clients
    degrade gracefully instead of hammering a collapsing queue."""

    code = "overload"
    retriable = True

    def __init__(
        self,
        message: str,
        *,
        active: int,
        queued: int,
        max_active: int,
        max_queued: int,
        timed_out: bool,
        retry_after_ms: float,
    ) -> None:
        super().__init__(
            message,
            detail={
                "active": active,
                "queued": queued,
                "max_active": max_active,
                "max_queued": max_queued,
                "timed_out": timed_out,
                "retry_after_ms": retry_after_ms,
            },
        )
        self.active = active
        self.queued = queued
        self.max_active = max_active
        self.max_queued = max_queued
        self.timed_out = timed_out
        self.retry_after_ms = retry_after_ms


class ServiceUnavailableError(ServiceError):
    """The service cannot take queries in its current state (not yet
    started, draining, or stopped)."""

    code = "unavailable"
    retriable = False

    def __init__(self, message: str, *, status: str) -> None:
        super().__init__(message, detail={"status": status})
        self.status = status


class SnapshotSwapRejectedError(ServiceError):
    """A refresh found the candidate snapshot unusable (corrupt, torn,
    missing, or failing fsck); the old generation keeps serving."""

    code = "swap_rejected"
    retriable = True

    def __init__(
        self,
        message: str,
        *,
        reason: str,
        verdict: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(
            message, detail={"reason": reason, "verdict": verdict}
        )
        self.reason = reason
        self.verdict = verdict


class BadRequestError(ServiceError):
    """A request the protocol layer could not make sense of."""

    code = "bad_request"
    retriable = False


class ScaleOutConfigError(ServiceError):
    """An invalid scale-out configuration, such as a worker count that
    cannot fork.  Surfaces at ``serve`` startup as exit code 64
    (EX_USAGE) with the structured detail on stderr."""

    code = "bad_config"
    retriable = False

    def __init__(
        self, message: str, *, detail: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(message, detail=detail)
