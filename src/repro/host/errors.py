"""Host-side timeout and link-failure errors.

Both derive from :class:`repro.hdl.errors.SimulationError`, so existing
callers that guard pump loops with ``except SimulationError`` keep working;
new code can catch the narrower types to distinguish "the coprocessor is
slow or wedged" (:class:`HostTimeoutError`) from "the link retry budget is
exhausted — the board fell off the bus" (:class:`LinkDownError`).
"""

from __future__ import annotations

from ..hdl.errors import SimulationError


class HostTimeoutError(SimulationError):
    """A host-side deadline elapsed with no observable progress."""


class LinkDownError(HostTimeoutError):
    """The reliable link layer exhausted its retransmission budget.

    Raised (or used to fail outstanding futures) once a request has been
    retransmitted ``MAX_RETRIES`` times without any acknowledging response —
    the protocol's declaration that the physical link is dead.
    """


class MachineCheckError(SimulationError):
    """An uncorrectable state upset could not be recovered by rollback.

    The coprocessor reported a machine check (a double-bit upset in
    architectural state) and the host engine either had no clean
    checkpoint to roll back to, or took a second check before reaching a
    new quiescent point — replaying further would risk committing results
    computed from corrupt state, so the engine fails fast instead.
    """

    def __init__(self, message: str, element: int = 0, address: int = 0,
                 syndrome: int = 0):
        super().__init__(message)
        self.element = element
        self.address = address
        self.syndrome = syndrome
