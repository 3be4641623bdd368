"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulator reaches an invalid state."""


class TopologyError(ReproError):
    """Raised when a network topology is invalid for the requested operation.

    Typical causes: a disconnected deployment when connectivity is required,
    a node id that does not exist, or a gateway placed outside the field.
    """


class RoutingError(ReproError):
    """Raised when a routing protocol cannot satisfy a request.

    For example: asking for the installed route of a node that never
    discovered one, or configuring MLR with more gateways than feasible
    places.
    """


class SecurityError(ReproError):
    """Raised when a cryptographic verification fails loudly.

    Protocol code normally *drops* packets that fail verification (that is
    the behaviour the paper specifies); this exception is reserved for API
    misuse, e.g. asking for a pairwise key that was never provisioned.
    """


class ConfigurationError(ReproError):
    """Raised when user-supplied configuration is inconsistent."""


class ShardWorkerError(SimulationError):
    """A sharded-execution worker process failed.

    Carries enough structure for the coordinator's supervision loop to
    decide what to do next:

    ``shard``
        Which worker failed.
    ``kind``
        ``"remote"`` — the worker raised a Python exception and shipped
        its traceback (``detail``) before exiting; deterministic, never
        retried.  ``"died"`` — the process vanished without a final
        message (SIGKILL, OOM, a closed pipe); ``exitcode`` holds the
        exit status when known.  ``"deadline"`` — the worker stayed
        alive but did not answer within the coordinator's fixed reply
        deadline.  Deaths and deadline expiries are *retryable*: the
        coordinator respawns the gang and reruns the workload from
        scratch, a bounded number of times.
    ``phase``
        The protocol step being sent (``"advance"``, ``"finish"``) or
        waited on (``"ready"``, ``"window"``, ``"done"``).
    """

    def __init__(
        self,
        shard: int,
        kind: str,
        phase: str = "",
        detail: str = "",
        exitcode=None,
    ) -> None:
        self.shard = int(shard)
        self.kind = kind
        self.phase = phase
        self.detail = detail
        self.exitcode = exitcode
        where = f"shard worker {shard}" + (f" (awaiting {phase!r})" if phase else "")
        if kind == "remote":
            msg = f"{where} failed:\n{detail}"
        elif kind == "died":
            msg = f"{where} died" + (
                f" with exit code {exitcode}" if exitcode is not None else ""
            ) + (f": {detail}" if detail else "")
        else:
            msg = f"{where} missed its deadline" + (f": {detail}" if detail else "")
        super().__init__(msg)

    @property
    def retryable(self) -> bool:
        """Whether respawning the gang and rerunning can help.

        Remote Python exceptions are deterministic — the respawned gang
        would replay the identical failure — so only process deaths and
        deadline expiries qualify.
        """
        return self.kind in ("died", "deadline")


class ConservationError(ReproError):
    """Raised when the packet-conservation invariant is violated.

    Under audit mode (``WorldBuilder().audit()`` / ``REPRO_AUDIT=1``) the
    ledger enforces ``data_generated == unique_delivered + terminal_drops
    + pending`` — a violation means a datum vanished without a recorded
    terminal state, or a delivery was double-counted.
    """
