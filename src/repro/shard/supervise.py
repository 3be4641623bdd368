"""Worker supervision: deadline-aware pipes, gang teardown, harness chaos.

The original coordinator trusted its workers completely — a bare
``conn.recv()`` per protocol step — so a worker that died (OOM, SIGKILL)
or hung left the coordinator blocked forever and the surviving workers
orphaned.  This module is the supervision layer underneath the rewritten
coordinator loop:

:class:`WorkerGang`
    Owns the worker processes and their pipes.  Every receive runs a
    deadline loop — poll the pipe in short heartbeat ticks, probe the
    worker's liveness between ticks — so *no wait ever exceeds the
    configured per-window deadline*.  Any failure surfaces as a
    structured :class:`~repro.exceptions.ShardWorkerError` (remote
    traceback, death with exit code, or deadline expiry), and
    :meth:`WorkerGang.shutdown` tears the whole gang down without
    leaking a process or a pipe, on every path.

:class:`SupervisionConfig`
    The two settable knobs: the per-window deadline and the restart
    budget of the coordinator's respawn-and-rerun loop.  The heartbeat
    tick, respawn backoff and teardown join timeout are module
    constants.

:class:`HarnessChaos`
    The FaultPlan philosophy applied to the harness itself (test-only):
    SIGKILL worker W at window N, or delay its reply past the deadline —
    so every recovery path is exercised the way E14 exercises the
    simulated network.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.exceptions import ConfigurationError, ShardWorkerError

__all__ = ["HarnessChaos", "SupervisionConfig", "WorkerGang"]

#: Pipe-level failures that mean "the peer is gone", not "bad data".
_PIPE_DEATH = (EOFError, BrokenPipeError, ConnectionResetError, OSError)

#: The liveness-probe tick: while waiting, the coordinator polls the
#: pipe this long, then checks the worker process is still alive — so a
#: SIGKILL'd worker is detected within one tick, not one deadline.
_HEARTBEAT_S = 0.05
#: Exponential respawn backoff: restart ``k`` (0-based) first sleeps
#: ``_BACKOFF_BASE_S * _BACKOFF_FACTOR**k`` seconds.
_BACKOFF_BASE_S = 0.1
_BACKOFF_FACTOR = 2.0
#: How long teardown waits for a worker to exit after its pipe is closed
#: and ``terminate()`` was sent, before escalating to ``kill()``.
_JOIN_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class SupervisionConfig:
    """Supervision knobs for one sharded execution.

    Attributes
    ----------
    window_timeout_s:
        Deadline for any single worker reply (the longest the
        coordinator will ever block on one receive).  Generous by
        default — a 100k-node window can legitimately take a while —
        but always finite: a hung worker is detected within this bound.
    max_restarts:
        Gang respawns — each reruns the workload from scratch — the
        coordinator will attempt before re-raising the worker failure.
    """

    window_timeout_s: float = 120.0
    max_restarts: int = 2

    def __post_init__(self) -> None:
        if not self.window_timeout_s > 0:
            raise ConfigurationError(
                f"window_timeout_s must be positive, got {self.window_timeout_s!r}"
            )
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts!r}"
            )

    def backoff_s(self, restart: int) -> float:
        """Sleep before 0-based restart attempt ``restart``."""
        return _BACKOFF_BASE_S * _BACKOFF_FACTOR ** restart


@dataclass(frozen=True)
class HarnessChaos:
    """Test-only fault injection against the *harness*, not the network.

    Applied inside the worker processes of the first gang generation
    only — a respawned gang never re-arms chaos, so an injected kill
    cannot loop forever.  :func:`~repro.shard.runner.run_sharded`
    rejects a ``kill_shard`` or ``delay_shard`` outside its worker
    range, since such chaos would never fire.

    Attributes
    ----------
    kill_shard / kill_window:
        SIGKILL worker ``kill_shard`` right after it finishes simulating
        global window ``kill_window`` (1-based), *before* it reports —
        the most adversarial moment: state advanced, barrier unreported.
    delay_shard / delay_window / delay_s:
        Sleep ``delay_s`` seconds in worker ``delay_shard`` before its
        reply for window ``delay_window`` — long enough and the
        coordinator's deadline fires, exercising the hang path without
        an actual hang.
    """

    kill_shard: Optional[int] = None
    kill_window: int = 1
    delay_shard: Optional[int] = None
    delay_window: int = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kill_shard is None and self.delay_shard is None:
            raise ConfigurationError(
                "HarnessChaos without a kill_shard or delay_shard does nothing"
            )
        if self.kill_window < 1 or self.delay_window < 1:
            raise ConfigurationError("chaos windows are 1-based; got window < 1")
        if self.delay_shard is not None and not self.delay_s > 0:
            raise ConfigurationError(
                f"delay_s must be positive with delay_shard set, got {self.delay_s!r}"
            )


class WorkerGang:
    """The worker processes and pipes of one gang generation.

    All pipe traffic goes through :meth:`send` / :meth:`recv`, which
    convert every failure mode — remote traceback message, closed pipe,
    dead process, deadline expiry — into a
    :class:`~repro.exceptions.ShardWorkerError`.  :meth:`shutdown` is
    idempotent and total: after it returns, no worker process of this
    gang is running and every pipe is closed.
    """

    def __init__(self, ctx, config: SupervisionConfig) -> None:
        self._ctx = ctx
        self.config = config
        self.pipes: list = []
        self.procs: list = []

    def __len__(self) -> int:
        return len(self.procs)

    def spawn(self, target, args: tuple) -> None:
        """Start one worker running ``target(conn, *args)``.

        The parent keeps one end of a fresh duplex pipe; the child's end
        is closed in the parent immediately so a dead worker turns into
        ``EOFError`` on our side instead of a silent hang.
        """
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(target=target, args=(child, *args), daemon=True)
        proc.start()
        child.close()
        self.pipes.append(parent)
        self.procs.append(proc)

    # ------------------------------------------------------------------
    def send(self, shard: int, msg: Any, phase: str = "") -> None:
        try:
            self.pipes[shard].send(msg)
        except _PIPE_DEATH as exc:
            raise ShardWorkerError(
                shard, "died", phase=phase, detail=str(exc),
                exitcode=self.procs[shard].exitcode,
            ) from exc

    def recv(self, shard: int, phase: str) -> Any:
        """One supervised receive: bounded by the window deadline.

        The loop polls the pipe one heartbeat tick at a time and probes
        the worker process between ticks.  A worker that died *after*
        writing its reply still gets that reply delivered (the pipe
        buffer outlives the sender — drained before death is declared).
        """
        conn, proc = self.pipes[shard], self.procs[shard]
        cfg = self.config
        deadline = time.monotonic() + cfg.window_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            try:
                if conn.poll(min(_HEARTBEAT_S, max(remaining, 0.0))):
                    msg = conn.recv()
                    if msg[0] == "error":
                        raise ShardWorkerError(
                            shard, "remote", phase=phase, detail=msg[1]
                        )
                    return msg
            except _PIPE_DEATH as exc:
                raise ShardWorkerError(
                    shard, "died", phase=phase, detail=str(exc),
                    exitcode=proc.exitcode,
                ) from exc
            if not proc.is_alive() and not conn.poll(0):
                raise ShardWorkerError(
                    shard, "died", phase=phase, exitcode=proc.exitcode
                )
            if time.monotonic() >= deadline:
                raise ShardWorkerError(
                    shard, "deadline", phase=phase,
                    detail=f"no reply within {cfg.window_timeout_s}s",
                )

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Tear the gang down completely; safe to call repeatedly.

        Closing the pipes first turns any worker blocked in ``recv()``
        into a clean ``EOFError`` exit; stragglers are terminated, then
        killed, and every process is joined so nothing is left running
        (and nothing is left a zombie).
        """
        for conn in self.pipes:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + _JOIN_TIMEOUT_S
        for proc in self.procs:
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
        for proc in self.procs:
            if proc.is_alive():  # pragma: no cover - terminate() ignored
                proc.kill()
                proc.join(timeout=_JOIN_TIMEOUT_S)
        self.pipes = []
        self.procs = []
