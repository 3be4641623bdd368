"""Discrete-event simulation engine.

A deliberately small, deterministic event engine: a binary heap of timed
events with a monotonically increasing tie-break counter so that events
scheduled at the same simulated time fire in scheduling order.  All
randomness used by higher layers flows through :attr:`Simulator.rng`, a
``numpy.random.Generator`` seeded at construction, which makes every
simulation reproducible from ``(topology seed, protocol seed)``.  Draws
made *on behalf of a specific node* (MAC jitter/backoff, per-link loss)
instead come from :meth:`Simulator.node_rng` — a per-node substream
derived as ``SeedSequence(entropy=seed, spawn_key=(node_id,))`` — so a
node's draw sequence is a pure function of ``(seed, node_id)``,
independent of the global draw order.  That independence is what lets
the sharded executor replay draws bit-identically on any worker count.

The engine is single-threaded on purpose.  Per the optimisation guidance in
the HPC coding guides, the engine is kept simple and legible; the hot paths
that matter (neighbor-set computation, flood fan-out, batched delivery
draining) are vectorised in :mod:`repro.sim.network` /
:mod:`repro.sim.radio`, not here.  What the engine *does* provide for the
struct-of-arrays hot path is a small batching contract:

* :meth:`Simulator.alloc_seqs` reserves a contiguous block of tie-break
  sequence numbers, so a radio fan-out can stamp every delivery of one
  frame with the exact sequence numbers a per-event schedule loop would
  have produced;
* :meth:`Simulator.peek_key` exposes the ``(time, seq)`` key of the next
  pending event, letting a drain callback process consecutive batch
  entries *only while nothing else would have fired between them*;
* :meth:`Simulator.push_event_at` lets the drain park the remainder
  back on the heap under the original sequence number (the drain
  micro-steps the clock through its entries by writing ``_now``
  directly, see :meth:`repro.sim.radio.Channel._pump`).

Together these make the batched path a pure re-ordering of *work inside
one process loop*, never of simulated causality: every batched entry
observes exactly the heap position it would have had as its own event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

import numpy as np

from repro.exceptions import SimulationError

__all__ = ["Event", "Simulator"]


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, seq)``; ``seq`` is a global counter so
    simultaneous events preserve FIFO scheduling order.  The engine keeps
    the ordering key *outside* the event — the heap stores
    ``(time, seq, event)`` tuples, so ordering is C-level tuple comparison
    and almost never reaches the Python ``__lt__`` below (events are
    compared millions of times per run; this is the engine's one
    genuinely hot comparison)."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple = (),
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = cancelled

    def __lt__(self, other: "Event") -> bool:
        """Tie-break for heap tuples whose ``(time, seq)`` keys are equal.

        Exact key collisions only arise between a cancelled batch-pump
        parking and its re-issue under the same reserved seq (live
        events always hold distinct seqs), and cancelled events are
        skipped unexecuted — so the relative order of a tied pair is
        unobservable and any deterministic answer is correct.
        """
        return False

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, fn={self.fn!r}, "
            f"args={self.args!r}, cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator's random generator.  Two simulators built
        with the same seed and fed the same schedule of events produce
        bit-identical runs.

    Examples
    --------
    >>> sim = Simulator(seed=7)
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self, seed: int | None = 0) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._horizon: Optional[float] = None
        self._events_processed = 0
        self._idle_hooks: list[Callable[[], None]] = []
        self.rng: np.random.Generator = np.random.default_rng(seed)
        self._node_entropy = np.random.SeedSequence(seed).entropy
        self._node_rngs: dict[int, np.random.Generator] = {}

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (diagnostic).

        Batched deliveries count one per drained entry (via
        :meth:`tally_batch_entries`), so the figure is comparable between
        the per-event and batched execution paths.
        """
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones).

        A delivery batch counts as a single queue entry however many
        entries it still carries; ``pending == 0`` still means quiescent
        (a parked batch always keeps one continuation event queued).
        """
        return len(self._queue)

    @property
    def horizon(self) -> Optional[float]:
        """The ``until`` bound of the active :meth:`run`, if any.

        Batch drains consult this so entries beyond the horizon are
        parked instead of executed, exactly as their per-event
        counterparts would have stayed on the heap.
        """
        return self._horizon

    @property
    def next_event_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` at quiescence.

        Parked delivery batches are covered: their pump event always sits
        at the earliest pending entry's key.
        """
        key = self.peek_key()
        return None if key is None else key[0]

    # ------------------------------------------------------------------
    # per-node randomness
    # ------------------------------------------------------------------
    def node_rng(self, node_id: int) -> np.random.Generator:
        """The dedicated random stream of ``node_id`` (lazily created).

        Streams derive as ``SeedSequence(entropy=seed, spawn_key=(node_id,))``,
        so each node's draw sequence is a pure function of ``(seed,
        node_id)`` — independent of creation order, of how many other
        nodes draw, and of which process hosts the node.  This is the
        shard-safety primitive: jitter/backoff/loss draws are keyed by
        the *acting* node (the frame's sender) instead of consuming the
        shared :attr:`rng`, so any worker replays exactly the draws its
        nodes would have made in a single-process run.
        """
        gen = self._node_rngs.get(node_id)
        if gen is None:
            seq = np.random.SeedSequence(
                entropy=self._node_entropy, spawn_key=(int(node_id),)
            )
            gen = np.random.default_rng(seq)
            self._node_rngs[node_id] = gen
        return gen

    def node_rng_states(self) -> dict[int, dict]:
        """Final bit-generator states of every spawned per-node stream.

        Only nodes whose stream was actually touched have entries.  The
        sharded executor ships each worker's owned entries home so the
        digest-equality tests can pin the partitioned streams end to end
        (same draws *and* same leftover state at every worker count).
        """
        return {
            int(i): gen.bit_generator.state
            for i, gen in sorted(self._node_rngs.items())
        }

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled.  A negative
        delay is a programming error and raises :class:`SimulationError`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        seq = self._seq
        self._seq = seq + 1
        ev = Event(self._now + delay, seq, fn, args)
        heapq.heappush(self._queue, (ev.time, seq, ev))
        return ev

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``.

        ``when`` is pushed onto the heap as-is: round-tripping through a
        relative delay (``when - now + now``) loses precision once ``when``
        is large relative to the float epsilon, which made repeated
        absolute scheduling drift against ``run(until=...)`` horizons.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past (when={when!r}, now={self._now!r})"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = Event(when, seq, fn, args)
        heapq.heappush(self._queue, (when, seq, ev))
        return ev

    # ------------------------------------------------------------------
    # batching contract (struct-of-arrays delivery draining)
    # ------------------------------------------------------------------
    @property
    def seq_marker(self) -> int:
        """The next sequence number to be handed out.

        A drain loop snapshots this before invoking a handler; if it
        changed, the handler scheduled something that may now precede the
        batch's next entry, so the drain must re-derive its run bound.
        """
        return self._seq

    def alloc_seqs(self, count: int) -> int:
        """Reserve ``count`` consecutive sequence numbers; returns the base.

        The reserved block orders exactly like ``count`` back-to-back
        :meth:`schedule` calls would have — which is what makes a batched
        fan-out's entries tie-break identically to per-event scheduling.
        """
        if count < 0:
            raise SimulationError(f"cannot reserve {count!r} sequence numbers")
        base = self._seq
        self._seq = base + count
        return base

    def peek_key(self) -> Optional[tuple[float, int]]:
        """``(time, seq)`` of the next live event, or ``None`` when empty.

        Cancelled events at the top of the heap are discarded as a side
        effect (they would be skipped by :meth:`step` anyway).
        """
        q = self._queue
        while q:
            when, seq, ev = q[0]
            if ev.cancelled:
                heapq.heappop(q)
                continue
            return (when, seq)
        return None

    def push_event_at(
        self, when: float, seq: int, fn: Callable[..., None], *args: Any
    ) -> Event:
        """Re-queue work under an explicit, previously reserved ``seq``.

        This is how a drain parks the unprocessed remainder of a batch:
        the continuation re-enters the heap at the *original* ``(time,
        seq)`` of its next entry, so interleaving against every other
        event is bit-identical to per-event scheduling.  ``seq`` must come
        from :meth:`alloc_seqs` — the engine does not verify it, and a
        fabricated value would corrupt tie-break ordering.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot park into the past (when={when!r}, now={self._now!r})"
            )
        ev = Event(when, seq, fn, args)
        heapq.heappush(self._queue, (when, seq, ev))
        return ev

    def tally_batch_entries(self, count: int) -> None:
        """Credit ``count`` executed batch entries to the event counter.

        The heap pop that started the drain already counted one event;
        drains call this with the *additional* entries they processed so
        :attr:`events_processed` stays comparable across execution paths.
        """
        self._events_processed += count

    def add_idle_hook(self, fn: Callable[[], None]) -> None:
        """Register ``fn()`` to run whenever :meth:`run` drains the queue.

        Idle hooks fire at *quiescence* — the heap is empty, so nothing
        can make further progress.  That is the one moment end-of-run
        invariants (packet conservation under audit mode) are checkable:
        any datum still queued or in flight is permanently stuck.  Hooks
        run in registration order and must not schedule new events.
        """
        if fn not in self._idle_hooks:  # == dedupes re-bound methods too
            self._idle_hooks.append(fn)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        Cancelled events are discarded without running.
        """
        while self._queue:
            when, _, ev = heapq.heappop(self._queue)
            if ev.cancelled:
                continue
            if when < self._now:
                raise SimulationError(
                    f"event queue corrupted: event at t={when} < now={self._now}"
                )
            self._now = when
            self._events_processed += 1
            ev.fn(*ev.args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events in time order.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly beyond this time; the
            clock is then advanced to ``until`` (so repeated ``run(until=t)``
            calls behave like a progressing wall clock).  Events *at*
            ``until`` run; to leave them queued, pass
            ``math.nextafter(t, -math.inf)`` — no float lies between that
            bound and ``t``, and delivery batches park their entries at
            ``t`` too.
        max_events:
            Safety valve for runaway protocols: stop after this many events.
            A batched delivery drain checks the budget only between heap
            pops, so one drain may overshoot by the entries it coalesced.
            A run the budget stops leaves the clock at its last event, so
            the events still queued stay in its future.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._horizon = until
        processed_before = self._events_processed
        try:
            while self._queue:
                when, _, nxt = self._queue[0]
                if nxt.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and when > until:
                    break
                if max_events is not None and (
                    self._events_processed - processed_before >= max_events
                ):
                    return
                self.step()
            if until is not None and self._now < until:
                self._now = until
            if not self._queue:
                for hook in self._idle_hooks:
                    hook()
        finally:
            self._running = False
            self._horizon = None

    def clear(self) -> None:
        """Drop all pending events (the clock is left where it is)."""
        self._queue.clear()
