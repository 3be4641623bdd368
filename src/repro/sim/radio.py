"""Radio configurations and the shared wireless channel.

:class:`Channel` is the only way packets move: protocols call
:meth:`Channel.send` (broadcast when ``packet.dst is None``, link-layer
unicast otherwise) and the channel handles CSMA deferral, airtime, loss,
receiver-side collisions, energy charging and delivery to the receiving
nodes' handlers.

Two parameter presets mirror the paper's tier split (Section 3.2): sensor
nodes speak :data:`IEEE802154`, mesh routers :data:`IEEE80211`, and
gateways both.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sim.energy import EnergyModel
from repro.sim.engine import Simulator
from repro.sim.mac import MediumState
from repro.sim.packet import Packet
from repro.sim.serialize import serializable
from repro.sim.trace import MetricsCollector

__all__ = ["GilbertElliott", "RadioConfig", "IEEE802154", "IEEE80211", "Channel"]

_SPEED_OF_LIGHT = 3.0e8


@serializable
@dataclass(frozen=True)
class GilbertElliott:
    """Two-state bursty link-loss model (Gilbert–Elliott).

    Each directed link ``(sender, receiver)`` carries an independent
    two-state Markov chain.  Per frame the chain advances one step —
    Good→Bad with probability ``p_gb``, Bad→Good with ``p_bg`` — and the
    frame is then lost with the state's loss probability (``loss_good``
    on a good link, ``loss_bad`` inside a burst).  Mean burst length is
    ``1 / p_bg`` frames; stationary bad-state probability is
    ``p_gb / (p_gb + p_bg)``.

    The chain consumes exactly two RNG draws per intended receiver —
    one transition, one loss — regardless of parameter values, so the
    batched fan-out and a per-receiver loop draw the identical stream.
    """

    p_gb: float
    p_bg: float
    loss_good: float = 0.0
    loss_bad: float = 1.0
    start_bad: bool = False

    def __post_init__(self) -> None:
        for name in ("p_gb", "p_bg", "loss_good", "loss_bad"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {v!r}")

    @property
    def stationary_bad(self) -> float:
        """Long-run fraction of frames finding the link in the bad state."""
        denom = self.p_gb + self.p_bg
        return 0.0 if denom == 0.0 else self.p_gb / denom


@dataclass(frozen=True)
class RadioConfig:
    """Physical/MAC parameters of one radio technology."""

    name: str
    bitrate: float  # bits per second
    comm_range: float  # meters
    loss_rate: float = 0.0  # independent per-link frame loss probability
    backoff_window: float = 2e-3  # seconds of random CSMA jitter
    collisions: bool = True
    csma: bool = True
    arq_retries: int = 3
    """Link-layer retransmissions for unicast frames whose reception fails
    (collision or loss) — 802.15.4/802.11 both ACK unicast and retry.
    Broadcast frames are never acknowledged, hence never retried."""
    burst: Optional[GilbertElliott] = None
    """Bursty per-link loss (Gilbert–Elliott).  When set it *replaces*
    the i.i.d. ``loss_rate`` draw: per-state loss probabilities come from
    the model and ``loss_rate`` is ignored."""

    def __post_init__(self) -> None:
        if self.bitrate <= 0 or self.comm_range <= 0:
            raise ConfigurationError("bitrate and comm_range must be positive")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1]")

    def airtime(self, bits: int) -> float:
        """Seconds needed to push ``bits`` onto the air."""
        return bits / self.bitrate

    def ideal(self) -> "RadioConfig":
        """A lossless, collision-free copy (worked-example experiments)."""
        return replace(
            self, loss_rate=0.0, collisions=False, csma=False,
            backoff_window=0.0, arq_retries=0, burst=None,
        )


#: Sensor-tier radio (2.4 GHz 802.15.4: 250 kb/s, short range).
IEEE802154 = RadioConfig(name="802.15.4", bitrate=250_000.0, comm_range=40.0)

#: Mesh-tier radio (802.11b: 11 Mb/s, long range).
IEEE80211 = RadioConfig(name="802.11", bitrate=11_000_000.0, comm_range=250.0)


class Channel:
    """The shared wireless medium of one network tier.

    Parameters
    ----------
    sim:
        The discrete-event engine (also the source of randomness).
    network:
        The :class:`repro.sim.network.Network` whose neighbor rows and
        node-state store (``network.store``) the channel reads and charges.
    config:
        Radio parameters (default 802.15.4 — the sensor tier).
    energy_model:
        First-order radio model used to charge TX/RX energy.
    metrics:
        Collector receiving send/receive/drop events.

    Each frame fans out one of two ways, chosen by the frame and the
    radio: broadcasts on an unobserved medium (no CSMA, no collisions)
    join the batched delivery buffer (:meth:`_fanout_batched`); unicast
    frames and every frame on an observed medium schedule one event per
    reception (:meth:`_fanout_vectorized`).  Both batch the per-neighbor
    math with NumPy and draw from the RNG in neighbor order — the same
    stream a per-receiver scalar loop consumes, which is the reference
    ``tests/oracle.py`` holds them to.
    """

    def __init__(
        self,
        sim: Simulator,
        network,
        config: RadioConfig = IEEE802154,
        energy_model: Optional[EnergyModel] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self.energy_model = energy_model or EnergyModel()
        self.metrics = metrics or MetricsCollector()
        self.medium = MediumState()
        self._prune_every = 256
        self._sends_since_prune = 0
        # With carrier sensing and collision detection both off, nothing
        # ever reads the medium bookkeeping — skip it on the hot path.
        self._medium_observed = config.csma or config.collisions
        #: the network's struct-of-arrays node state
        self._store = network.store
        # Batched same-timestamp delivery draining requires an unobserved
        # medium (CSMA deferrals and collision records are inherently
        # per-reception); other radios deliver per event.  LinkDegrade
        # fault windows only swap loss_rate/burst, so the gate is stable
        # for a channel's lifetime.
        self._batched = not self._medium_observed
        # Pending broadcast deliveries as one flat sorted buffer of
        # ``(time, seq, node, rx_joules, packet, kind)`` entries with a
        # consume cursor.  New fan-out runs bisect-insert into the
        # unconsumed tail; consumed entries stay in place (compacted
        # periodically), so nothing already merged is ever re-sorted or
        # re-sliced.  One engine event — the "pump" — is parked at the
        # earliest pending key and drains entries in global key order,
        # so concurrent frames whose delivery windows interleave still
        # process with zero per-delivery heap traffic.
        self._buf: list[tuple] = []
        self._pos = 0
        self._pump_event = None
        # Sharded execution (repro.shard): when configured, fan-outs
        # deliver only to owned receivers; receptions bound for other
        # shards are exported as timestamped messages instead.
        self._shard_owned: Optional[np.ndarray] = None
        self._shard_out: list[tuple] = []
        # Gilbert–Elliott chain state per directed link: True = bad
        # (inside a burst).  Links start in the model's ``start_bad``
        # state on first use; state survives config swaps so a
        # link-degrade window resuming the same model continues its
        # bursts instead of resetting every chain.
        self._link_bad: dict[tuple[int, int], bool] = {}

    def _jitter(self, node: int) -> float:
        """One uniform backoff draw from ``node``'s own stream, or exactly
        zero without burning a draw when the window is zero
        (``RadioConfig.ideal()``).

        Keying the draw by the acting node (the frame's sender) makes the
        jitter sequence a pure function of ``(seed, node)`` — the
        partitioned-stream property sharded execution relies on.
        """
        window = self.config.backoff_window
        if window <= 0.0:
            return 0.0
        return self.sim.node_rng(node).uniform(0.0, window)

    def _burst_losses(self, sender: int, receivers) -> list[bool]:
        """Advance the per-link burst chains one step and draw losses.

        ``receivers`` are the intended receivers in neighbor order.  The
        draws are taken as one ``(k, 2)`` batch — transition then loss
        per receiver — from the *sender's* per-node stream: every link
        chain ``(sender, *)`` is advanced only by the sender's own
        fan-outs, so both the chain state and the draw sequence live
        entirely on whichever process owns the sender.  The batch
        consumes the stream in exactly the order a scalar
        two-draws-per-receiver loop would.
        """
        ge = self.config.burst
        k = len(receivers)
        if k == 0:
            return []
        draws = self.sim.node_rng(sender).random((k, 2))
        states = self._link_bad
        lost: list[bool] = []
        for i, nb in enumerate(receivers):
            key = (sender, int(nb))
            bad = states.get(key, ge.start_bad)
            bad = (draws[i, 0] < ge.p_gb) if not bad else not (draws[i, 0] < ge.p_bg)
            states[key] = bad
            lost.append(bool(draws[i, 1] < (ge.loss_bad if bad else ge.loss_good)))
        return lost

    # ------------------------------------------------------------------
    # sharded execution (spatial domain decomposition, repro.shard)
    # ------------------------------------------------------------------
    def configure_sharding(self, owned: np.ndarray) -> None:
        """Restrict local delivery to ``owned`` nodes, exporting the rest.

        ``owned`` is a boolean mask over node ids.  Both fan-outs make
        their loss draws and compute their event times exactly as they
        do unsharded; each surviving reception at a non-owned receiver
        is then appended to the export buffer as an ``(arrive_time,
        receiver, sender, packet, attempt)`` tuple at the point where it
        would otherwise be scheduled.  Fan-out membership is
        position-only (:meth:`Network.neighbors` ignores liveness — dead
        receivers drop at delivery time), and the owning shard's
        delivery path applies the alive check.

        Loss draws, burst chains, backoff and ARQ jitter all shard
        cleanly because they come from the acting sender's per-node
        stream (:meth:`Simulator.node_rng`), which only the sender's
        owner advances.  Only an *observed medium* (CSMA carrier
        sensing, receiver-side collisions) cannot shard: the medium is
        global state no conservative protocol can reproduce locally.
        """
        if self._medium_observed:
            raise ConfigurationError(
                "sharded execution requires csma=False and collisions=False "
                "(the medium is global state)"
            )
        self._shard_owned = np.asarray(owned, dtype=bool)

    def owns(self, node: int) -> bool:
        """Whether this process simulates ``node`` authoritatively.

        Always ``True`` unsharded.  Protocol-layer actions that every
        replicated world would otherwise perform (MLR's round-boundary
        NOTIFY floods) gate on this so exactly one worker puts the frame
        on the air.
        """
        return self._shard_owned is None or bool(self._shard_owned[node])

    def take_shard_exports(self) -> list[tuple]:
        """Drain and return receptions exported since the last call."""
        out = self._shard_out
        self._shard_out = []
        return out

    def deliver_remote(
        self, arrive: float, receiver: int, sender: int, packet: Packet, attempt: int = 0
    ) -> None:
        """Inject a reception exported by another shard.

        Scheduled at the exact absolute ``arrive`` time the exporting
        shard computed, through :meth:`_deliver_direct` — the same
        terminal path an ideal-radio reception takes locally, so energy
        charges, death handling and metrics are bit-identical.
        """
        self.sim.schedule_at(arrive, self._deliver_direct, receiver, packet, sender, attempt)

    # ------------------------------------------------------------------
    def send(self, sender: int, packet: Packet) -> bool:
        """Queue a frame for transmission by ``sender``.

        Returns ``False`` (and records a drop) if the sender is dead.  The
        frame's link source is stamped to ``sender``; ``packet.dst`` decides
        unicast (one intended receiver) vs broadcast (all neighbors).
        """
        node = self.network.nodes[sender]
        if not node.alive:
            # A dead sender holds the only copy of whatever it carries —
            # terminal for any datum aboard.
            self.metrics.on_terminal_drop("dead_node", packet, node=sender, now=self.sim.now)
            return False
        packet.src = sender

        if self._medium_observed:
            self._sends_since_prune += 1
            if self._sends_since_prune >= self._prune_every:
                self.medium.prune(self.sim.now)
                self._sends_since_prune = 0

        jitter = self._jitter(sender) if self.config.csma else 0.0
        self.sim.schedule(jitter, self._begin_tx, sender, packet)
        return True

    # ------------------------------------------------------------------
    def _begin_tx(self, sender: int, packet: Packet, attempt: int = 0) -> None:
        node = self.network.nodes[sender]
        if not node.alive:
            # Sender died between queuing and transmit — the frame (and
            # any datum it carries) dies with it.
            self.metrics.on_terminal_drop("dead_node", packet, node=sender, now=self.sim.now)
            return
        if self.config.csma:
            # Carrier sensing happens at transmit time: defer while any
            # frame this node can hear (or its own) is on the air, then
            # back off by a random slice of the contention window.
            hearers = set(int(x) for x in self.network.neighbors(sender))
            free = self.medium.earliest_free(hearers, sender, self.sim.now)
            if free > self.sim.now:
                backoff = self._jitter(sender)
                self.sim.schedule(
                    free - self.sim.now + backoff, self._begin_tx, sender, packet, attempt
                )
                return

        bits = packet.size_bits()
        airtime = self.config.airtime(bits)
        start = self.sim.now
        end = start + airtime
        if self._medium_observed:
            self.medium.register_tx(sender, start, end)

        # The paper's identical-power assumption: every frame is amplified
        # to cover the full communication range (Section 5.2).
        tx_joules = self.energy_model.tx_cost(bits, self.config.comm_range)
        was_alive = node.energy.alive
        node.energy.charge_tx(tx_joules, start)
        if was_alive and not node.energy.alive:
            self.metrics.on_node_death(sender, start)
        self.metrics.on_send(packet)

        neighbors = self.network.neighbors(sender)
        if self._batched and packet.dst is None:
            self._fanout_batched(sender, packet, neighbors, start, end)
        else:
            self._fanout_vectorized(sender, packet, attempt, neighbors, start, end)

    def _fanout_vectorized(
        self, sender: int, packet: Packet, attempt: int,
        neighbors: np.ndarray, start: float, end: float,
    ) -> None:
        """Per-event fan-out: one NumPy pass for distance/propagation/loss.

        Loss draws are taken as one batch in neighbor order, exactly the
        sequence a per-receiver scalar loop consumes, so the RNG stream
        and the schedule equal that loop's (the reference in
        ``tests/oracle.py``).  Sharded, a surviving reception at a
        non-owned receiver is exported at the event time it would have
        been scheduled for instead of being scheduled.
        """
        dst = packet.dst
        n = len(neighbors)
        if n == 0:
            if dst is not None:
                self.metrics.on_terminal_drop("no_link", packet, node=sender, now=self.sim.now)
            return
        props = self.network.distances_from(sender, neighbors) / _SPEED_OF_LIGHT
        arrive_l = (end + props).tolist()
        nb_l = neighbors.tolist()

        loss_rate = self.config.loss_rate
        lost_l = None
        if self.config.burst is not None:
            if dst is None:
                lost_l = self._burst_losses(sender, nb_l)
            else:
                intended_ids = [nb for nb in nb_l if nb == dst]
                if intended_ids:
                    flags = iter(self._burst_losses(sender, intended_ids))
                    lost_l = [nb == dst and next(flags) for nb in nb_l]
        elif loss_rate > 0.0:
            if dst is None:
                lost_l = (self.sim.node_rng(sender).random(n) < loss_rate).tolist()
            else:
                intended_mask = neighbors == dst
                k = int(intended_mask.sum())
                if k:
                    lost = np.zeros(n, dtype=bool)
                    lost[intended_mask] = self.sim.node_rng(sender).random(k) < loss_rate
                    lost_l = lost.tolist()

        detect = self.config.collisions
        interference = self._medium_observed
        deliver = self._deliver if interference else None
        register = self.medium.register_reception
        schedule = self.sim.schedule
        now = self.sim.now
        start_l = (start + props).tolist() if interference else None
        owned = self._shard_owned
        found_dst = dst is None
        for idx in range(n):
            nb = nb_l[idx]
            intended = dst is None or nb == dst
            if not intended:
                if interference:
                    register(nb, start_l[idx], arrive_l[idx], packet, sender, False, detect)
                continue
            found_dst = True
            arrive = arrive_l[idx]
            if lost_l is not None and lost_l[idx]:
                self.metrics.on_drop("loss")
                if interference:
                    # The frame is lost to the receiver, not to physics:
                    # its energy still occupies the medium and collides
                    # with overlapping receptions (non-deliverable entry).
                    register(nb, start_l[idx], arrive, packet, sender, False, detect)
                if dst is not None:
                    schedule(arrive - now, self._maybe_retry, sender, packet, attempt)
                continue
            if interference:
                rec = register(nb, start_l[idx], arrive, packet, sender, True, detect)
                schedule(arrive - now, deliver, nb, rec, sender, attempt)
            elif owned is not None and not owned[nb]:
                # Another shard's receiver: ship the exact Event.time
                # schedule() would have computed.
                self._shard_out.append((now + (arrive - now), nb, sender, packet, attempt))
            else:
                # Ideal radio: no carrier sensing, no collisions — the
                # reception record would never be read, deliver directly.
                schedule(arrive - now, self._deliver_direct, nb, packet, sender, attempt)

        if not found_dst:
            # Link-layer unicast to a node that moved/died out of range.
            self.metrics.on_terminal_drop("no_link", packet, node=sender, now=self.sim.now)

    # ------------------------------------------------------------------
    # batched draining (struct-of-arrays hot path)
    # ------------------------------------------------------------------
    def _fanout_batched(
        self, sender: int, packet: Packet,
        neighbors: np.ndarray, start: float, end: float,
    ) -> None:
        """Broadcast fan-out as one sorted delivery run.

        Instead of one heap event per surviving receiver, all deliveries
        of the frame become a single queued run whose entries carry the
        exact ``(time, seq)`` keys per-event scheduling would have
        produced: sequence numbers are reserved in neighbor order (the
        order :meth:`_fanout_vectorized` consumes them), event times are
        computed with the same float expression ``schedule`` uses, and
        entries are stably sorted by time.  RNG draws are taken in the
        identical order and shapes, so the run is a pure re-packaging
        of the per-event schedule.  Sharded, survivors at non-owned
        receivers are exported with those same times before any seq is
        reserved.
        """
        n = len(neighbors)
        if n == 0:
            return
        props = self.network.distances_from(sender, neighbors) / _SPEED_OF_LIGHT
        now = self.sim.now
        # Exactly Event.time as schedule(arrive - now) computes it:
        # now + ((end + prop) - now), elementwise.
        ev_times = ((end + props) - now) + now

        lost = None
        loss_rate = self.config.loss_rate
        if self.config.burst is not None:
            lost = np.asarray(self._burst_losses(sender, neighbors.tolist()), dtype=bool)
        elif loss_rate > 0.0:
            lost = self.sim.node_rng(sender).random(n) < loss_rate

        if lost is not None and lost.any():
            for _ in range(int(lost.sum())):
                self.metrics.on_drop("loss")
            keep = ~lost
            kept_ids = neighbors[keep]
            kept_times = ev_times[keep]
        else:
            kept_ids = neighbors
            kept_times = ev_times
        owned = self._shard_owned
        if owned is not None:
            local = owned[kept_ids]
            if not local.all():
                remote = ~local
                out = self._shard_out
                for t, nb in zip(kept_times[remote].tolist(), kept_ids[remote].tolist()):
                    out.append((t, nb, sender, packet, 0))
                kept_ids = kept_ids[local]
                kept_times = kept_times[local]
        k = len(kept_ids)
        if k == 0:
            return
        # One seq per scheduled delivery, reserved in neighbor order —
        # per-event scheduling's allocation — then stably sorted by time,
        # which yields exact (time, seq) heap order.
        base = self.sim.alloc_seqs(k)
        order = np.argsort(kept_times, kind="stable")
        rx_j = self.energy_model.rx_cost(packet.size_bits())
        entries = list(
            zip(
                kept_times[order].tolist(),
                (base + order).tolist(),
                kept_ids[order].tolist(),
                itertools.repeat(rx_j),
                itertools.repeat(packet),
                itertools.repeat(packet.kind),
            )
        )
        self._enqueue_run(entries)

    def _enqueue_run(self, entries: list) -> None:
        """Merge a sorted delivery run, re-arming the pump if now earliest.

        When the buffer is drained the run simply becomes the new buffer;
        otherwise each entry bisect-inserts into the unconsumed tail
        (entries within a run are increasing, so each search starts where
        the previous insert landed).  New deliveries are always in the
        strict future, so the consumed prefix is never disturbed.

        The pump's engine event always sits at the earliest pending
        delivery's *original* ``(time, seq)`` key, so its ordering
        against every other event equals that delivery's.  Fan-outs only
        ever run from engine-event context (``send`` schedules
        ``_begin_tx``; handlers never transmit synchronously), so this
        never executes while :meth:`_pump` is mid-drain.
        """
        buf = self._buf
        if self._pos >= len(buf):
            self._buf = buf = entries
            self._pos = 0
        else:
            lo = self._pos
            insert = buf.insert
            for e in entries:
                j = bisect(buf, e, lo)
                insert(j, e)
                lo = j + 1
        head = buf[self._pos]
        t0 = head[0]
        s0 = head[1]
        ev = self._pump_event
        if ev is None:
            self._pump_event = self.sim.push_event_at(t0, s0, self._pump)
        elif t0 < ev.time or (t0 == ev.time and s0 < ev.seq):
            ev.cancel()
            self._pump_event = self.sim.push_event_at(t0, s0, self._pump)

    def _pump(self) -> None:
        """Drain pending broadcast deliveries in global ``(time, seq)`` order.

        Pending deliveries live in one flat key-sorted buffer (new runs
        are merged at enqueue time), so the drain is a single tight loop
        advancing a cursor.  Three ordering guards keep this a pure
        re-packaging of per-event delivery:

        * every entry executes at exactly the ``(time, seq)`` key its own
          heap event would have had — an entry never runs past a key that
          precedes it, whether that key belongs to another frame's
          delivery or to any other scheduled event;
        * after a handler that scheduled new work the engine bound is
          re-derived, since the new event may have to interleave;
        * energy charges, deaths and drops happen per entry in that exact
          order (one scalar store op each), so float accumulation order
          matches per-event delivery bitwise.

        Only the ``received`` counters are coalesced (they are pure
        increments — addition order cannot be observed): consecutive
        entries of one packet kind accumulate locally and flush on kind
        change and at exit, so metrics are complete whenever the engine
        regains control.  When entries remain past the engine bound or
        the ``run(until=...)`` horizon, the pump re-parks at the next
        entry's original key — the buffer itself stays in place.

        The loop writes ``sim._now`` and reads ``sim._seq`` directly
        rather than through :attr:`Simulator.seq_marker` — entry keys are
        globally nondecreasing by construction, so the clock only moves
        forward, and at ~100k entries per simulated flood the property
        dispatch is measurable.
        """
        sim = self.sim
        store = self._store
        metrics = self.metrics
        self._pump_event = None
        entries = self._buf

        alive_l = store.alive_list
        handlers = store.handlers
        spent_rx = store.spent_rx
        rx_count = store.rx_count
        fast_l = store.fast_list
        peek = sim.peek_key
        q = sim._queue
        horizon = sim.horizon
        if horizon is None:
            horizon = math.inf
        inf_key = (math.inf, 0)
        maxseq = sim.seq_marker + (1 << 32)  # beyond any live seq
        received = metrics.received
        on_drop = metrics.on_drop

        # Run bound: min(engine top, horizon key).  The horizon wins only
        # when strictly earlier — a live event at the horizon still
        # precedes parked entries with the same time and a later seq.
        top = peek() or inf_key
        if horizon < top[0]:
            bt, bs = horizon, maxseq
        else:
            bt = top[0]
            bs = top[1]

        n = len(entries)
        i = i0 = self._pos
        got = 0
        cur_kind = None
        seq_mark = sim._seq
        while i < n:
            t, s, nb, rx_j, packet, kind = entries[i]
            if t > bt or (t == bt and s > bs):
                break
            sim._now = t  # nondecreasing: entries run in global key order
            i += 1
            if fast_l[nb]:
                # Mains powered and alive: remaining stays inf (inf - j
                # is inf bitwise, as a full charge computes it) and no
                # death is possible — the charge is two adds.
                spent_rx[nb] += rx_j
                rx_count[nb] += 1
                if kind is cur_kind:
                    got += 1
                else:
                    if got:
                        received[cur_kind] += got
                    cur_kind = kind
                    got = 1
                handler = handlers[nb]
                if handler is not None:
                    handler(packet)
                    if sim._seq != seq_mark:
                        # The handler scheduled something; it may have
                        # to fire before our next entry — re-derive the
                        # engine part of the bound.  A seq bump means at
                        # least one push, so the queue is non-empty;
                        # only a cancelled top forces the full lazy peek.
                        seq_mark = sim._seq
                        tk = q[0]
                        top = tk if not tk[2].cancelled else (peek() or inf_key)
                        if horizon < top[0]:
                            bt, bs = horizon, maxseq
                        else:
                            bt = top[0]
                            bs = top[1]
            elif alive_l[nb]:
                # Finite battery: full scalar charge with the death
                # bookkeeping of per-event delivery.
                store.charge_rx(nb, rx_j, t)
                if not store.energy_alive[nb]:
                    # Battery died mid-reception; the frame was never
                    # processed.
                    metrics.on_node_death(nb, t)
                    on_drop("dead_node")
                    continue
                if kind is cur_kind:
                    got += 1
                else:
                    if got:
                        received[cur_kind] += got
                    cur_kind = kind
                    got = 1
                handler = handlers[nb]
                if handler is not None:
                    handler(packet)
                    if sim._seq != seq_mark:
                        seq_mark = sim._seq
                        tk = q[0]
                        top = tk if not tk[2].cancelled else (peek() or inf_key)
                        if horizon < top[0]:
                            bt, bs = horizon, maxseq
                        else:
                            bt = top[0]
                            bs = top[1]
            else:
                # Broadcast copy to a dead receiver: frame-level loss
                # only, sibling copies may still deliver.
                on_drop("dead_node")

        if got:
            received[cur_kind] += got
        # The pump's own engine event already counted as one processed
        # event; only the surplus entries are tallied on top of it.
        sim.tally_batch_entries(i - i0 - 1)
        if i < n:
            if i > 8192:
                # Amortized compaction: drop the consumed prefix at most
                # once per 8k entries so the buffer stays bounded without
                # re-copying the unconsumed tail on every park.
                del entries[:i]
                i = 0
            self._pos = i
            head = entries[i]
            self._pump_event = sim.push_event_at(head[0], head[1], self._pump)
        else:
            entries.clear()
            self._pos = 0

    # ------------------------------------------------------------------
    def _maybe_retry(self, sender: int, packet: Packet, attempt: int) -> None:
        """ARQ: retransmit a failed unicast frame (802.15.4 macMaxFrameRetries)."""
        if attempt >= self.config.arq_retries:
            self.metrics.on_terminal_drop(
                "arq_exhausted", packet, node=sender, now=self.sim.now
            )
            return
        if not self.network.nodes[sender].alive:
            # The retransmitter died between the failed attempt and the
            # retry: the frame vanished silently before this fix.
            self.metrics.on_terminal_drop("dead_node", packet, node=sender, now=self.sim.now)
            return
        self.sim.schedule(self._jitter(sender), self._begin_tx, sender, packet, attempt + 1)

    # ------------------------------------------------------------------
    def _deliver(self, receiver: int, rec, sender: int, attempt: int) -> None:
        if self.config.collisions and rec.collided:
            self.metrics.on_drop("collision")
            if rec.packet.dst is not None:
                self._maybe_retry(sender, rec.packet, attempt)
            return
        self._deliver_direct(receiver, rec.packet, sender, attempt)

    def _deliver_direct(self, receiver: int, packet: Packet, sender: int, attempt: int) -> None:
        """Reception without medium bookkeeping (collision-free radios)."""
        node = self.network.nodes[receiver]
        if not node.alive:
            # Unicast to a dead receiver gets no ACK and no retry event:
            # terminal for the frame's datum.  A broadcast copy is only a
            # frame-level loss — sibling copies may still deliver.
            if packet.dst is not None:
                self.metrics.on_terminal_drop(
                    "dead_node", packet, node=receiver, now=self.sim.now
                )
            else:
                self.metrics.on_drop("dead_node")
            return
        bits = packet.size_bits()
        was_alive = node.energy.alive
        node.energy.charge_rx(self.energy_model.rx_cost(bits), self.sim.now)
        if was_alive and not node.energy.alive:
            self.metrics.on_node_death(receiver, self.sim.now)
            # The receiver's battery died mid-reception — the frame was
            # never processed, and nothing else will account for it.
            if packet.dst is not None:
                self.metrics.on_terminal_drop(
                    "dead_node", packet, node=receiver, now=self.sim.now
                )
            else:
                self.metrics.on_drop("dead_node")
            return
        self.metrics.on_receive(packet)
        node.receive(packet)
