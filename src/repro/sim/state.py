"""Struct-of-arrays node state: the single home of per-node state.

:class:`NodeStateStore` keeps every per-node scalar — battery columns,
liveness flags and tx/rx counters — in contiguous NumPy arrays (one
array per column: the classic struct-of-arrays layout).  ``Network.nodes``
presents each row as a :class:`NodeView` (with its battery as an
:class:`EnergyView`), which is what protocols, fault injection and
analysis code talk to; the radio hot path reads and charges the columns
directly, which is what makes batched same-timestamp delivery draining
(see :class:`repro.sim.radio.Channel`) a tight loop instead of thousands
of attribute chains.

Battery semantics
-----------------
A charge subtracts from ``remaining`` and adds to its ``spent_*``
category.  A finite battery that reaches zero dies permanently at that
drain: ``remaining`` clamps to 0 and ``died_at`` records the time.
Mains-powered rows (``capacity = inf``; gateways, "let gateways have
unrestricted energy", Section 5.3) never die.  The first sensor death
is the paper's network-lifetime definition.  A dead battery refuses
further charges.

View invalidation
-----------------
Views never cache row values — every property reads the column at access
time — so there is nothing to invalidate when the store mutates.  The
one derived column, ``alive``, is *maintained*: every mutation that can
flip liveness (battery death, ``failed``/``sleeping`` writes) funnels
through :meth:`NodeStateStore.refresh_alive`, which edge-detects against
the stored value and fires the per-node listener exactly once per actual
flip.  Arrays returned by
:meth:`energy_columns` are read-only windows onto the columns.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sim.node import NodeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.packet import Packet

__all__ = ["NodeStateStore", "EnergyView", "NodeView"]


def _readonly(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


class NodeStateStore:
    """Columnar per-node state for one network.

    Parameters
    ----------
    kinds:
        Node role per row (fixed at construction, like positions).
    capacities:
        Initial battery capacity per row in joules (``math.inf`` for
        mains-powered kinds).

    Columns (all length ``n``)
    --------------------------
    ``capacity, remaining, spent_tx, spent_rx, spent_idle`` : float64
        The battery account (see "Battery semantics" above).
    ``died_at`` : float64
        Battery-death time; ``nan`` while the battery lives (views
        report ``None``).
    ``energy_alive, failed, sleeping, alive, finite`` : bool
        Liveness flags; ``alive`` is the maintained conjunction
        ``energy_alive & ~failed & ~sleeping``; ``finite`` marks rows
        whose battery can actually be exhausted (the batched-charge
        fast path requires an all-infinite run — see
        :meth:`charge`).
    ``tx_count, rx_count`` : Python int lists
        Frames transmitted / received per node.  These two columns are
        plain Python lists rather than arrays: they are bumped once per
        delivered frame on the pump hot path, integer increments are
        order-free, and a list index costs a fraction of a NumPy scalar
        access — :meth:`counter_columns`
        materializes int64 arrays on demand.
    """

    __slots__ = (
        "n", "kinds", "capacity", "remaining", "spent_tx", "spent_rx",
        "spent_idle", "died_at", "energy_alive", "failed", "sleeping",
        "alive", "finite", "tx_count", "rx_count", "handlers",
        "alive_list", "finite_list", "fast_list", "_listeners",
        "_death_hooks", "_energy_views",
    )

    def __init__(self, kinds: Sequence[NodeKind], capacities: Sequence[float]) -> None:
        n = len(kinds)
        if len(capacities) != n:
            raise ConfigurationError("kinds and capacities must have equal length")
        cap = np.asarray(capacities, dtype=np.float64)
        if np.any(cap < 0):
            raise ConfigurationError("battery capacity must be non-negative")
        self.n = n
        self.kinds: list[NodeKind] = list(kinds)
        self.capacity = cap.copy()
        self.remaining = cap.copy()
        self.spent_tx = np.zeros(n, dtype=np.float64)
        self.spent_rx = np.zeros(n, dtype=np.float64)
        self.spent_idle = np.zeros(n, dtype=np.float64)
        self.died_at = np.full(n, np.nan, dtype=np.float64)
        self.energy_alive = np.ones(n, dtype=bool)
        self.failed = np.zeros(n, dtype=bool)
        self.sleeping = np.zeros(n, dtype=bool)
        self.alive = np.ones(n, dtype=bool)
        self.finite = np.isfinite(cap)
        self.tx_count: list[int] = [0] * n
        self.rx_count: list[int] = [0] * n
        self.handlers: list[Optional[Callable[["Packet"], None]]] = [None] * n
        # Python-list mirrors of ``alive`` and ``finite``: the delivery
        # pump checks liveness once per drained entry, and a list index
        # is ~3x cheaper than a NumPy scalar lookup at that call
        # frequency.  ``fast_list`` is the maintained conjunction
        # ``alive and not finite`` — the pump's one-lookup test for "no
        # death possible, charge is two adds".
        self.alive_list: list[bool] = [True] * n
        self.finite_list: list[bool] = [bool(f) for f in self.finite]
        self.fast_list: list[bool] = [not f for f in self.finite_list]
        self._listeners: list[Optional[Callable[[int, bool], None]]] = [None] * n
        self._death_hooks: list[Optional[Callable[[], None]]] = [None] * n
        self._energy_views: list[Optional[EnergyView]] = [None] * n

    # ------------------------------------------------------------------
    # public column windows
    # ------------------------------------------------------------------
    def energy_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(remaining, spent)`` windows; ``spent`` is computed."""
        spent = self.spent_tx + self.spent_rx + self.spent_idle
        spent.flags.writeable = False
        return _readonly(self.remaining), spent

    def counter_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(tx_count, rx_count)`` materialized as int64 arrays."""
        return (
            np.asarray(self.tx_count, dtype=np.int64),
            np.asarray(self.rx_count, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def node_view(self, node_id: int) -> "NodeView":
        return NodeView(self, node_id)

    def energy_view(self, node_id: int) -> "EnergyView":
        view = self._energy_views[node_id]
        if view is None:
            view = EnergyView(self, node_id)
            self._energy_views[node_id] = view
        return view

    # ------------------------------------------------------------------
    # liveness maintenance
    # ------------------------------------------------------------------
    def refresh_alive(self, i: int) -> None:
        """Re-derive ``alive[i]``; edge-detect and notify the listener.

        The listener fires once per actual flip, and a battery dying on
        an already-failed node stays silent.
        """
        now_alive = bool(
            self.energy_alive[i] and not self.failed[i] and not self.sleeping[i]
        )
        if now_alive != self.alive_list[i]:
            self.alive[i] = now_alive
            self.alive_list[i] = now_alive
            self.fast_list[i] = now_alive and not self.finite_list[i]
            listener = self._listeners[i]
            if listener is not None:
                listener(i, now_alive)

    def bind_alive_listener(self, i: int, listener: Callable[[int, bool], None]) -> None:
        self._listeners[i] = listener

    def set_failed(self, i: int, value: bool) -> None:
        self.failed[i] = value
        self.refresh_alive(i)

    def set_sleeping(self, i: int, value: bool) -> None:
        self.sleeping[i] = value
        self.refresh_alive(i)

    def _kill_battery(self, i: int, now: float) -> None:
        """Battery exhaustion: permanent, recorded at ``now``."""
        self.remaining[i] = 0.0
        self.died_at[i] = now
        self.energy_alive[i] = False
        hook = self._death_hooks[i]
        if hook is not None:
            hook()
        self.refresh_alive(i)

    # ------------------------------------------------------------------
    # scalar energy ops
    # ------------------------------------------------------------------
    def _drain(self, i: int, joules: float, now: float) -> bool:
        if not self.energy_alive[i]:
            return False
        r = float(self.remaining[i]) - joules
        self.remaining[i] = r
        if r <= 0 and self.finite[i]:
            self._kill_battery(i, now)
        return True

    def charge_tx(self, i: int, joules: float, now: float) -> bool:
        """Charge one transmission; returns False if the battery was dead."""
        ok = self._drain(i, joules, now)
        if ok:
            self.spent_tx[i] += joules
            self.tx_count[i] += 1
        return ok

    def charge_rx(self, i: int, joules: float, now: float) -> bool:
        """Charge one reception; returns False if the battery was dead."""
        ok = self._drain(i, joules, now)
        if ok:
            self.spent_rx[i] += joules
            self.rx_count[i] += 1
        return ok

    def charge_idle(self, i: int, joules: float, now: float) -> bool:
        """Charge idle listening; returns False if the battery was dead."""
        ok = self._drain(i, joules, now)
        if ok:
            self.spent_idle[i] += joules
        return ok

    # ------------------------------------------------------------------
    # batched energy op
    # ------------------------------------------------------------------
    # No caller in src/; benchmarks/e2e/tracer.py wraps it by name.
    def charge(self, ids: np.ndarray, joules: float, kind: str = "rx") -> None:
        """Charge every node in ``ids`` with ``joules`` as one vector op.

        Only valid for a run of *distinct, alive, infinite-capacity*
        receivers: an infinite battery's ``remaining`` stays ``inf``
        under any finite subtraction, no death can occur, and each
        ``spent_*`` cell receives exactly one addition, so there is no
        accumulation order to preserve — which is what makes the vector
        form bit-identical to per-entry scalar charges.
        """
        self.remaining[ids] -= joules
        if kind == "rx":
            self.spent_rx[ids] += joules
            counts = self.rx_count
        elif kind == "tx":
            self.spent_tx[ids] += joules
            counts = self.tx_count
        else:
            self.spent_idle[ids] += joules
            return
        for i in ids:
            counts[i] += 1


class EnergyView(object):
    """One store row's battery account.

    Supports every read and mutation the codebase performs on a battery
    (fault injection drains batteries, LEACH cross-charges cluster heads,
    analysis sums ``spent``).  Scalars come back as Python floats.
    """

    __slots__ = ("_store", "_i")

    def __init__(self, store: NodeStateStore, i: int) -> None:
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "_i", i)

    # -- fields ----------------------------------------------------------
    @property
    def capacity(self) -> float:
        return float(self._store.capacity[self._i])

    @property
    def remaining(self) -> float:
        return float(self._store.remaining[self._i])

    @remaining.setter
    def remaining(self, value: float) -> None:
        self._store.remaining[self._i] = value

    @property
    def spent_tx(self) -> float:
        return float(self._store.spent_tx[self._i])

    @property
    def spent_rx(self) -> float:
        return float(self._store.spent_rx[self._i])

    @property
    def spent_idle(self) -> float:
        return float(self._store.spent_idle[self._i])

    @property
    def died_at(self) -> Optional[float]:
        v = self._store.died_at[self._i]
        return None if math.isnan(v) else float(v)

    @property
    def on_death(self) -> Optional[Callable[[], None]]:
        return self._store._death_hooks[self._i]

    @on_death.setter
    def on_death(self, hook: Optional[Callable[[], None]]) -> None:
        self._store._death_hooks[self._i] = hook

    # -- account API -----------------------------------------------------
    @property
    def alive(self) -> bool:
        return bool(self._store.energy_alive[self._i])

    @property
    def spent(self) -> float:
        return self.spent_tx + self.spent_rx + self.spent_idle

    def charge_tx(self, joules: float, now: float) -> bool:
        return self._store.charge_tx(self._i, joules, now)

    def charge_rx(self, joules: float, now: float) -> bool:
        return self._store.charge_rx(self._i, joules, now)

    def charge_idle(self, joules: float, now: float) -> bool:
        return self._store.charge_idle(self._i, joules, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EnergyView(node={self._i}, capacity={self.capacity!r}, "
            f"remaining={self.remaining!r}, spent={self.spent!r})"
        )


class NodeView(object):
    """One store row presented as a network node.

    ``node_id`` and ``kind`` are plain attributes (immutable per row);
    everything stateful routes through the store, including the
    edge-detected alive-listener contract the network's caches rely on.
    Position lives in the :class:`~repro.sim.network.Network` arrays;
    behaviour lives in the protocol that registers ``handler``.
    """

    __slots__ = ("_store", "node_id", "kind")

    def __init__(self, store: NodeStateStore, node_id: int) -> None:
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "node_id", node_id)
        object.__setattr__(self, "kind", store.kinds[node_id])

    # -- stateful fields ------------------------------------------------
    @property
    def handler(self) -> Optional[Callable[["Packet"], None]]:
        return self._store.handlers[self.node_id]

    @handler.setter
    def handler(self, fn: Optional[Callable[["Packet"], None]]) -> None:
        self._store.handlers[self.node_id] = fn

    @property
    def failed(self) -> bool:
        return bool(self._store.failed[self.node_id])

    @failed.setter
    def failed(self, value: bool) -> None:
        self._store.set_failed(self.node_id, value)

    @property
    def sleeping(self) -> bool:
        return bool(self._store.sleeping[self.node_id])

    @sleeping.setter
    def sleeping(self, value: bool) -> None:
        self._store.set_sleeping(self.node_id, value)

    @property
    def energy(self) -> EnergyView:
        return self._store.energy_view(self.node_id)

    # -- node API --------------------------------------------------------
    def bind_alive_listener(self, listener: Callable[[int, bool], None]) -> None:
        """Register ``listener(node_id, alive)``, fired once per actual
        liveness flip (battery death, fail/recover, sleep/wake)."""
        self._store.bind_alive_listener(self.node_id, listener)

    @property
    def alive(self) -> bool:
        """True when the node can participate in the network.

        A sleeping node (topology control, Section 4.4) has its radio
        off until woken; a failed node neither sends nor receives but
        keeps its residual energy (hardware fault, not exhaustion).
        """
        return self._store.alive_list[self.node_id]

    @property
    def died_at(self) -> Optional[float]:
        """Battery-death time, or None while the battery lives.  Injected
        failures keep residual energy and leave this None."""
        v = self._store.died_at[self.node_id]
        return None if math.isnan(v) else float(v)

    def receive(self, packet: "Packet") -> None:
        """Hand a delivered packet to the registered protocol handler."""
        store = self._store
        i = self.node_id
        handler = store.handlers[i]
        if handler is not None and store.alive_list[i]:
            handler(packet)

    def fail(self) -> None:
        """Inject a hardware failure (robustness experiments, E9)."""
        self.failed = True

    def recover(self) -> bool:
        """Clear an injected failure; returns whether the node is alive
        afterwards (battery exhaustion is permanent, faults are not).
        Callers that rejoin the node to a protocol (the fault injector)
        must check the return value before re-announcing."""
        self.failed = False
        return self.alive

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NodeView(node_id={self.node_id!r}, kind={self.kind!r}, "
            f"alive={self.alive!r})"
        )
