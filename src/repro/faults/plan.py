"""Declarative fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a serializable value object — an ordered tuple of
fault events, each a frozen ``@serializable`` dataclass.  Plans carry no
behaviour: the :class:`~repro.faults.injector.FaultInjector` compiles
them onto the simulator event queue at world-build time.  Because plans
round-trip through :mod:`repro.sim.serialize` they travel inside sweep
params, hash into cache keys, and replay bit-identically from
``.repro_cache`` — the same plan plus the same seed is the same run.

Event vocabulary (Section 8's failure discussion, made concrete):

:class:`Crash` / :class:`Recover`
    Hardware fail-stop at ``t`` and (optionally) repair at a later ``t``.
:class:`RegionOutage`
    Every node inside a disc goes down on ``[t0, t1)`` — a localized
    environmental event (fire, flooding) in the pervasive deployments
    the paper targets.  Victims are resolved at ``t0`` against node
    positions, so mobile topologies fault whoever is actually there.
:class:`GatewayChurn`
    Gateways crash and recover round-robin: one every ``period``
    seconds, each down for ``downtime``.
:class:`BatteryDrain`
    Instantly drains a fraction of the node's *remaining* energy —
    models an unmodelled consumer (sensing burst, cold snap).  A
    fraction of 1.0 is battery death, which is permanent.
:class:`LinkDegrade`
    Swap the channel config on ``[t0, t1)`` — raise i.i.d. loss and/or
    enable the Gilbert–Elliott bursty-loss chain — then restore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.exceptions import ConfigurationError
from repro.sim.radio import GilbertElliott
from repro.sim.serialize import from_jsonable, serializable, to_jsonable

__all__ = [
    "Crash",
    "Recover",
    "RegionOutage",
    "GatewayChurn",
    "BatteryDrain",
    "LinkDegrade",
    "FaultPlan",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigurationError(msg)


@serializable
@dataclass(frozen=True)
class Crash:
    """Fail-stop node ``node`` at time ``t`` (hardware fault, not battery)."""

    node: int
    t: float

    def __post_init__(self) -> None:
        _require(self.t >= 0.0, f"crash time must be >= 0, got {self.t}")


@serializable
@dataclass(frozen=True)
class Recover:
    """Repair node ``node`` at time ``t``.

    A no-op on nodes that are not failed; battery-dead nodes stay dead
    (the injector checks :meth:`~repro.sim.state.NodeView.recover`'s return
    before rejoining the node to the protocol).
    """

    node: int
    t: float

    def __post_init__(self) -> None:
        _require(self.t >= 0.0, f"recover time must be >= 0, got {self.t}")


@serializable
@dataclass(frozen=True)
class RegionOutage:
    """All nodes within ``radius`` of ``center`` are down on ``[t0, t1)``."""

    center: tuple
    radius: float
    t0: float
    t1: float

    def __post_init__(self) -> None:
        _require(len(self.center) == 2, "region center must be an (x, y) pair")
        _require(self.radius >= 0.0, f"region radius must be >= 0, got {self.radius}")
        _require(0.0 <= self.t0 < self.t1, f"need 0 <= t0 < t1, got [{self.t0}, {self.t1})")


@serializable
@dataclass(frozen=True)
class GatewayChurn:
    """Round-robin gateway crashes: one every ``period``, down ``downtime``.

    Starting at ``start``, gateway ``k`` (in network id order) goes down
    at ``start + k * period`` for ``downtime`` seconds; after the last
    gateway the cycle repeats ``cycles`` times in total.  ``downtime <
    period`` keeps at most one gateway down at a time (the interesting
    regime: traffic must redirect, not die); overlap is allowed but the
    injector leaves already-failed nodes alone rather than stacking.
    """

    period: float
    downtime: float
    start: float = 0.0
    cycles: int = 1

    def __post_init__(self) -> None:
        _require(self.period > 0.0, f"churn period must be > 0, got {self.period}")
        _require(self.downtime > 0.0, f"churn downtime must be > 0, got {self.downtime}")
        _require(self.start >= 0.0, f"churn start must be >= 0, got {self.start}")
        _require(self.cycles >= 1, f"churn cycles must be >= 1, got {self.cycles}")


@serializable
@dataclass(frozen=True)
class BatteryDrain:
    """Drain ``fraction`` of node ``node``'s remaining energy at ``t``.

    Mains-powered nodes (infinite capacity) are unaffected.  Draining to
    zero kills the node permanently — no :class:`Recover` resurrects it.
    """

    node: int
    t: float
    fraction: float

    def __post_init__(self) -> None:
        _require(self.t >= 0.0, f"drain time must be >= 0, got {self.t}")
        _require(0.0 <= self.fraction <= 1.0,
                 f"drain fraction must be in [0, 1], got {self.fraction}")


@serializable
@dataclass(frozen=True)
class LinkDegrade:
    """Degrade the shared channel on ``[t0, t1)``, then restore it.

    Either or both of ``loss_rate`` (i.i.d.) and ``burst`` (a
    :class:`~repro.sim.radio.GilbertElliott` chain) may be set; unset
    fields keep the channel's current values.  At ``t1`` the config
    captured at ``t0`` is restored — overlapping degrade windows
    therefore resolve last-restore-wins.
    """

    t0: float
    t1: float
    loss_rate: Optional[float] = None
    burst: Optional[GilbertElliott] = None

    def __post_init__(self) -> None:
        _require(0.0 <= self.t0 < self.t1, f"need 0 <= t0 < t1, got [{self.t0}, {self.t1})")
        if self.loss_rate is not None:
            _require(0.0 <= self.loss_rate <= 1.0,
                     f"loss_rate must be in [0, 1], got {self.loss_rate}")
        _require(self.loss_rate is not None or self.burst is not None,
                 "a LinkDegrade must set loss_rate and/or burst")


FaultEvent = Union[Crash, Recover, RegionOutage, GatewayChurn, BatteryDrain, LinkDegrade]
_EVENT_TYPES = (Crash, Recover, RegionOutage, GatewayChurn, BatteryDrain, LinkDegrade)


@serializable
@dataclass(frozen=True)
class FaultPlan:
    """An ordered, serializable collection of fault events.

    Event order is part of the plan's identity (it fixes the simulator's
    tie-break order for same-time events), so two plans with the same
    events in different order hash to different cache keys — and replay
    in their own, internally consistent order.
    """

    events: tuple = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for ev in self.events:
            if not isinstance(ev, _EVENT_TYPES):
                raise ConfigurationError(
                    f"not a fault event: {ev!r} (expected one of "
                    f"{', '.join(t.__name__ for t in _EVENT_TYPES)})"
                )

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def extend(self, *events: FaultEvent) -> "FaultPlan":
        """A new plan with ``events`` appended (plans are immutable)."""
        return FaultPlan(self.events + tuple(events))

    @property
    def last_event_time(self) -> float:
        """Latest timestamp any event in the plan touches (0 when empty).

        ``GatewayChurn`` is unbounded by gateway count here, so its
        contribution uses only the schedule the plan itself fixes; the
        injector knows the real end once it sees the network.
        """
        latest = 0.0
        for ev in self.events:
            if isinstance(ev, (Crash, Recover, BatteryDrain)):
                latest = max(latest, ev.t)
            elif isinstance(ev, (RegionOutage, LinkDegrade)):
                latest = max(latest, ev.t1)
            elif isinstance(ev, GatewayChurn):
                latest = max(latest, ev.start + ev.cycles * ev.period + ev.downtime)
        return latest

    # -- param-boundary helpers ----------------------------------------
    def to_param(self) -> dict:
        """Encode for an experiment params dict / sweep cache key."""
        return to_jsonable(self)

    @classmethod
    def from_param(cls, value) -> "FaultPlan":
        """Decode a params-dict value: a plan, its jsonable form, or None."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        decoded = from_jsonable(value)
        if not isinstance(decoded, cls):
            raise ConfigurationError(f"not a FaultPlan: {value!r}")
        return decoded
