"""Outside-in layer tracer for the end-to-end benchmark.

The tracer never edits ``src/``: it swaps timing wrappers onto the public
entry points of each simulator layer for the duration of a ``with`` block
and restores the originals on exit.  Wrapped entry points:

* ``Simulator.run`` (engine);
* every callback handed to ``Simulator.schedule`` / ``schedule_at`` /
  ``push_event_at``, attributed to the module that owns the callback (the
  class of a bound method's ``self``, so a baseline subclassing a core
  protocol is charged to ``baselines``);
* the per-node receive handlers installed through ``NodeView.handler``;
* the ``Network`` queries, ``NodeStateStore.charge*``,
  ``MetricsCollector.on_*`` (plus its conservation audit), the crypto
  functions as bound in ``repro.core.secmlr``, ``WorldBuilder.build``,
  ``ExperimentAdapter.run``, ``SweepRunner.run`` and
  ``repro.shard.run_sharded``; ``Network.move_node`` calls are also counted.

One span per call would be millions of records (a dense flood makes ~1.7M
handler calls), so spans are folded on exit into ``count / total / self``
per ``(parent layer, layer)`` pair.  A span's self time is its duration
minus the time covered by its child spans.

Blind spots, by construction: work inlined into a wrapped function is
charged to that function's layer (the mains-powered reception charge inside
``Channel._pump`` is two list adds and shows up as radio time), and nothing
that runs in a pool or shard worker process is seen at all.
"""

from __future__ import annotations

import functools
import time
from types import ModuleType

from repro import shard
from repro.core import secmlr
from repro.experiments.registry import ExperimentAdapter
from repro.runner.sweep import SweepRunner
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.state import NodeStateStore, NodeView
from repro.sim.trace import MetricsCollector
from repro.world import WorldBuilder

__all__ = ["LayerTrace", "LAYERS"]

#: module prefix -> layer, most specific first.  Layers are named after
#: the modules they cover; anything unlisted is "other" (unattributed).
_MODULE_LAYERS = (
    ("repro.sim.engine", "engine"),
    ("repro.sim.radio", "radio"),
    ("repro.sim.mac", "radio"),
    ("repro.sim.network", "network"),
    ("repro.sim.spatial", "network"),
    ("repro.sim.state", "energy"),
    ("repro.sim.energy", "energy"),
    ("repro.sim.trace", "metrics"),
    ("repro.obs", "metrics"),
    ("repro.core", "core"),
    ("repro.baselines", "baselines"),
    ("repro.security", "security"),
    ("repro.world", "world"),
    ("repro.experiments", "experiments"),
    ("repro.runner", "runner"),
    ("repro.shard", "shard"),
)

#: every named layer, in report order
LAYERS = (
    "engine", "radio", "core", "baselines", "network", "energy", "metrics",
    "security", "world", "experiments", "runner", "shard",
)

_NETWORK_QUERIES = (
    "neighbors", "alive_neighbors", "distances_from", "hops_to",
    "move_node", "graph", "nodes_in_region",
)
_CHARGES = ("charge_tx", "charge_rx", "charge_idle", "charge")
_CRYPTO = ("compute_mac", "verify_mac", "encrypt", "encode_message")


@functools.lru_cache(maxsize=None)
def layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _owner_module(fn) -> str:
    """Module of the object that owns callback ``fn``."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    owner = getattr(fn, "__self__", None)
    if owner is not None and not isinstance(owner, ModuleType):
        return type(owner).__module__ or ""
    return getattr(fn, "__module__", None) or ""


class LayerTrace:
    """Folded per-layer spans over one ``with`` block.

    ``stats[(parent, layer)] = [count, total_s, self_s]``; ``parent`` is
    ``"root"`` for spans opened outside any other span.  ``wall_s`` is the
    duration of the block and ``root_self_s`` the part of it no span
    covered.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.root_self_s = 0.0
        #: gateway relocations (``Network.move_node`` calls)
        self.move_calls = 0
        #: layer -> parent layer -> [count, total_s, self_s]
        self._cells: dict[str, dict[str, list]] = {}
        # [layer of the innermost open span, seconds covered by closed spans]
        self._state = ["root", 0.0]
        self._saved: list[tuple[object, str, object]] = []

    @property
    def stats(self) -> dict[tuple[str, str], list]:
        return {
            (parent, layer): cell
            for layer, parents in self._cells.items()
            for parent, cell in parents.items()
        }

    # -- span machinery ------------------------------------------------
    def span(self, layer: str, fn, positional: bool = False):
        """``fn`` wrapped so each call is one ``layer`` span.

        Self time needs no per-call frame: every closed span adds its
        duration to one running "covered" total, so the time children
        covered is the growth of that total while the span was open.
        ``positional`` drops ``**kwargs`` handling, for the callbacks and
        receive handlers the engine and radio call millions of times with
        positional arguments only (it cuts the tracing overhead by ~0.1x).
        """
        state = self._state
        cells = self._cells.setdefault(layer, {})
        clock = time.perf_counter

        # The two bodies differ only in the call line; the bookkeeping is
        # inlined in both because a helper call per span is measurable.
        def traced(*args, **kwargs):
            parent = state[0]
            state[0] = layer
            covered = state[1]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                own = dur - (state[1] - covered)
                state[0] = parent
                state[1] = covered + dur
                cell = cells.get(parent)
                if cell is None:
                    cells[parent] = [1, dur, own]
                else:
                    cell[0] += 1
                    cell[1] += dur
                    cell[2] += own

        def traced_positional(*args):
            parent = state[0]
            state[0] = layer
            covered = state[1]
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - t0
                own = dur - (state[1] - covered)
                state[0] = parent
                state[1] = covered + dur
                cell = cells.get(parent)
                if cell is None:
                    cells[parent] = [1, dur, own]
                else:
                    cell[0] += 1
                    cell[1] += dur
                    cell[2] += own

        return traced_positional if positional else traced

    def callback_span(self, fn):
        return self.span(layer_of_module(_owner_module(fn)), fn, positional=True)

    # -- installation ----------------------------------------------------
    def _patch(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, owner, name: str, layer: str) -> None:
        self._patch(owner, name, self.span(layer, owner.__dict__[name]))

    def _install(self) -> None:
        wrap_cb = self.callback_span

        def scheduler(orig):
            def schedule(sim, when, fn, *args):
                return orig(sim, when, wrap_cb(fn), *args)

            return schedule

        def push_event_at(sim, when, seq, fn, *args):
            return orig_push(sim, when, seq, wrap_cb(fn), *args)

        orig_push = Simulator.__dict__["push_event_at"]
        self._patch(Simulator, "schedule", scheduler(Simulator.__dict__["schedule"]))
        self._patch(Simulator, "schedule_at", scheduler(Simulator.__dict__["schedule_at"]))
        self._patch(Simulator, "push_event_at", push_event_at)
        self._wrap(Simulator, "run", "engine")

        prop = NodeView.__dict__["handler"]

        def set_handler(view, fn):
            prop.fset(view, None if fn is None else wrap_cb(fn))

        self._patch(NodeView, "handler", property(prop.fget, set_handler))

        for name in _NETWORK_QUERIES:
            self._wrap(Network, name, "network")
        traced_move = Network.__dict__["move_node"]

        def move_node(*args, **kwargs):
            self.move_calls += 1
            return traced_move(*args, **kwargs)

        self._patch(Network, "move_node", move_node)
        for name in _CHARGES:
            self._wrap(NodeStateStore, name, "energy")
        for name in list(vars(MetricsCollector)):
            if name.startswith("on_") or name in ("conservation_report", "assert_conserved"):
                self._wrap(MetricsCollector, name, "metrics")
        for name in _CRYPTO:
            self._wrap(secmlr, name, "security")
        self._wrap(WorldBuilder, "build", "world")
        self._wrap(ExperimentAdapter, "run", "experiments")
        self._wrap(SweepRunner, "run", "runner")
        self._wrap(shard, "run_sharded", "shard")

    def __enter__(self) -> "LayerTrace":
        self._install()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.root_self_s = self.wall_s - self._state[1]
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    # -- summaries -------------------------------------------------------
    def by_layer(self) -> dict[str, dict]:
        """``{layer: {"calls", "total_s", "self_s"}}`` folded over parents.

        ``total_s`` counts only spans not nested in a span of the same
        layer, so it never double-counts recursion.
        """
        out = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        out["other"] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        for (parent, layer), (count, total, self_s) in self.stats.items():
            row = out[layer]
            row["calls"] += count
            row["self_s"] += self_s
            if parent != layer:
                row["total_s"] += total
        return out
