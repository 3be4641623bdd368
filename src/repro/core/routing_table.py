"""Routing state stored on sensor nodes.

Three structures, straight from the paper:

* :class:`RouteEntry` — one row of Table 1: a destination key (gateway id
  for SPR, feasible-place label for MLR), the hop count and the full path.
* :class:`RoutingTable` — the per-node table.  For MLR it *accumulates*
  entries round by round ("our principle is to accumulate routing tables
  round by round", Section 5.3) and selects the best among the places
  occupied in the current round.
* :class:`ForwardingEntry` — SecMLR's 4-tuple ``(source, destination,
  immediate sender, immediate receiver)`` installed along a discovered
  path (Section 6.2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional

from repro.exceptions import RoutingError

__all__ = ["RouteEntry", "ForwardingEntry", "RoutingTable"]


@dataclass(frozen=True)
class RouteEntry:
    """A route from this node to a gateway.

    ``path`` starts at the owning node and ends at the gateway, inclusive
    (``path[0]`` is the owner, ``path[-1]`` the gateway), so
    ``hops == len(path) - 1``.
    """

    key: Hashable  # gateway id (SPR) or feasible-place label (MLR)
    gateway: int
    path: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.path) < 1:
            raise RoutingError("a route path cannot be empty")
        if self.path[-1] != self.gateway:
            raise RoutingError("route path must end at the gateway")

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    @property
    def next_hop(self) -> int:
        """First forwarding hop (the gateway itself for 1-hop routes)."""
        if len(self.path) == 1:
            return self.gateway
        return self.path[1]

    def suffix_from(self, node_id: int) -> "RouteEntry":
        """Sub-path entry from ``node_id`` to the gateway (Property 1).

        Property 1: a sub-path of a shortest path is itself a shortest
        path, so any node on ``path`` can install/answer with its suffix.
        """
        try:
            i = self.path.index(node_id)
        except ValueError:
            raise RoutingError(f"{node_id} is not on path {self.path}") from None
        return RouteEntry(key=self.key, gateway=self.gateway, path=self.path[i:])


@dataclass(frozen=True)
class ForwardingEntry:
    """SecMLR data-forwarding 4-tuple (Section 6.2.4, Fig. 6).

    ``(source, destination, immediate_sender, immediate_receiver)`` — a
    node forwards a DATA packet only if a matching entry exists; the entry
    names who the packet must arrive from and where it goes next.

    Under gateway mobility the stable identity of a destination is its
    feasible *place*, not the gateway node that happened to answer the
    discovery (the same gateway serves different places in different
    rounds); ``route_key`` carries that identity and, when set, is the
    lookup key alongside ``source``.
    """

    source: int
    destination: int
    immediate_sender: Optional[int]  # None at the source itself
    immediate_receiver: int
    route_key: Optional[Hashable] = None

    @property
    def lookup_key(self) -> Hashable:
        return self.route_key if self.route_key is not None else self.destination


class RoutingTable:
    """Per-node routing state.

    Route entries are keyed by destination key; SecMLR forwarding entries
    are keyed by ``(source, destination)``.
    """

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._routes: dict[Hashable, RouteEntry] = {}
        self._forwarding: dict[tuple[int, int], ForwardingEntry] = {}

    # ------------------------------------------------------------------
    # route entries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._routes

    def keys(self) -> list[Hashable]:
        return list(self._routes.keys())

    def get(self, key: Hashable) -> Optional[RouteEntry]:
        return self._routes.get(key)

    def install(self, entry: RouteEntry, replace_worse_only: bool = False) -> bool:
        """Install a route entry.

        With ``replace_worse_only`` the entry is kept only if it is strictly
        better (fewer hops) than an existing entry for the same key —
        discovery responses may arrive in any order.
        Returns True if the table changed.
        """
        if entry.path[0] != self.owner:
            raise RoutingError(
                f"entry path {entry.path} does not start at owner {self.owner}"
            )
        current = self._routes.get(entry.key)
        if replace_worse_only and current is not None and current.hops <= entry.hops:
            return False
        self._routes[entry.key] = entry
        return True

    def remove(self, key: Hashable) -> None:
        self._routes.pop(key, None)

    def clear(self) -> None:
        """Drop every route and forwarding entry (recovered-node rejoin:
        a node returning from a crash cannot trust its pre-crash state)."""
        self._routes.clear()
        self._forwarding.clear()

    def purge_through(self, node_id: int) -> int:
        """Remove all state that routes through (or at) ``node_id``.

        Covers route entries whose path visits the node and SecMLR
        forwarding 4-tuples that name it as an endpoint or immediate
        hop.  Returns how many entries were removed — the recovery
        rejoin uses this to decide whether anything was stale.
        """
        stale = [k for k, e in self._routes.items() if node_id in e.path]
        for k in stale:
            del self._routes[k]
        stale_fwd = [
            k for k, e in self._forwarding.items()
            if node_id in (e.source, e.destination, e.immediate_sender, e.immediate_receiver)
        ]
        for k in stale_fwd:
            del self._forwarding[k]
        return len(stale) + len(stale_fwd)

    def best(self, active_keys: Optional[Iterable[Hashable]] = None) -> Optional[RouteEntry]:
        """Least-hops entry, optionally restricted to ``active_keys``.

        This is MLR's per-round selection: among the places currently
        hosting a gateway, pick the shortest path.  Ties break on the
        smaller key representation for determinism.
        """
        pool = self._routes.values()
        if active_keys is not None:
            wanted = set(active_keys)
            pool = [e for e in self._routes.values() if e.key in wanted]
        return min(pool, key=lambda e: (e.hops, str(e.key)), default=None)

    def entries(self) -> list[RouteEntry]:
        """All entries, ordered by key for stable display (Table 1 rows)."""
        return sorted(self._routes.values(), key=lambda e: str(e.key))

    # ------------------------------------------------------------------
    # SecMLR forwarding entries
    # ------------------------------------------------------------------
    def install_forwarding(self, entry: ForwardingEntry) -> None:
        self._forwarding[(entry.source, entry.lookup_key)] = entry

    def match_forwarding(self, source: int, destination: Hashable) -> Optional[ForwardingEntry]:
        """The 4-tuple for flow ``source -> destination``, if installed.

        ``destination`` is the entry's lookup key: the route key (feasible
        place) when one was recorded, the gateway id otherwise.
        """
        return self._forwarding.get((source, destination))

    @property
    def forwarding_entries(self) -> list[ForwardingEntry]:
        return list(self._forwarding.values())
