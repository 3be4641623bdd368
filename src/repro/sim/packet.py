"""Packet model.

The paper's protocols exchange five kinds of packets (Sections 5 and 6):

``RREQ``
    Routing query, flooded by a source toward all *m* gateways (Step 2 of
    SPR; Section 6.2.1 of SecMLR).
``RRES``
    Routing response, returned along the discovered path (Step 3 of SPR;
    Section 6.2.2).
``DATA``
    Sensed data, source-routed on its first trip and table-forwarded
    afterwards (Step 5; Section 6.2.4).
``NOTIFY``
    Gateway place-change notification broadcast at the start of a round
    (Section 5.3 step 2; secured with μTESLA in Section 6.2.3).
``HELLO``
    Neighbor discovery beacon (also the vehicle of the HELLO-flood attack).

Sizes follow 802.15.4 framing: an 11-byte MAC header plus the payload the
protocol puts on the air.  Secured packets additionally carry the SNEP
envelope (8-byte counter + 16-byte truncated MAC), which is how the
security-overhead experiment (E7) measures SecMLR's cost in bytes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Optional

__all__ = [
    "PacketKind",
    "SecurityEnvelope",
    "Packet",
    "MAC_HEADER_BYTES",
    "PATH_ENTRY_BYTES",
    "DATA_PAYLOAD_BYTES",
]

#: Bytes of link-layer framing charged to every transmission (802.15.4-ish).
MAC_HEADER_BYTES = 11
#: Bytes charged per node id carried in a ``path`` field.
PATH_ENTRY_BYTES = 2
#: Default application payload for a DATA packet.
DATA_PAYLOAD_BYTES = 24

_uid_counter = itertools.count()


class PacketKind(enum.Enum):
    """The packet types exchanged by the routing protocols."""

    RREQ = "rreq"
    RRES = "rres"
    DATA = "data"
    NOTIFY = "notify"
    HELLO = "hello"
    ACK = "ack"
    RERR = "rerr"


@dataclass(frozen=True)
class SecurityEnvelope:
    """SNEP-style security metadata attached by SecMLR (Section 6.2).

    Attributes
    ----------
    ciphertext:
        ``{M}<Kij,C>`` — the encrypted protocol message.
    mac:
        ``MAC(Kij, C | ciphertext)`` — message authentication code.
    counter:
        The incremental counter ``C`` providing freshness/anti-replay.
    claimed_sender:
        The sensor id the packet *claims* to originate from.  Verification
        checks the MAC under the key shared between this id and the
        gateway; a spoofing adversary can set the field but cannot forge
        the MAC.
    """

    ciphertext: bytes
    mac: bytes
    counter: int
    claimed_sender: int

    @property
    def overhead_bytes(self) -> int:
        """Extra bytes on the air relative to an unsecured packet."""
        # counter (8) + MAC (len). Ciphertext replaces the plaintext body
        # one-for-one with a stream cipher, so it adds nothing.
        return 8 + len(self.mac)


@dataclass
class Packet:
    """A single frame travelling through the simulated network.

    ``src``/``dst`` are the link-layer endpoints of the current hop
    (``dst is None`` means local broadcast); ``origin``/``target`` are the
    end-to-end endpoints.  ``path`` carries the accumulated route for RREQ
    and the source route for RRES/first DATA, exactly as in Figs. 4-6.
    """

    kind: PacketKind
    origin: int
    target: Optional[int]  # None = "any gateway" (multi-destination RREQ)
    src: int = -1
    dst: Optional[int] = None
    path: tuple[int, ...] = ()
    payload: dict[str, Any] = field(default_factory=dict)
    payload_bytes: int = 0
    security: Optional[SecurityEnvelope] = None
    uid: int = field(default_factory=lambda: next(_uid_counter))
    hop_count: int = 0
    ttl: int = 64
    created_at: float = 0.0

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Total on-air size of this frame: header, payload, path and
        security envelope, summed from the current fields (SecMLR grows
        ``payload_bytes`` in place)."""
        size = MAC_HEADER_BYTES + self.payload_bytes + PATH_ENTRY_BYTES * len(self.path)
        if self.security is not None:
            size += self.security.overhead_bytes
        return size

    def size_bits(self) -> int:
        """Total on-air size in bits (what the energy model charges)."""
        return 8 * self.size_bytes()

    def fork(self, **changes: Any) -> "Packet":
        """Copy this packet for re-broadcast, assigning a fresh ``uid`` only
        when the caller does not supply one.

        Flood duplicate-suppression keys on ``(origin, flood_id)`` carried in
        ``payload``, not on ``uid``, so forwarded copies keep distinct uids
        for tracing while remaining one logical packet.
        """
        changes.setdefault("payload", dict(self.payload))
        changes.setdefault("uid", next(_uid_counter))
        return replace(self, **changes)

    def with_hop(self, src: int, dst: Optional[int]) -> "Packet":
        """Copy for the next hop ``src -> dst``, bumping the hop counter."""
        return self.fork(src=src, dst=dst, hop_count=self.hop_count + 1, ttl=self.ttl - 1)
