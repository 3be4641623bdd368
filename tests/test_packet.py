"""Unit tests for the packet model and size accounting."""

from repro.sim.packet import (
    DATA_PAYLOAD_BYTES,
    MAC_HEADER_BYTES,
    PATH_ENTRY_BYTES,
    Packet,
    PacketKind,
    SecurityEnvelope,
)


def _pkt(**kw):
    defaults = dict(kind=PacketKind.DATA, origin=1, target=2)
    defaults.update(kw)
    return Packet(**defaults)


def test_size_includes_header():
    assert _pkt().size_bytes() == MAC_HEADER_BYTES


def test_size_includes_payload_and_path():
    p = _pkt(payload_bytes=DATA_PAYLOAD_BYTES, path=(1, 2, 3))
    assert p.size_bytes() == MAC_HEADER_BYTES + DATA_PAYLOAD_BYTES + 3 * PATH_ENTRY_BYTES


def test_size_bits_is_eight_times_bytes():
    p = _pkt(payload_bytes=10)
    assert p.size_bits() == 8 * p.size_bytes()


def test_security_envelope_adds_overhead():
    env = SecurityEnvelope(ciphertext=b"ct", mac=b"x" * 8, counter=3, claimed_sender=1)
    assert env.overhead_bytes == 16
    p = _pkt(security=env)
    assert p.size_bytes() == MAC_HEADER_BYTES + 16


def test_uids_unique():
    assert _pkt().uid != _pkt().uid


def test_fork_assigns_fresh_uid_and_copies_payload():
    p = _pkt(payload={"a": 1})
    q = p.fork()
    assert q.uid != p.uid
    q.payload["a"] = 2
    assert p.payload["a"] == 1  # deep enough: top-level dict copied


def test_fork_preserves_other_fields():
    p = _pkt(path=(1, 2), ttl=7, hop_count=3)
    q = p.fork()
    assert (q.path, q.ttl, q.hop_count) == ((1, 2), 7, 3)


def test_with_hop_updates_link_and_counters():
    p = _pkt(ttl=5, hop_count=1)
    q = p.with_hop(4, 5)
    assert q.src == 4 and q.dst == 5
    assert q.hop_count == 2 and q.ttl == 4
    assert p.hop_count == 1  # original untouched


def test_explicit_uid_override_in_fork():
    p = _pkt()
    q = p.fork(uid=p.uid)
    assert q.uid == p.uid


def test_all_kinds_distinct():
    values = [k.value for k in PacketKind]
    assert len(values) == len(set(values))


class TestSizeCache:
    """The on-air size follows every field change, forked or in place."""

    def test_fork_recomputes_for_grown_path(self):
        p = _pkt(path=(1,))
        base = p.size_bytes()
        q = p.fork(path=(1, 2, 3))
        assert q.size_bytes() == base + 2 * PATH_ENTRY_BYTES
        assert p.size_bytes() == base  # original untouched

    def test_with_hop_keeps_size(self):
        p = _pkt(payload_bytes=DATA_PAYLOAD_BYTES)
        size = p.size_bytes()
        assert p.with_hop(4, 5).size_bytes() == size

    def test_inplace_payload_growth_invalidates(self):
        # SecMLR decorates packets in place: payload_bytes += envelope.
        p = _pkt(payload_bytes=10)
        before = p.size_bytes()
        p.payload_bytes += 24
        assert p.size_bytes() == before + 24

    def test_inplace_path_and_security_invalidate(self):
        p = _pkt()
        base = p.size_bytes()
        p.path = (1, 2)
        assert p.size_bytes() == base + 2 * PATH_ENTRY_BYTES
        p.security = SecurityEnvelope(
            ciphertext=b"ct", mac=b"x" * 8, counter=0, claimed_sender=1
        )
        assert p.size_bytes() == base + 2 * PATH_ENTRY_BYTES + 16
