"""Property-based tests (hypothesis) for core data structures and invariants."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import jain_fairness
from repro.core.routing_table import RouteEntry, RoutingTable
from repro.security.crypto import (
    CounterState,
    compute_mac,
    decode_message,
    decrypt,
    derive_key,
    encode_message,
    encrypt,
    verify_mac,
)
from repro.security.tesla import TeslaBroadcaster, TeslaReceiver
from repro.sim.energy import EnergyModel
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import NodeKind
from repro.sim.state import NodeStateStore

KEY = derive_key(b"prop-master", "k")


# ----------------------------------------------------------------------
# crypto
# ----------------------------------------------------------------------
@given(st.binary(max_size=512), st.integers(min_value=0, max_value=2**60))
def test_encrypt_roundtrip(plaintext, counter):
    assert decrypt(KEY, counter, encrypt(KEY, counter, plaintext)) == plaintext


@given(st.binary(min_size=1, max_size=128), st.integers(min_value=0, max_value=2**32))
def test_ciphertext_never_equals_nonempty_plaintext_under_other_counter(data, counter):
    ct = encrypt(KEY, counter, data)
    assert decrypt(KEY, counter + 1, ct) != data or len(set(data)) <= 1


@given(st.binary(max_size=256), st.integers(min_value=0, max_value=2**40))
def test_mac_verifies_and_rejects_bitflips(data, counter):
    tag = compute_mac(KEY, counter, data)
    assert verify_mac(KEY, counter, data, tag)
    if data:
        flipped = bytes([data[0] ^ 1]) + data[1:]
        assert not verify_mac(KEY, counter, flipped, tag)


_json_scalars = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
)


@given(st.dictionaries(st.text(max_size=10), _json_scalars, max_size=8))
def test_encode_message_canonical_and_invertible(msg):
    blob = encode_message(msg)
    assert decode_message(blob) == msg
    assert encode_message(decode_message(blob)) == blob


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_counter_accepts_strictly_increasing_prefix(counters):
    cs = CounterState()
    seen = -1
    for c in counters:
        accepted = cs.accept("p", c)
        if c > seen and c - seen <= cs.window:
            assert accepted
            seen = c
        else:
            assert not accepted


# ----------------------------------------------------------------------
# μTESLA
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
@settings(max_examples=25)
def test_tesla_chain_consistency(i, j):
    tx = TeslaBroadcaster(1, b"s", chain_length=32, interval=1.0)
    lo, hi = min(i, j), max(i, j)
    probe = tx.key_for_interval(hi)
    import hashlib

    for _ in range(hi - lo):
        probe = hashlib.sha256(probe).digest()
    assert probe == tx.key_for_interval(lo)


@given(st.integers(min_value=1, max_value=20))
@settings(max_examples=25)
def test_tesla_receiver_accepts_any_interval_message(interval):
    tx = TeslaBroadcaster(1, b"s", chain_length=32, interval=1.0, disclosure_lag=2)
    rx = TeslaReceiver(tx.commitment, interval=1.0, disclosure_lag=2)
    msg = tx.authenticate({"v": interval}, now=interval + 0.5)
    assert rx.receive(msg, arrival_time=interval + 0.6)
    released = rx.disclose(msg.interval, tx.key_for_interval(msg.interval))
    assert released == [{"v": interval}]


# ----------------------------------------------------------------------
# energy model
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
def test_tx_cost_nonnegative_and_monotone_in_distance(bits, d):
    m = EnergyModel()
    cost = m.tx_cost(bits, d)
    assert cost >= 0.0
    assert m.tx_cost(bits, d + 1.0) >= cost


@given(st.lists(st.floats(min_value=0, max_value=0.2, allow_nan=False), min_size=1, max_size=50))
def test_energy_account_conservation(charges):
    acc = NodeStateStore([NodeKind.SENSOR], [1.0]).energy_view(0)
    for i, c in enumerate(charges):
        acc.charge_tx(c, now=float(i))
    if acc.alive:
        assert acc.remaining == pytest.approx(1.0 - sum(charges))
        assert acc.spent == pytest.approx(sum(charges))
    else:
        assert acc.remaining == 0.0


# ----------------------------------------------------------------------
# simulator
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=60))
def test_events_always_fire_in_nondecreasing_time(delays):
    sim = Simulator(seed=1)
    times = []
    for d in delays:
        sim.schedule(d, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


# ----------------------------------------------------------------------
# network / topology
# ----------------------------------------------------------------------
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_neighbor_relation_symmetric_and_irreflexive(n, seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 100, size=(n, 2))
    net = Network(pos, [NodeKind.SENSOR] * n, comm_range=30.0)
    for i in range(n):
        nbrs = set(int(x) for x in net.neighbors(i))
        assert i not in nbrs
        for j in nbrs:
            assert i in set(int(x) for x in net.neighbors(j))


# ----------------------------------------------------------------------
# routing table
# ----------------------------------------------------------------------
_paths = st.lists(
    st.integers(min_value=1, max_value=100), min_size=1, max_size=8, unique=True
).map(lambda tail: (0, *tail))


@given(st.lists(_paths, min_size=1, max_size=20))
def test_best_entry_is_minimum_hops(paths):
    t = RoutingTable(owner=0)
    for k, p in enumerate(paths):
        t.install(RouteEntry(key=f"K{k}", gateway=p[-1], path=p))
    best = t.best()
    assert best is not None
    assert best.hops == min(len(p) - 1 for p in paths)


@given(_paths)
def test_every_suffix_is_consistent(path):
    e = RouteEntry(key="A", gateway=path[-1], path=path)
    for node in path:
        s = e.suffix_from(node)
        assert s.path[0] == node and s.path[-1] == e.gateway
        assert s.hops <= e.hops


@given(st.lists(_paths, min_size=2, max_size=10))
def test_replace_worse_only_never_increases_hops(paths):
    t = RoutingTable(owner=0)
    best_hops = None
    for p in paths:
        t.install(RouteEntry(key="K", gateway=p[-1], path=p), replace_worse_only=True)
        hops = t.get("K").hops
        if best_hops is not None:
            assert hops <= best_hops
        best_hops = hops


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=100))
def test_jain_fairness_bounded(values):
    f = jain_fairness(values)
    assert 0.0 <= f <= 1.0 + 1e-9
