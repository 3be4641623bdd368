"""Fast smoke + shape tests for every experiment driver (E1-E11).

``test_claims.py`` checks the paper's claims at each driver's default
seed; these tests run the drivers at reduced scale, checking API
contracts and the invariants that must hold at any scale.
"""

import pytest

from repro.experiments import (
    run_architecture,
    run_attack_matrix,
    run_fig2,
    run_gateway_count,
    run_lifetime_comparison,
    run_lp_bound,
    run_mobility_overhead,
    run_robustness,
    run_scalability,
    run_security_overhead,
    run_table1,
)


class TestExactReproductions:
    def test_fig2_exact(self):
        result = run_fig2()
        assert result.matches_paper
        assert "24" in result.format_table()

    def test_table1_exact(self):
        result = run_table1()
        assert result.matches_paper
        assert "selected" in result.format_table()


class TestArchitecture:
    def test_small_run(self):
        r = run_architecture(n_sensors=30, field_size=220.0, packets_per_sensor=1)
        assert r.generated == 30
        assert r.delivery_ratio > 0.8
        assert r.mean_end_to_end_latency > 0
        assert "802.15.4" in r.format_table()


class TestScalability:
    def test_two_sizes(self):
        r = run_scalability(sizes=(50, 100), rounds=1)
        assert len(r.rows) == 2
        for row in r.rows:
            assert row.multi_hops <= row.single_hops
        assert "E4" in r.format_table()


class TestLifetime:
    def test_reduced(self):
        r = run_lifetime_comparison(
            n_sensors=30, field_size=160.0, battery=0.01, max_rounds=20,
            protocols=("SPR", "flat-1-sink"),
        )
        assert set(r.results) == {"SPR", "flat-1-sink"}
        assert r.lifetime_rounds("SPR") >= r.lifetime_rounds("flat-1-sink")
        assert "lifetime" in r.format_table()


class TestGatewayCount:
    def test_reduced(self):
        r = run_gateway_count(ks=(1, 3), n_sensors=40, field_size=180.0,
                              battery=0.015, max_rounds=25)
        assert r.kmax >= 1
        assert r.lifetime_series[1] >= r.lifetime_series[0]
        assert r.rows[1].mean_hops_measured <= r.rows[0].mean_hops_measured


class TestSecurityOverhead:
    def test_reduced(self):
        r = run_security_overhead(n_sensors=30, field_size=160.0, rounds=3)
        assert r.byte_overhead > 0
        assert r.secmlr.delivery_ratio > 0.9
        assert "overhead" in r.format_table()


class TestAttackMatrix:
    def test_single_cells(self):
        r = run_attack_matrix(
            attacks=("none", "hello_flood"), protocols=("MLR", "SecMLR"),
            n_sensors=30, field_size=160.0, rounds=3,
        )
        assert len(r.cells) == 4
        assert r.cell("hello_flood", "MLR").delivery_ratio < r.cell("none", "MLR").delivery_ratio
        assert r.cell("hello_flood", "SecMLR").rejected > 0
        with pytest.raises(KeyError):
            r.cell("nope", "MLR")


class TestRobustness:
    def test_single_sink_dies_with_sink(self):
        r = run_robustness(n_sensors=35, field_size=170.0)
        flat = r.row_for("gateway", "flat-1-sink")
        assert flat.delivery_after < 0.05
        multi = r.row_for("gateway", "SPR-3-gw")
        assert multi.delivery_after > 0.5
        assert "E9" in r.format_table()


class TestMobilityOverhead:
    def test_accumulation_beats_reset(self):
        r = run_mobility_overhead(n_sensors=30, field_size=150.0, rounds=6,
                                  comm_range=55.0, variants=("MLR", "MLR-reset"))
        assert r.total_control_frames("MLR") < r.total_control_frames("MLR-reset")
        tail = r.per_round_control_frames["MLR"][-1]
        head = r.per_round_control_frames["MLR"][0]
        assert tail < head


class TestLpBound:
    def test_bound_holds(self):
        r = run_lp_bound(n_sensors=25, field_size=150.0, battery=0.03, max_rounds=60)
        assert r.mlr_lifetime_rounds <= r.lp_lifetime_rounds * 1.01
        assert 0 < r.optimality_ratio <= 1.01
        assert "LP" in r.format_table()
