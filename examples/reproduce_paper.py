#!/usr/bin/env python
"""Regenerate every paper artifact (E1-E11, E14) in one run.

A convenience driver over :mod:`repro.experiments`: prints each
experiment's paper-style table in order. ``tests/test_claims.py`` checks
the paper's claims on the same drivers; this script is for reading the
numbers.

Run:  python examples/reproduce_paper.py [--fast]

``--fast`` shrinks the expensive sweeps (E4 sizes, E8 attack list) so the
whole paper regenerates in under a minute.
"""

import sys
import time

from repro import experiments as E

def main() -> None:
    fast = "--fast" in sys.argv
    plan = [
        ("E1  Fig. 2 (exact)", E.run_fig2, {}),
        ("E2  Table 1 (exact)", E.run_table1, {}),
        ("E3  Fig. 1 architecture", E.run_architecture, {}),
        ("E4  scalability", E.run_scalability,
         {"sizes": (50, 100) if fast else (50, 100, 200, 400)}),
        ("E5  lifetime", E.run_lifetime_comparison,
         {"protocols": ("MLR", "SPR", "flat-1-sink", "flooding")} if fast else {}),
        ("E6  gateway count", E.run_gateway_count,
         {"ks": (1, 2, 4)} if fast else {}),
        ("E7  security overhead", E.run_security_overhead, {}),
        ("E8  attack matrix", E.run_attack_matrix,
         {"attacks": ("none", "sinkhole", "replay", "hello_flood")} if fast else {}),
        ("E9  robustness", E.run_robustness, {}),
        ("E10 mobility overhead", E.run_mobility_overhead, {}),
        ("E11 LP bound", E.run_lp_bound, {}),
        ("E14 chaos campaign", E.run_chaos,
         {"n_sensors": 30, "rounds": 4} if fast else {}),
    ]
    t_all = time.time()
    for name, fn, kwargs in plan:
        t = time.time()
        result = fn(**kwargs)
        print(f"\n{'=' * 72}\n{name}   [{time.time() - t:.1f}s]\n{'=' * 72}")
        print(result.format_table())
        if hasattr(result, "matches_paper"):
            print(f"matches paper exactly: {result.matches_paper}")
    print(f"\nAll experiments regenerated in {time.time() - t_all:.0f}s. "
          "See EXPERIMENTS.md for the paper-vs-measured discussion.")

if __name__ == "__main__":
    main()
