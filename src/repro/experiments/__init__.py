"""Experiment drivers (E1-E11, E14), one module per paper artifact or claim.

Every module exposes a ``run_*`` function returning a result dataclass
with a ``format_table()`` method printing the rows the paper reports (or
the quantified version of a qualitative claim).  E1-E11's result classes
also declare the paper's claims about them: ``claims()`` maps each
claim's text to whether the result bears it out, and
``tests/test_claims.py`` checks them at each driver's default seed.
The ``examples/`` scripts call the drivers directly.  See DESIGN.md for
the experiment index.
"""

from repro.experiments.common import (
    ScenarioResult,
    default_energy_model,
    make_grid_scenario,
    make_uniform_scenario,
    run_collection_rounds,
)
from repro.experiments.fig2_hops import run_fig2
from repro.experiments.table1_mlr import run_table1
from repro.experiments.architecture import run_architecture
from repro.experiments.scalability import run_scalability
from repro.experiments.lifetime import run_lifetime_comparison
from repro.experiments.gateway_count import run_gateway_count
from repro.experiments.security_overhead import run_security_overhead
from repro.experiments.attack_matrix import run_attack_matrix, ATTACK_NAMES
from repro.experiments.robustness import run_robustness
from repro.experiments.mobility_overhead import run_mobility_overhead
from repro.experiments.lp_bound import run_lp_bound
from repro.experiments.chaos import run_chaos
from repro.experiments.registry import (
    REGISTRY,
    ExperimentAdapter,
    ExperimentResult,
    get_experiment,
    run_experiment,
)

__all__ = [
    "REGISTRY",
    "ExperimentAdapter",
    "ExperimentResult",
    "get_experiment",
    "run_experiment",
    "ScenarioResult",
    "default_energy_model",
    "make_grid_scenario",
    "make_uniform_scenario",
    "run_collection_rounds",
    "run_fig2",
    "run_table1",
    "run_architecture",
    "run_scalability",
    "run_lifetime_comparison",
    "run_gateway_count",
    "run_security_overhead",
    "run_attack_matrix",
    "ATTACK_NAMES",
    "run_robustness",
    "run_mobility_overhead",
    "run_lp_bound",
    "run_chaos",
]
