"""pivotlab: randomized simplex pivoting rules on shortest-path instances.

The package couples a small exact-arithmetic toolkit (graphs with integer
costs, policy trees, a rational LP kernel) with the layered counter-gadget
graph family on which facet-removal pivoting rules exhibit their counting
behavior, plus the computation-tree machinery used to analyze them.
"""

from .counters import (
    expected_increments,
    expected_increments_asymptotic,
    expected_increments_recurrence,
    rand_count,
    rand_count_one_perm,
)
from .counter_graph import (
    CounterGraphIndex,
    bf_edge_set,
    bit_value,
    build_counter_graph,
    initial_tree,
    is_functional,
    reset_level,
)
from .graphs import (
    Digraph,
    Policy,
    apply_switch,
    improving_switches,
    optimal_edge_set,
)
from .rules import (
    RunResult,
    bland_nonrec,
    bland_rec,
    dantzig,
    induced_permutation,
    is_well_behaved,
    random_bland,
    random_facet,
    random_facet_nonrec,
    random_facet_one_perm,
    sample_well_behaved,
)
from .comptrees import (
    ComputationTree,
    estimate_canonical_probability,
    follow_canonical,
    record_tree,
    sigma_p,
)

__all__ = [
    "CounterGraphIndex",
    "ComputationTree",
    "Digraph",
    "Policy",
    "RunResult",
    "apply_switch",
    "bf_edge_set",
    "bit_value",
    "bland_nonrec",
    "bland_rec",
    "build_counter_graph",
    "dantzig",
    "estimate_canonical_probability",
    "expected_increments",
    "expected_increments_asymptotic",
    "expected_increments_recurrence",
    "follow_canonical",
    "improving_switches",
    "induced_permutation",
    "initial_tree",
    "is_functional",
    "is_well_behaved",
    "optimal_edge_set",
    "rand_count",
    "rand_count_one_perm",
    "random_bland",
    "random_facet",
    "random_facet_nonrec",
    "random_facet_one_perm",
    "record_tree",
    "reset_level",
    "sample_well_behaved",
    "sigma_p",
]

__version__ = "0.1.0"
