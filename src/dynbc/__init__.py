"""Approximate betweenness centrality for graphs under batched edge updates.

The package maintains sampled shortest paths instead of recomputing from
scratch: a static sampling pass gives per-node scores within epsilon of the
exact values with probability at least 1 - delta, and the dynamic update
modes preserve that guarantee across batches of edge insertions, deletions
and weight changes.
"""

from . import errors
from .bc import (
    BCState,
    MODES,
    SampleRecord,
    VDTracker,
    approximate_bc,
    init_bc,
    recount_scores,
    scores,
    update_bc,
)
from .bench import (
    RunReport,
    ScenarioSpec,
    build_scenario,
    load_edge_list,
    rank_error,
    run_experiment,
)
from .dynsssp import (
    AffectedSet,
    DynSSSP,
    VisCounters,
    update_sssp,
    update_sssp_u,
    update_sssp_w,
)
from .exact import (
    ExtendedSSSP,
    brandes_exact,
    compute_extended_sssp,
    exact_vertex_diameter,
    max_shortest_path_hops,
    predecessors,
)
from .graph import (
    DELETE,
    INF,
    INSERT,
    SET_WEIGHT,
    DynGraph,
    EdgeEvent,
    apply_batch,
    dist_eq,
    dist_lt,
    generate,
    strongly_connected_components,
    weakly_connected_components,
)
from .sampling import (
    SampledPath,
    SamplingParams,
    sample_pair,
    sample_path,
    sample_size,
)
from .vdbounds import VDBound, local_vd_estimate, vd_upper_bound

__version__ = "0.1.0"
