"""Exact-computation laboratory for counting contracting elements.

Word-metric ball enumeration over normal-form group models, alignment and
projection geometry on exact tree stand-ins, contraction profiling, the
concatenation inequalities as executable checks, and genericity-decay
experiments on free groups and the 3-strand braid group.
"""

from .groups import (
    Braid3,
    FiniteSample,
    FreeGroup,
    FreeProductZ2Z3,
    GeneratingSet,
    GeneratorAlphabet,
    GroupElement,
    GroupModel,
    make_model,
)
from .balls import (
    BallCensus,
    BallIndex,
    center_coset_census,
    enumerate_ball,
    free_ball_count,
    free_sphere_count,
    geodesic_representative,
    translation_length,
    word_distance,
)
from .spaces import (
    BassSerreTree,
    CayleyTree,
    FiniteGraph,
    Geodesic,
    GroupAction,
    MetricSpaceModel,
    OrbitSegment,
    axis_basepoint,
    build_bass_serre_tree,
    build_cayley_tree,
    cycle_graph,
    grid_graph,
    load_edge_list,
    measure_delta,
)
from .ledger import ConstantLedger
from .alignment import (
    AlignmentReport,
    ProjectionSet,
    aligned_subsegments,
    behrstock_dichotomy,
    chain_alignment,
    check_alignment,
    fellow_traveling,
    gromov_product,
    hausdorff_distance,
    project,
)
from .contraction import (
    ContractionProfile,
    WpdCensus,
    lipschitz_projection_bound,
    measure_scaled_ledger,
    select_linkage,
    strong_contraction_check,
    weak_contraction_profile,
    wpd_census,
)
from .census import (
    Classification,
    FiberReport,
    GenericityCurve,
    SegmentTable,
    a_thick_certify,
    a_thick_search,
    classify,
    double_replacement,
    exponential_negligibility_probe,
    fiber_census,
    free_group_threshold_count,
    genericity_experiment,
    replacement_map,
    single_replacement_fibers,
)

__version__ = "0.1.0"
