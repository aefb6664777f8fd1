"""Exact-computation laboratory for counting contracting elements.

Word-metric ball enumeration over normal-form group models, alignment and
projection geometry on exact tree stand-ins, contraction profiling, the
concatenation inequalities as executable checks, and genericity-decay
experiments on free groups and the 3-strand braid group.

Importing the package loads none of its modules: each name below (and
each submodule, ``genlab.census`` say) is imported on first access
(PEP 562), so a run compiles only the modules it uses.
"""

import importlib

_EXPORTS = {
    "groups": "Braid3 FiniteSample FreeGroup FreeProductZ2Z3 GeneratingSet GeneratorAlphabet GroupElement "
              "GroupModel make_model",
    "balls": "BallCensus BallIndex center_coset_census enumerate_ball free_ball_count free_sphere_count "
             "geodesic_representative translation_length word_distance",
    "spaces": "BassSerreTree CayleyTree FiniteGraph Geodesic GroupAction MetricSpaceModel OrbitSegment "
              "axis_basepoint build_bass_serre_tree build_cayley_tree cycle_graph grid_graph load_edge_list "
              "measure_delta",
    "ledger": "ConstantLedger",
    "alignment": "AlignmentReport ProjectionSet aligned_subsegments behrstock_dichotomy chain_alignment "
                 "check_alignment fellow_traveling gromov_product hausdorff_distance project",
    "contraction": "ContractionProfile WpdCensus lipschitz_projection_bound measure_scaled_ledger select_linkage "
                   "strong_contraction_check weak_contraction_profile wpd_census",
    "census": "Classification FiberReport GenericityCurve SegmentTable a_thick_certify a_thick_search classify "
              "exponential_negligibility_probe fiber_census free_group_threshold_count "
              "genericity_experiment replacement_map single_replacement_fibers",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "words")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
