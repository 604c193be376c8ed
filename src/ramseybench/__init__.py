"""Workbench for finite pattern combinatorics on the natural-number plane.

Six area modules (typecalc, pointsets, homogeneity, randomgraph,
setalgebra, omegatypes) and the `ramseybench` command (cli).  Each area
is registered lazily: it sits in ``sys.modules`` from ``import
ramseybench`` on and runs its body on first attribute access, so a
command pays only for the areas it uses.  The public names below are
served from their area on first use.
"""

import importlib.util
import sys

from . import errors

__version__ = "0.1.0"

_PUBLIC = {
    "errors": "LexOrderError LimitError MissingLabelError NoRealizedTypeError WorkbenchError",
    "typecalc": "MAX_N NType Symbol append_extension count_ntypes enumerate_ntypes fubini "
                "insert_extension list_form ntype_from_json parse_list_form restrict_to_initial",
    "pointsets": "ClauseViolation ConditionReport FiniteCondition Point check_condition "
                 "classify_subsets condition_to_json extend_with_realizers find_realizer "
                 "random_condition realized_type subset_realizes",
    "homogeneity": "Coloring FloorReport SearchResult StabilizeReport TauReport "
                   "TernaryRelationGrid check_tau_homogeneous coloring_from_csv "
                   "coloring_from_json count_classes_met extract_S_from_R grid_from_json "
                   "realized_type_coloring search_homogeneous stabilize_lex "
                   "weak_ramsey_floor_demo",
    "randomgraph": "Configuration EdgeColoring Graph build_graph_covering build_random_graph "
                   "check_extension_property check_rich color_vertical_pairs coloring_demo "
                   "configuration_schedule graph_from_json graph_to_json noreverse_demo",
    "setalgebra": "AboveDiag Column Complement FinCofin FinitePoints Frechet Intersection "
                  "Principal Rect StandInSequence TailForm Union column_of fincofin_from_json "
                  "fincofin_to_json image_membership in_fr2 meets_all_fr2 planar_set_from_json "
                  "sequence_from_json standin_from_json sum_membership tail_analysis verdict_set",
    "omegatypes": "OmegaTypePrefix XClass YClass ZAssignment assign_D grid_prefix h_set_member "
                  "phi_prefix prefix_from_json validate_prefix zassignment_from_json zchain_check",
}
_HOME = {name: area for area, names in _PUBLIC.items() for name in names.split()}
__all__ = sorted(_HOME)


def _lazy(area):
    spec = importlib.util.find_spec(f"{__name__}.{area}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


typecalc, pointsets, homogeneity, randomgraph, setalgebra, omegatypes = map(
    _lazy, ("typecalc", "pointsets", "homogeneity", "randomgraph", "setalgebra", "omegatypes"))


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
