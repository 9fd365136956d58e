"""Exact-arithmetic toolkit for filtration inequalities on finite
p-groups: dimension sequences, positivity certificates, order bounds, and
a brute-force group-algebra laboratory for cross-checking the theory.

The package namespace holds the entry points behind the command-line
subcommands and the acceptance criteria (README, "Python API"); every
other name is imported from its module."""

from .series import ExactPoly, positive_on_open_unit_interval
from .jennings import DimensionSequence, jennings_transform
from .bounds import upper_caps
from .gs_check import (
    CheckMode,
    RelationProfile,
    check_inequality,
    classify_ztypes,
    gs_lhs_poly,
    medgs_threshold,
    medgs_violation_sample,
    relaxed_product_poly,
    strict_corollary_check,
    ztype_pair_poly,
)
from .validity import gs_equality_eval, is_valid, mildness_defect
from .search import brute_force_infeasibility, min_order_search
from .group_lab import (
    augmentation_powers,
    build_group,
    builtin_presentation,
    dimension_subgroups,
    lazard_check,
    parse_group_file,
    verify_recursion,
)

__version__ = "0.1.0"

__all__ = [
    "CheckMode",
    "DimensionSequence",
    "ExactPoly",
    "RelationProfile",
    "augmentation_powers",
    "brute_force_infeasibility",
    "build_group",
    "builtin_presentation",
    "check_inequality",
    "classify_ztypes",
    "dimension_subgroups",
    "gs_equality_eval",
    "gs_lhs_poly",
    "is_valid",
    "jennings_transform",
    "lazard_check",
    "medgs_threshold",
    "medgs_violation_sample",
    "mildness_defect",
    "min_order_search",
    "parse_group_file",
    "positive_on_open_unit_interval",
    "relaxed_product_poly",
    "strict_corollary_check",
    "upper_caps",
    "verify_recursion",
    "ztype_pair_poly",
]
