"""
Signed permutations of type B: windows, root systems, the weak orders,
pattern-based separability, generalized quotients, and exhaustive
splitting verification at small rank.  The root exports (`__all__`)
raise ValueError on a malformed window or rank; the unchecked primitives
(`compose`, `inverse`, ...) and the test oracles stay in their modules.
"""

from .patterns import (
    PATTERN_SETS,
    contains_pattern,
    inverse_minimality_criterion,
    is_doubly_minimal,
    is_minimal_nonseparable_definitional,
    is_minimal_nonseparable_fast,
    is_separable,
    parabolic_factor,
    st,
    sts,
)
from .polynomials import Poly, group_poincare
from .quotients import (
    quotient_interval_identity,
    generalized_quotient,
    is_splitting,
    quotient_of_interval,
    splits_with_interval,
    verify_main_theorem,
)
from .reports import LemmaReport, SplittingReport
from .root_system import (
    RootSubsystem,
    components,
    full_system,
    inversion_roots,
    is_separable_recursive,
    subsystem_spanned_by,
)
from .signed_perm import (
    Window,
    all_windows,
    group_order,
    identity,
    longest_element,
    parse_window,
    simple_reflection,
    validate_window,
)
from .weak_order import ideal_polynomial, iter_reduced_words, reduced_word_count

__all__ = [
    "PATTERN_SETS", "contains_pattern", "inverse_minimality_criterion", "is_doubly_minimal",
    "is_minimal_nonseparable_definitional", "is_minimal_nonseparable_fast", "is_separable",
    "parabolic_factor", "st", "sts", "Poly", "group_poincare", "quotient_interval_identity",
    "generalized_quotient", "is_splitting", "quotient_of_interval", "splits_with_interval",
    "verify_main_theorem", "LemmaReport", "SplittingReport", "RootSubsystem", "components",
    "full_system", "inversion_roots", "is_separable_recursive", "subsystem_spanned_by",
    "Window", "all_windows", "group_order", "identity", "longest_element", "parse_window",
    "simple_reflection", "validate_window", "ideal_polynomial", "iter_reduced_words",
    "reduced_word_count",
]

__version__ = "0.1.0"
