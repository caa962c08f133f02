"""
Signed permutations of type B: windows, root systems, the weak orders,
pattern-based separability, generalized quotients, and exhaustive
splitting verification at small rank.
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
from .polynomials import Poly, from_counts, group_poincare
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
    dominance_leq,
    full_system,
    inversion_roots,
    is_separable_recursive,
    subsystem_spanned_by,
)
from .signed_perm import (
    Window,
    all_windows,
    compose,
    format_window,
    group_order,
    identity,
    inverse,
    inversion_mask,
    length,
    longest_element,
    parse_window,
    simple_reflection,
    statistic_sets,
)
from .weak_order import (
    ideal_polynomial,
    interval_right,
    iter_reduced_words,
    left_leq,
    lower_covers_left,
    lower_ideal_left,
    rank_polynomial,
    reduced_word_count,
    right_leq,
    upper_ideal_left,
)

__version__ = "0.1.0"
