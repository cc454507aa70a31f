"""Numerical laboratory for reverse Markov (Turan-type) inequalities.

Certified sup-norm ratios ||P'||/||P|| on real intervals for polynomials
with zeros restricted to the closed upper half-disk, level-set measures of
logarithmic derivatives, explicit lower-bound formulas with verdicts,
derivative-free extremal search, and near-extremal constructions.
"""

from .bounds import (
    KOMAROV_A,
    BoundBracket,
    Verdict,
    bracket_pass,
    class_brackets,
    cor23_lower,
    evaluate_verdict,
    komarov_lower,
    lemma34_bracket,
    thm22_lower,
    turan11_lower,
    turan_ratio,
)
from .classes import (
    ClassSpec,
    IncompleteSpec,
    MembershipReport,
    embed,
    in_upper_half_disk,
    incomplete_member,
    is_member,
    sample,
)
from .constructions import (
    ConstructionReport,
    classical_family,
    remark_family,
    thm24_construct,
)
from .errors import (
    MembershipError,
    OverflowEvaluationError,
    RegimeError,
    SearchFailure,
    TuranLabError,
)
from .levelsets import (
    LARGE_SET_CONSTANT,
    SMALL_SET_CONSTANT,
    DecayReport,
    LevelSetReport,
    MeanValueReport,
    flipped_decay_check,
    incomplete_decay_check,
    large_logderiv_measure,
    logderiv_values,
    mean_value_window_check,
    small_logderiv_measure,
)
from .poly import (
    Interval,
    Polynomial,
    conjugate,
    derivative_values,
    evaluate,
    evaluate_many,
    from_payload,
    from_zeros,
    to_payload,
)
from .search import (
    SearchConfig,
    SearchResult,
    SweepRow,
    SweepTable,
    frontier_sweep,
    minimize_incomplete_ratio,
    minimize_ratio,
)
from .supnorm import (
    CertifiedValue,
    argmax_abs,
    argmax_abs_derivative,
    sup_norm,
    sup_norm_derivative,
    total_variation,
)

__version__ = "0.1.0"
