"""Closed-form bound formulas, the derivative-ratio functional, verdicts.

All lower bounds refer to the functional ||P'||_I / ||P||_I with I the
default interval [-1, 1]:

* all zeros in [-1,1]            -> sqrt(n)/6
* all zeros in the half-disk     -> A * sqrt(n), A = 2/(3*sqrt(210e))
* n - k zeros in the half-disk,
  one zero on [-1,1], k >= 1     -> max(1/2, sqrt((n-k)/k)/808),
  and for k <= n/163000 the sharper sqrt((n-k)/(8k))/202.

``class_brackets`` alone decides which of the last three hold for every
member of a class; verdicts add the first, and searches report the
strongest class bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classes import ClassSpec, _on_interval, is_member
from .errors import MembershipError, RegimeError
from .poly import Interval, Polynomial
from .supnorm import CertifiedValue, _sup_abs

KOMAROV_A = 2.0 / (3.0 * math.sqrt(210.0 * math.e))  # 0.02790306...

THM22_REGIME = 163_000  # the sharper constant needs k <= n / THM22_REGIME


@dataclass(frozen=True)
class BoundBracket:
    """A lower bound on the ratio and the result it comes from."""

    lower: float
    source: str

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError("lower bound must be nonnegative")


@dataclass(frozen=True)
class Verdict:
    ratio: CertifiedValue
    brackets: tuple
    passes: tuple


def turan_ratio(P: Polynomial, I: Interval = Interval()) -> CertifiedValue:
    """||P'||_I / ||P||_I with propagated error radius; both norms come
    from one pass of the sup engine, without the leading coefficient, so
    the ratio does not depend on it."""
    (den, den_err, _), (num, num_err, _) = _sup_abs(P, I, (0, 1))
    if den <= 0:
        raise ValueError("vanishing sup-norm denominator")
    return _quotient(num, num_err, den, den_err)


def _quotient(num: float, num_err: float, den: float,
              den_err: float) -> CertifiedValue:
    """num/den (den > 0) with the radius propagated from both radii."""
    value = num / den
    err = (num_err + value * den_err) / max(den - den_err, 1e-300)
    return CertifiedValue(value, err)


def turan11_lower(n: int) -> float:
    """Lower bound sqrt(n)/6 (all zeros in [-1,1])."""
    if n < 1:
        raise ValueError("needs degree n >= 1")
    return math.sqrt(n) / 6.0


def komarov_lower(n: int) -> float:
    """Lower bound A*sqrt(n) (all zeros in the upper half-disk)."""
    if n < 1:
        raise ValueError("needs degree n >= 1")
    return KOMAROV_A * math.sqrt(n)


def thm22_lower(n: int, k: int) -> float:
    """(1/202) * sqrt((n-k)/(8k)); valid only for 1 <= k <= n/163000."""
    if not (1 <= k and k * THM22_REGIME <= n):
        raise RegimeError(
            f"requires 1 <= k <= n/{THM22_REGIME}; got n={n}, k={k}")
    return math.sqrt((n - k) / (8.0 * k)) / 202.0


def cor23_lower(n: int, k: int) -> float:
    """max(1/2, (1/808) * sqrt((n-k)/k)) for members with an interval zero."""
    if k == 0:
        raise RegimeError("k = 0 has no free zeros; use komarov_lower instead")
    if not (1 <= k <= n):
        raise ValueError(f"needs 1 <= k <= n, got n={n}, k={k}")
    return max(0.5, math.sqrt((n - k) / k) / 808.0)


def class_brackets(spec: ClassSpec) -> tuple:
    """The lower bounds that hold for every member of the class, in verdict
    order: Komarov's at k = 0 (every zero in the half-disk), Thm 2.2's in
    its regime, and Cor 2.3's when a zero is pinned to [-1, 1] and k >= 1."""
    n, k = spec.n, spec.k
    brackets = []
    if k == 0 and n >= 1:
        brackets.append(BoundBracket(komarov_lower(n), "komarov"))
    if k >= 1 and k * THM22_REGIME <= n:
        brackets.append(BoundBracket(thm22_lower(n, k), "thm22"))
    if spec.pin_interval_zero and k >= 1:
        brackets.append(BoundBracket(cor23_lower(n, k), "cor23"))
    return tuple(brackets)


def lemma34_bracket(n: int, k: int) -> BoundBracket:
    """Lower bound (n-k)/(12k) on the incomplete-class minimum."""
    if not (1 <= k <= n - 1):
        raise ValueError(f"needs 1 <= k <= n-1, got n={n}, k={k}")
    return BoundBracket((n - k) / (12.0 * k), "lemma34-lower")


def bracket_pass(ratio: CertifiedValue, bracket: BoundBracket) -> bool:
    return ratio.value + ratio.err >= bracket.lower


def evaluate_verdict(P: Polynomial, spec: ClassSpec) -> Verdict:
    """Ratio of P against every bound whose hypotheses P satisfies."""
    rep = is_member(P, spec)
    if not rep:
        raise MembershipError(f"not a class member: {rep.detail}")
    ratio = turan_ratio(P)
    brackets = class_brackets(spec)
    if P.degree >= 1 and all(_on_interval(z) for z in P.zeros):
        brackets = (BoundBracket(turan11_lower(P.degree), "turan11"),) + brackets
    passes = tuple(bracket_pass(ratio, b) for b in brackets)
    return Verdict(ratio, brackets, passes)
