"""Closed-form bound formulas, the derivative-ratio functional, verdicts.

All lower bounds refer to the functional ||P'||_I / ||P||_I with I the
default interval [-1, 1]:

* all zeros in [-1,1]            -> sqrt(n)/6
* all zeros in the half-disk     -> A * sqrt(n), A = 2/(3*sqrt(210e))
* n - k zeros in the half-disk,
  one zero on [-1,1], k >= 1     -> max(1/2, sqrt((n-k)/k)/808),
  and for k <= n/163000 the sharper sqrt((n-k)/(8k))/202.
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
    """[lower, upper] prediction; upper is None when no upper bound applies."""

    lower: float
    upper: float | None
    source: str

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError("lower bound must be nonnegative")
        if self.upper is not None and self.upper < self.lower:
            raise ValueError("bracket needs lower <= upper")


@dataclass(frozen=True)
class Verdict:
    ratio: CertifiedValue
    brackets: tuple
    passes: tuple


def turan_ratio(P: Polynomial, I: Interval = Interval()) -> CertifiedValue:
    """||P'||_I / ||P||_I with propagated error radius; both norms come
    from one pass of the sup engine."""
    if P.is_zero:
        raise ValueError("ratio undefined for the zero polynomial")
    (den, den_err, _), (num, num_err, _) = _sup_abs(P, I, (0, 1))
    if den <= 0:
        raise ValueError("vanishing sup-norm denominator")
    return _quotient(num, num_err, den, den_err)


def _quotient(num: float, num_err: float, den: float,
              den_err: float) -> CertifiedValue:
    """num/den (den > 0) with the radius propagated from both radii."""
    value = num / den
    err = (num_err + value * den_err) / max(den - den_err, 1e-300)
    return CertifiedValue(value, err, "critical-points")


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


def thm21_bracket(n: int, k: int, c1: float | None = None,
                  c2: float | None = None) -> BoundBracket:
    """Bracket c1*sqrt(n/(k+1)) <= f(n,k) <= c2*sqrt(n/(k+1)).

    With c1 unset, the lower edge defaults to the explicit constants:
    A*sqrt(n) at k = 0 and the interval-zero bound at k >= 1 (equivalent to
    folding the conversion factor between the k and k+1 normalizations into
    c1).  With c2 unset the bracket is one-sided; numeric upper edges come
    from construction sweeps.
    """
    if not (0 <= k <= n):
        raise ValueError(f"needs 0 <= k <= n, got n={n}, k={k}")
    if (c1 is not None and c1 <= 0) or (c2 is not None and c2 <= 0):
        raise ValueError("constants must be positive")
    s = math.sqrt(n / (k + 1.0)) if n >= 1 else 0.0
    if c1 is not None:
        lower = c1 * s
    elif n == 0:
        lower = 0.0
    elif k == 0:
        lower = komarov_lower(n)
    else:
        lower = cor23_lower(n, k)
    upper = c2 * s if c2 is not None else None
    return BoundBracket(lower, upper, "thm21")


def lemma34_bracket(n: int, k: int, c4: float | None = None) -> BoundBracket:
    """Bracket for the incomplete-class minimum: lower (n-k)/(12k).

    The upper constant is not pinned down anywhere; when c4 is supplied the
    bracket carries c4*n/k as a *reported* upper edge (sweeps calibrate it),
    otherwise the bracket is one-sided.
    """
    if not (1 <= k <= n - 1):
        raise ValueError(f"needs 1 <= k <= n-1, got n={n}, k={k}")
    lower = (n - k) / (12.0 * k)
    if c4 is None:
        return BoundBracket(lower, None, "lemma34-lower")
    return BoundBracket(lower, max(c4 * n / k, lower), "lemma34-upper")


def bracket_pass(ratio: CertifiedValue, bracket: BoundBracket) -> bool:
    ok = ratio.value + ratio.err >= bracket.lower
    if bracket.upper is not None:
        ok = ok and ratio.value - ratio.err <= bracket.upper
    return ok


def evaluate_verdict(P: Polynomial, spec: ClassSpec) -> Verdict:
    """Ratio of P against every bound whose hypotheses P satisfies."""
    rep = is_member(P, spec)
    if not rep:
        raise MembershipError(f"not a class member: {rep.detail}")
    ratio = turan_ratio(P)
    brackets = []
    d = P.degree
    if d >= 1 and all(_on_interval(z) for z in P.zeros):
        brackets.append(BoundBracket(turan11_lower(d), None, "turan11"))
    if spec.k == 0 and spec.n >= 1:
        brackets.append(BoundBracket(komarov_lower(spec.n), None, "komarov"))
    if spec.k >= 1 and spec.k * THM22_REGIME <= spec.n:
        brackets.append(BoundBracket(thm22_lower(spec.n, spec.k), None, "thm22"))
    if spec.pin_interval_zero and spec.k >= 1 and rep.pinned_index is not None:
        brackets.append(BoundBracket(cor23_lower(spec.n, spec.k), None, "cor23"))
    passes = tuple(bracket_pass(ratio, b) for b in brackets)
    return Verdict(ratio, tuple(brackets), passes)
