"""Explicit near-extremal polynomial families.

* the squared-argument pipeline Q(x) -> R(x) = Q(1-x) -> P(x) = R(x^2),
  which turns an incomplete polynomial on [0,1] into a member of the
  half-disk class of doubled parameters with small derivative ratio.  Q
  minimizes the ratio of the P it yields, through the exact identity
  ||P'||_[-1,1] / ||P||_[-1,1] = max_{y in [0,1]} 2 sqrt(1-y) |Q'(y)| / ||Q||_[0,1];
* the roots-of-unity family (z^m - 1)^n, the counterexample showing the
  full-disk analogue of the half-disk lower bound fails;
* the classical interval families (x^2-1)^m and (x^2-1)^m (x+1).

All pipeline steps stay in factored form, so the zero multisets of the
intermediates are exact (zeros of R are 1 - z, zeros of P are the two
square roots of each zero of R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _quotient, turan_ratio, turan11_lower
from .classes import ClassSpec, MembershipReport, is_member
from .errors import RegimeError
from .poly import Interval, Polynomial, from_zeros
from .search import SearchConfig, _warm_family, coefficient_search
from .supnorm import CertifiedValue, _sup_abs, argmax_abs_derivative


@dataclass(frozen=True)
class ConstructionReport:
    P: Polynomial
    intermediate: dict
    ratio: CertifiedValue
    predicted_bound: float | None
    class_check: MembershipReport
    details: dict


def _squared_argument(Q: Polynomial) -> tuple:
    """R(x) = Q(1-x) and P(x) = R(x^2), in factored form."""
    R = from_zeros(Q.leading * (-1.0) ** Q.degree,
                   tuple(1.0 - z for z in Q.zeros))
    p_zeros = []
    for w in R.zeros:
        s = np.sqrt(complex(w))
        p_zeros.extend((s, -s))
    return R, from_zeros(R.leading, p_zeros)


def thm24_construct(n: int, k: int,
                    cfg: SearchConfig = SearchConfig(budget=4000, restarts=8)) -> ConstructionReport:
    """Build P(x) = R(x^2) with R(x) = Q(1-x) from a searched incomplete Q.

    Q = y^(n-k+1) * S(y), deg S <= k-1, minimizes the ratio of the P it
    yields.  Since P(x) = Q(1-x^2),

        ||P'||_[-1,1] / ||P||_[-1,1]
            = max_{y in [0,1]} 2 sqrt(1-y) |Q'(y)| / ||Q||_[0,1],

    the coefficient search descends a grid estimate of the right side over
    the coefficients of S, each restart's P is certified with turan_ratio,
    and the lowest certified value wins.  (The weight 2 sqrt(1-y) = 2|x|
    vanishes at y = 1, where ||Q'||_[0,1] is attained, so the unweighted
    ||Q'||/||Q|| would tune Q for a point that does not count for P.)

    The result P has degree <= 2n, is divisible by (x^2-1)^(n-k+1), and
    lands in the class (2n, 2k).  The report records the certified
    ||Q'||/||Q|| on [0,1] of the chosen Q ("inner_ratio"), where |P'|
    attains its maximum on [0,1], and whether that lands inside
    [0, sqrt(10(2k+1)/n)] (vacuous when the radicand reaches 1).
    """
    if not (1 <= k and 2 * k <= n):
        raise RegimeError(f"needs 1 <= k <= n/2, got n={n}, k={k}")

    def weighted(ys):
        weight = 2.0 * np.sqrt(1.0 - ys)
        return lambda q, dq: (np.max(weight * np.abs(dq), axis=1),
                              np.max(np.abs(q), axis=1))

    (ratio, Q, _), _, _ = coefficient_search(
        n - k, k, cfg, weighted, lambda Q: turan_ratio(_squared_argument(Q)[1]))
    R, P = _squared_argument(Q)

    check = is_member(P, ClassSpec(2 * n, 2 * k, pin_interval_zero=True))
    a = argmax_abs_derivative(P, Interval(0.0, 1.0))
    confine = math.sqrt(10.0 * (2 * k + 1) / n)
    if confine >= 1.0:
        status = "vacuous"
    else:
        status = "inside" if a <= confine else "outside"
    details = {
        "inner_ratio": turan_ratio(Q, Interval(0.0, 1.0)).value,
        "inner_degree": Q.degree,
        "correction_degree": max(Q.degree - (n - k + 1), 0),
        "derivative_argmax": a,
        "confinement_bound": confine,
        "confinement": status,
    }
    return ConstructionReport(P, {"Q": Q, "R": R}, ratio, None, check, details)


def remark_family(epsilon: float, n: int) -> ConstructionReport:
    """The family (z^m - 1)^n with m the even integer in (1/eps, 1/eps + 2].

    All mn zeros sit on the unit circle, the sup-norm on [-1,1] is 1, the
    maximizer a of |P'| on [0,1] satisfies a^m = (m-1)/(mn-1), and the
    derivative ratio stays below (1/eps + 2)^(1-eps) * (mn)^eps -- slower
    than any fixed power >= 1/2 of the degree, which is the point.  The
    degree mn may not pass 5000, as the engine's cost grows with it.
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("needs 0 < epsilon <= 1")
    if n < 1:
        raise ValueError("needs n >= 1")
    inv = 1.0 / epsilon
    m = 2 * (math.floor(inv / 2.0) + 1)
    if not (m % 2 == 0 and inv < m <= inv + 2.0):
        raise ValueError(f"epsilon {epsilon!r} leaves no even m in (1/eps, 1/eps + 2]")
    if m * n > 5000:
        raise ValueError(f"degree m*n = {m * n} exceeds 5000, the largest remark builds")
    zeros = tuple(np.exp(2j * np.pi * j / m) for j in range(m)) * n
    P = from_zeros(1.0, zeros)
    deg = m * n
    # P is even and |P'| peaks on [0, 1] at a alone: on [-1, 1], leftmost at -a
    (norm, norm_err, _), (num, num_err, a) = _sup_abs(P, Interval(), (0, 1))
    ratio = _quotient(num, num_err, norm, norm_err)
    a = abs(a)
    closed = (m - 1.0) / (m * n - 1.0)
    bound = (inv + 2.0) ** (1.0 - epsilon) * deg ** epsilon
    check = is_member(P, ClassSpec(deg, deg, pin_interval_zero=True))
    details = {
        "m": m,
        "norm": norm,
        "derivative_argmax": a,
        "argmax_power": a ** m,
        "closed_form_argmax_power": closed,
        "argmax_deviation": abs(a ** m - closed),
    }
    return ConstructionReport(P, {}, ratio, bound, check, details)


def classical_family(name: str, m: int) -> ConstructionReport:
    """The interval families: "turan-even" (x^2-1)^m, "turan-odd" with an
    extra factor (x+1).  Reports the ratio, the sqrt(n)/6 floor for its
    degree, and the sharpness quotient ratio/sqrt(n)."""
    if name not in ("turan-even", "turan-odd"):
        raise ValueError(f"unknown family: {name!r}")
    if m < 1:
        raise ValueError("needs m >= 1")
    deg = 2 * m + 1 if name == "turan-odd" else 2 * m
    ratio, P = _warm_family(deg)[0]           # the Turan-ordered member
    check = is_member(P, ClassSpec(deg, 0, pin_interval_zero=True))
    details = {
        "degree": deg,
        "turan_lower": turan11_lower(deg),
        "sharpness_quotient": ratio.value / math.sqrt(deg),
    }
    return ConstructionReport(P, {}, ratio, None, check, details)
