"""Measures of logarithmic-derivative level sets and pointwise decay checks.

The level sets {|Q'/Q| <= c} and {|R'/R| >= c} are measured from the zero
list: s = Q'/Q = sum 1/(x - z_i) is evaluated at cell midpoints, and a local
Lipschitz bound of s on each cell (from the distances of the zeros to it)
decides whether the whole cell is inside, outside, or has to be split.
Poles of s at real zeros are cell ends, so they need no special casing.
The measure is the total length of the inside cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import ClassSpec, _zeros_at, is_member
from .errors import MembershipError
from .poly import Interval, Polynomial, _values, evaluate_many, from_zeros
from .supnorm import (
    _EPS,
    CertifiedValue,
    _engine_grid,
    _refine,
    _sup_abs,
    sup_norm,
)

# level-set cells narrower than this are classified by their midpoint
_MIN_CELL = 1e-12

SMALL_SET_CONSTANT = 70.0 * math.e       # bound m{|Q'/Q| <= n*delta} < 70e*delta
LARGE_SET_CONSTANT = 8.0 * math.sqrt(2)  # bound m{|R'/R| >= alpha} <= 8*sqrt(2)*k/alpha

# uniform sample points of the decay check's interval and of the
# mean-value window
_DECAY_SAMPLES = 10_000
_WINDOW_SAMPLES = 200


@dataclass(frozen=True)
class LevelSetReport:
    measure: CertifiedValue
    bound: float
    parameter: float
    satisfied: bool
    intervals: tuple

    def to_payload(self) -> dict:
        return {
            "measure": self.measure.value,
            "err": self.measure.err,
            "bound": self.bound,
            "parameter": self.parameter,
            "satisfied": self.satisfied,
            "intervals": [[iv.lo, iv.hi] for iv in self.intervals],
        }


@dataclass(frozen=True)
class DecayReport:
    max_violation: float | None
    interval: Interval | None
    vacuous: bool
    satisfied: bool
    samples: int

    def to_payload(self) -> dict:
        return {
            "max_violation": self.max_violation,
            "interval": None if self.interval is None else [self.interval.lo, self.interval.hi],
            "vacuous": self.vacuous,
            "satisfied": self.satisfied,
            "samples": self.samples,
        }


@dataclass(frozen=True)
class FlippedDecayReport:
    restricted_sup: float
    full_sup: float
    degenerate: bool
    satisfied: bool

    def to_payload(self) -> dict:
        return {
            "restricted_sup": self.restricted_sup,
            "full_sup": self.full_sup,
            "degenerate": self.degenerate,
            "satisfied": self.satisfied,
        }


def _level_set(P: Polynomial, level: float, small: bool, ambient: Interval):
    """Measure and intervals of {|s| <= level} (small) or {|s| >= level}
    inside ambient, s = P'/P = sum 1/(x - z_i).

    Cells start as the grid of the sup engine with the real parts of the
    zeros inserted as ends.  On a cell [m - r, m + r],
    |s(x) - s(m)| <= r * sum_i 1/dist(z_i, cell)^2, which classifies the cell
    as inside, outside or to be split.  A cell narrower than _MIN_CELL is
    classified by its midpoint and its width goes into the radius, as does
    the width left unresolved when the live cells would exceed the cap.
    """
    lo, hi = ambient.lo, ambient.hi
    zs = np.asarray(P.zeros, dtype=complex)
    d = zs.size
    inner = zs.real[(zs.real > lo) & (zs.real < hi)]
    grid = np.unique(np.concatenate([_engine_grid(P, ambient), inner]))
    zr, zi2 = zs.real[:, None], (zs.imag ** 2)[:, None]
    cells = [np.zeros((2, 0))]

    def in_set(a, b):
        """(certainly in, certainly out, in by the midpoint) per cell."""
        m, r = 0.5 * (a + b), 0.5 * (b - a)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / (m[None, :] - zs[:, None])
            s = np.abs(np.sum(inv, axis=0))
            s[~np.isfinite(s)] = np.inf
            gap = np.maximum(np.maximum(a[None, :] - zr, zr - b[None, :]), 0.0)
            slack = (r * np.sum(1.0 / (gap ** 2 + zi2), axis=0)
                     + 4.0 * (d + 1) * _EPS * np.sum(np.abs(inv), axis=0))
        if small:
            return s + slack <= level, s - slack > level, s <= level
        return s - slack >= level, s + slack < level, s >= level

    def settle(a, b):
        inside, outside, _ = in_set(a, b)
        cells.append(np.stack([a[inside], b[inside]]))
        return inside | outside

    _, la, lb = _refine(grid, settle, _MIN_CELL, d)
    take = in_set(la, lb)[2]
    cells.append(np.stack([la[take], lb[take]]))
    cells = np.concatenate(cells, axis=1)
    cells = cells[:, np.argsort(cells[0], kind="stable")]
    intervals = []
    for x0, x1 in cells.T:
        if intervals and intervals[-1][1] == x0:
            intervals[-1][1] = x1
        else:
            intervals.append([x0, x1])
    measure = CertifiedValue(float(np.sum(cells[1] - cells[0])),
                             float(np.sum(lb - la)))
    return measure, tuple(Interval(x0, x1) for x0, x1 in intervals)


def small_logderiv_measure(Q: Polynomial, delta: float,
                           ambient: Interval = Interval()) -> LevelSetReport:
    """Measure of {x in ambient : |Q'(x)/Q(x)| <= n*delta}, n = deg Q.

    Q must have all its zeros in the closed upper half-disk; the reported
    bound is 70e * delta and satisfaction is strict.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = Q.degree
    if n == 0:
        raise ValueError("needs a nonconstant polynomial")
    rep = is_member(Q, ClassSpec(n, 0))
    if not rep:
        raise MembershipError(
            f"level-set hypothesis needs all zeros in the upper half-disk: {rep.detail}")
    measure, intervals = _level_set(Q, n * delta, True, ambient)
    bound = SMALL_SET_CONSTANT * delta
    satisfied = measure.value + measure.err < bound
    return LevelSetReport(measure, bound, delta, satisfied, intervals)


def large_logderiv_measure(R: Polynomial, alpha: float,
                           ambient: Interval = Interval()) -> LevelSetReport:
    """Measure of {x in ambient : |R'(x)/R(x)| >= alpha}.

    The set is defined on all of R; only its restriction to the ambient
    interval is measured here.  Real zeros of R belong to the set (the
    logarithmic derivative blows up), which the cell classification
    handles automatically.  A constant R has measure zero.  Bound: 8*sqrt(2)*k/alpha
    with k = deg R, non-strict.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    k = R.degree
    if k == 0:
        measure = CertifiedValue(0.0, 0.0)
        return LevelSetReport(measure, 0.0, alpha, True, ())
    measure, intervals = _level_set(R, alpha, False, ambient)
    bound = LARGE_SET_CONSTANT * k / alpha
    satisfied = measure.value - measure.err <= bound
    return LevelSetReport(measure, bound, alpha, satisfied, intervals)


def incomplete_decay_check(S: Polynomial, n: int, k: int) -> DecayReport:
    """Check |S(x)| <= x^((n-k)/2) * ||S||_[0,1] on [0, 1 - 10k/(n-k)].

    S must factor as x^(n-k) * R with deg R <= k.  The comparison interval
    can be empty (10k >= n-k), which is reported as a vacuous pass.
    """
    if not (1 <= k <= n - 1):
        raise ValueError(f"needs 1 <= k <= n-1, got n={n}, k={k}")
    if S.degree > n or _zeros_at(S, 0.0) < n - k:
        raise MembershipError(
            f"shape mismatch: need degree <= {n} with >= {n - k} zeros at 0")
    hi = 1.0 - 10.0 * k / (n - k)
    if hi <= 0.0:
        return DecayReport(None, None, True, True, 0)
    norm = sup_norm(S, Interval(0.0, 1.0)).value
    xs = np.linspace(0.0, hi, _DECAY_SAMPLES)
    vals = np.abs(evaluate_many(S, xs))
    envelope = xs ** ((n - k) / 2.0) * norm
    viol = float(np.max(vals - envelope))
    return DecayReport(viol, Interval(0.0, hi), False,
                       viol <= 1e-12 * (1.0 + norm), _DECAY_SAMPLES)


def flipped_decay_check(W: Polynomial, n: int, k: int) -> FlippedDecayReport:
    """Check sup of |y^(1/2) W(y)| over [10(2k+1)/n, 1] < sup over [0, 1].

    W must factor as (1-x)^(n-k) * V with deg V <= k and 1 <= k <= n/2.
    Both sups are taken through the auxiliary polynomial x * W(x)^2, whose
    absolute value on [0,1] is the square of the target quantity.
    """
    if not (1 <= k and 2 * k <= n):
        raise ValueError(f"needs 1 <= k <= n/2, got n={n}, k={k}")
    if W.degree > n or _zeros_at(W, 1.0) < n - k:
        raise MembershipError(
            f"shape mismatch: need degree <= {n} with >= {n - k} zeros at 1")
    aux = from_zeros(W.leading ** 2, W.zeros + W.zeros + (0.0,))
    y0 = 10.0 * (2 * k + 1) / n
    degenerate = y0 >= 1.0
    lo = min(y0, 1.0)
    full = sup_norm(aux, Interval(0.0, 1.0))
    restricted = sup_norm(aux, Interval(lo, 1.0))
    r = math.sqrt(max(restricted.value, 0.0))
    f = math.sqrt(max(full.value, 0.0))
    satisfied = r + restricted.err < f - full.err
    return FlippedDecayReport(r, f, degenerate, satisfied)


@dataclass(frozen=True)
class MeanValueReport:
    ratio: float
    window: Interval
    min_abs: float
    half_norm: float
    satisfied: bool


def mean_value_window_check(P: Polynomial,
                            I: Interval = Interval()) -> MeanValueReport:
    """Around a maximizer x0 of |P|, check |P(y)| >= ||P||/2 for
    |y - x0| <= 1/(2M) with M = ||P'||/||P||."""
    (den, _, x0), (num, _, _) = _sup_abs(P, I, (0, 1))
    if den == 0:
        raise ValueError("vanishing sup-norm denominator")
    M = num / den
    half_width = 0.5 / M if M > 0 else (I.hi - I.lo)
    window = Interval(max(I.lo, x0 - half_width), min(I.hi, x0 + half_width))
    ys = np.linspace(window.lo, window.hi, _WINDOW_SAMPLES)
    min_abs = float(np.min(np.abs(evaluate_many(P, ys))))
    ok = min_abs >= 0.5 * den - 1e-9 * (1.0 + den)
    return MeanValueReport(M, window, min_abs, 0.5 * den, ok)


def logderiv_values(P: Polynomial, xs) -> np.ndarray:
    """|P'/P| at sample points (inf where P vanishes)."""
    v, dv = _values(P, xs, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.abs(dv) / np.abs(v)
    out[~np.isfinite(out)] = np.inf
    return out
