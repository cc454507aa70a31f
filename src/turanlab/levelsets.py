"""Measures of logarithmic-derivative level sets and pointwise decay checks.

The level sets {|Q'/Q| <= c} and {|R'/R| >= c} are measured from the zero
list: s = Q'/Q = sum 1/(x - z_i) is evaluated at cell midpoints, and a local
Lipschitz bound of s on each cell (from the distances of the zeros to it)
decides whether the whole cell is inside or outside.  Where it cannot, a
bound on the derivative of |s|^2 may show |s| monotone on the cell; then
the cell's two ends classify it, or Newton steps locate the one boundary
point in it to within _MIN_CELL.  Poles of s at real zeros are cell ends;
where one alone outweighs the rest of s on a cell, |s| exceeds the level
there.  Any other cell is split.  The measure is the total length of the
inside cells.  The two decay checks compare two certified sup norms of
monic squares; the mean-value window check still samples |P|.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .classes import ClassSpec, _zeros_at, is_member
from .errors import MembershipError
from .poly import Interval, Polynomial, _blockwise, evaluate_many, from_zeros
from .supnorm import (
    _EPS,
    CertifiedValue,
    _absolute,
    _cheb_grid,
    _refine,
    _sup_abs,
    sup_norm,
)

# level-set cells narrower than this are classified by their midpoint, and
# a located boundary point is certified to within this width
_MIN_CELL = 1e-12

SMALL_SET_CONSTANT = 70.0 * math.e       # bound m{|Q'/Q| <= n*delta} < 70e*delta
LARGE_SET_CONSTANT = 8.0 * math.sqrt(2)  # bound m{|R'/R| >= alpha} <= 8*sqrt(2)*k/alpha

# uniform sample points of the mean-value window
_WINDOW_SAMPLES = 200


@dataclass(frozen=True)
class LevelSetReport:
    measure: CertifiedValue
    bound: float
    parameter: float
    satisfied: bool
    intervals: tuple

    def to_payload(self) -> dict:
        return asdict(self) | {
            "measure": self.measure.value,
            "err": self.measure.err,
            "intervals": [[iv.lo, iv.hi] for iv in self.intervals],
        }


@dataclass(frozen=True)
class DecayReport:
    restricted_sup: float
    full_sup: float
    interval: Interval
    vacuous: bool
    satisfied: bool

    def to_payload(self) -> dict:
        return asdict(self) | {"interval": [self.interval.lo, self.interval.hi]}


def _inverse_sums(x, zs):
    """s = sum 1/(x - z_i), sum |1/(x - z_i)| and s' = -sum 1/(x - z_i)^2
    at the points x, for the zeros z_i in the column zs."""
    inv = 1.0 / (x - zs)
    return inv.sum(0), np.abs(inv).sum(0), -(inv * inv).sum(0)


def _level_set(P: Polynomial, level: float, small: bool, ambient: Interval):
    """Measure and intervals of {|s| <= level} (small) or {|s| >= level}
    inside ambient, s = P'/P = sum 1/(x - z_i).

    Cells start as the 8(d+1)-cell Chebyshev grid of ambient with the real
    parts of the zeros inserted as ends; the sup engine's coarser start
    costs this test more rounds than it saves.  On a cell [m - r, m + r],
    with dist_i the distance of z_i to it, D2 = sum 1/dist_i^2 and
    D3 = sum 1/dist_i^3,

        1/(x-z) - 1/(m-z) = (m-x) / ((x-z)(m-z)),
        1/(x-z)^2 - 1/(m-z)^2 = (m-x)(m+x-2z) / ((x-z)^2 (m-z)^2)

    give |s(x) - s_m| <= e1 = r D2 + rnd_s and, for s' = -sum 1/(x-z_i)^2,
    |s'(x) - s'_m| <= e2 = 2 r D3 + rnd_s', where s_m, s'_m are the values
    computed at m and rnd_s = 4(d+1) eps sum |1/(m-z_i)|,
    rnd_s' = 8(d+1) eps D2 bound their rounding.  e1 settles a cell as
    inside or outside.  Where it cannot, s = s_m + u, s' = s'_m + v gives

        |Re(conj(s) s') - Re(conj(s_m) s'_m)| <= (|s_m| + e1) e2 + e1 |s'_m|,

    so if the computed |Re(conj(s_m) s'_m)| exceeds this bound, enlarged by
    the factor 1 + 8(d+2) eps for its rounding and by 4 eps |s_m| |s'_m| for
    that of the product, (|s|^2)' = 2 Re(conj(s) s') keeps its sign and
    |s|^2 is strictly monotone on the cell.  That needs e1 < |s_m|, so only
    those cells pay for s'_m and D3.  Point tests (r = 0) at the ends of a
    monotone cell then settle it when they agree.  When they disagree, the
    cell holds one crossing of the level: Newton steps on |s|^2 - level^2,
    kept in a bisected bracket, locate it at x*, and point tests at the ends
    of the _MIN_CELL-wide piece around x* certify it when they match the
    cell ends they face.  The rest of the cell is then settled, the cell
    splits at x*, and as the crossing is in the piece [pl, pr], the
    distance max(x* - pl, pr - x*), rounded up, goes into the radius.  A
    real zero z0 on the ambient interval is a cell end, so D2 is infinite
    beside it.  Where z0, of multiplicity mu, is one end of a cell and no
    real zero the other (two poles can cancel),
    |s| >= mu/(b - a) - (|s_rest(m)| + r D2_rest + rnd_rest) on the
    cell, s_rest the other zeros' part of s; where that, padded for its
    rounding, exceeds the level, the cell is out of {|s| <= level} and in
    {|s| >= level}.  Any other cell, as at a tangency of |s| with the
    level, is split.  _refine returns each final cell with a code:
    0 out, 1 in, 2 crossing located (the crossing step records its inside
    part and its error).  A cell narrower than _MIN_CELL, or live when the
    cells would exceed the cap, is given up on: its midpoint classifies it
    and its width goes into the radius.
    """
    lo, hi = ambient.lo, ambient.hi
    zs = np.asarray(P.zeros, dtype=complex)[:, None]
    d = zs.size
    inner = zs.real[(zs.real > lo) & (zs.real < hi)]
    zr, zi2 = zs.real, zs.imag ** 2
    poles = zs.real[(zs.imag == 0) & (zs.real >= lo) & (zs.real <= hi)][:, None]
    # an inner Chebyshev point within rounding of a real zero would leave
    # beside it a sliver that no test settles: the zero takes its place
    cheb = _cheb_grid(lo, hi, 8 * d + 8)[1:-1]
    cheb = cheb[np.all(np.abs(cheb - poles) > 4.0 * _EPS * max(abs(lo), abs(hi)), axis=0)]
    grid = np.unique(np.concatenate([[lo, hi], cheb, inner]))
    rnd = 4.0 * (d + 1) * _EPS
    located = [np.zeros((3, 0))]    # (inside part, error) per crossing
    pending = []    # (a, b, in at a, s, s') of the cells to locate a crossing in

    def classify(s, slack):
        """(certainly in, certainly out, in by the value) from the computed
        s and a bound on the error of |s|."""
        s = np.abs(s)
        s[~np.isfinite(s)] = np.inf
        if small:
            return s + slack <= level, s - slack > level, s <= level
        return s - slack >= level, s + slack < level, s >= level

    def point(x):
        """(certainly in, certainly out, in by the value) at the points x."""
        s, size, _ = _blockwise(lambda x: _inverse_sums(x, zs), d, x)
        return classify(s, rnd * size)

    # every (zeros x cells) array is built on blocks of cells; the crossings
    # of all blocks are located together, as the Newton steps run in lockstep
    def settle(a, b):
        done, code = _blockwise(settle_block, d, a, b)
        if pending:
            found = pending[0] if len(pending) == 1 else map(np.concatenate, zip(*pending))
            done[code == 2] = crossing(*found)
            pending.clear()
        return done, code

    def settle_block(a, b):
        """(settled, code: 0 out, 1 in, 2 one crossing to locate) per cell."""
        m = 0.5 * (a + b)
        r = np.maximum(b - m, m - a)
        inv = 1.0 / (m - zs)
        gap = np.maximum(np.maximum(a - zr, zr - b), 0.0)
        w = 1.0 / (gap ** 2 + zi2)
        d2 = w.sum(0)
        s = inv.sum(0)
        e1 = r * d2 + rnd * np.abs(inv).sum(0)
        inside, outside, _ = classify(s, e1)
        done = inside | outside
        code = inside.astype(np.int8)
        if poles.size:
            mu_a, mu_b = (poles == a).sum(0), (poles == b).sum(0)
            k = np.flatnonzero(~done & ((mu_a > 0) != (mu_b > 0)))
            if k.size:
                pole = (zi2 == 0) & ((zr == a[k]) | (zr == b[k]))
                rest = np.where(pole, 0.0, inv[:, k])
                part = (np.abs(rest.sum(0)) + rnd * np.abs(rest).sum(0)
                        + r[k] * np.where(pole, 0.0, w[:, k]).sum(0))
                far = ((mu_a + mu_b)[k] / (b[k] - a[k]) * (1.0 - 4.0 * _EPS)
                       > (part + level) * (1.0 + 2.0 * (d + 3) * _EPS))
                done[k] = far
                code[k] = far & (not small)
        # |Re(conj(s) s')| <= |s| |s'| can only exceed the bound if e1 < |s|
        k = np.flatnonzero(~done & (e1 < np.abs(s)))
        if not k.size:
            return done, code
        inv, w, s, e1 = inv[:, k], w[:, k], s[k], e1[k]
        sp = -(inv * inv).sum(0)
        # rnd_s' = 8 (d + 1) eps sum |1/(m - z_i)|^2 <= 8 (d + 1) eps D2
        e2 = 2.0 * r[k] * (w * np.sqrt(w)).sum(0) + 2.0 * rnd * d2[k]
        dot = s.real * sp.real + s.imag * sp.imag
        abs_s, abs_sp = np.abs(s), np.abs(sp)
        bound = ((1.0 + 8.0 * (d + 2) * _EPS) * ((abs_s + e1) * e2 + e1 * abs_sp)
                 + 4.0 * _EPS * abs_s * abs_sp)
        mono = np.abs(dot) > bound
        k, s, sp = k[mono], s[mono], sp[mono]
        if not k.size:
            return done, code
        ka, kb = a[k], b[k]
        ins, outs, _ = point(np.concatenate([ka, kb]))
        ia, ib, oa, ob = ins[:k.size], ins[k.size:], outs[:k.size], outs[k.size:]
        whole = ia & ib
        done[k] = whole | (oa & ob)
        one = (ia & ob) | (oa & ib)
        code[k] = whole + 2 * one
        if one.any():
            pending.append((ka[one], kb[one], ia[one], s[one], sp[one]))
        return done, code

    def crossing(a, b, ina, s, sp):
        """Locate and certify the one crossing of the level in each cell
        [a, b], given s and s' at the midpoints; True where it is certified
        and the inside part and the piece are recorded."""
        below_left = ina == small   # |s|^2 - level^2 < 0 at a
        x, xl, xr = 0.5 * (a + b), a, b
        for _ in range(64):   # bisection alone takes width 2 below _MIN_CELL/4 in 43
            g = s.real ** 2 + s.imag ** 2 - level ** 2
            left = (g < 0) == below_left
            xl, xr = np.where(left, x, xl), np.where(left, xr, x)
            step = x - g / (2.0 * (s.real * sp.real + s.imag * sp.imag))
            step = np.where((step >= xl) & (step <= xr), step, 0.5 * (xl + xr))
            moved = np.abs(step - x) > 0.25 * _MIN_CELL
            x = step
            if not moved.any():
                break
            s, _, sp = _blockwise(lambda x: _inverse_sums(x, zs), d, x)
        pl = np.maximum(a, x - 0.5 * _MIN_CELL)
        pr = np.minimum(b, pl + _MIN_CELL)
        # no wider than _MIN_CELL after the rounding of pl + _MIN_CELL
        pr = np.where(pr - pl > _MIN_CELL, np.nextafter(pr, -np.inf), pr)
        ins, outs, _ = point(np.concatenate([pl, pr]))
        n = a.size
        ok = np.where(ina, ins[:n] & outs[n:], outs[:n] & ins[n:])
        a, b, x, ina, pl, pr = a[ok], b[ok], x[ok], ina[ok], pl[ok], pr[ok]
        # the crossing lies in [pl, pr], so x is within max(x - pl, pr - x)
        # of it: that, rounded up, is its error
        located.append(np.array([np.where(ina, a, x), np.where(ina, x, b),
                                 np.nextafter(np.maximum(x - pl, pr - x), np.inf)]))
        return ok

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, b, code, given_up = _refine(grid, settle, _MIN_CELL, d)
        if given_up.any():
            code[given_up] = point(0.5 * (a[given_up] + b[given_up]))[2]
    located = np.concatenate(located, axis=1)
    inside = code == 1
    cells = np.concatenate([[a[inside], b[inside]], located[:2]], axis=1)
    cells = cells[:, cells[1] > cells[0]]
    cells = cells[:, np.argsort(cells[0], kind="stable")]
    intervals = []
    for x0, x1 in cells.T:
        if intervals and intervals[-1][1] == x0:
            intervals[-1][1] = x1
        else:
            intervals.append([x0, x1])
    widths = np.concatenate([located[2], (b - a)[given_up]])
    value = float(np.sum(cells[1] - cells[0]))
    # value rounds: the merged intervals have the cells' exact total length,
    # and fsum gives it less value, rounded to nearest (the 4 eps pad covers
    # that); the radius adds the widths to it, and fsum rounds that sum to
    # nearest too (the 2 eps pad covers it)
    slip = abs(math.fsum([-value] + [x for x0, x1 in intervals for x in (x1, -x0)]))
    measure = CertifiedValue(value, math.fsum(widths.tolist() + [slip * (1.0 + 4.0 * _EPS)])
                             * (1.0 + 2.0 * _EPS))
    return measure, tuple(Interval(x0, x1) for x0, x1 in intervals)


def small_logderiv_measure(Q: Polynomial, delta: float,
                           ambient: Interval = Interval()) -> LevelSetReport:
    """Measure of {x in ambient : |Q'(x)/Q(x)| <= n*delta}, n = deg Q.

    Q must have all its zeros in the closed upper half-disk; the reported
    bound is 70e * delta and satisfaction is strict.
    """
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
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
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    measure, intervals = _level_set(R, alpha, False, ambient)
    bound = LARGE_SET_CONSTANT * R.degree / alpha
    satisfied = measure.value - measure.err <= bound
    return LevelSetReport(measure, bound, alpha, satisfied, intervals)


def _decay(restricted: Polynomial, full: Polynomial, I: Interval, P: Polynomial, what: str):
    """DecayReport of sup_I |restricted| < sup_[0,1] |full|, by certified sup
    norms of these monic polynomials, whose sups are the squares of the
    checked sups of P / |leading|; the sups are reported as square roots
    scaled back by _absolute, and a one-point I as vacuous."""
    r, f = sup_norm(restricted, I), sup_norm(full, Interval(0.0, 1.0))
    return DecayReport(*(_absolute(P, math.sqrt(v.value), 0.0, what).value for v in (r, f)),
                       I, I.lo == I.hi, r.value + r.err < f.value - f.err)


def incomplete_decay_check(S: Polynomial, n: int, k: int) -> DecayReport:
    """Check |S(x)| < x^((n-k)/2) * ||S||_[0,1] on [0, 1 - 10k/(n-k)].

    S must factor as x^(n-k) * R with deg R <= k (its n-k zeros nearest 0
    count as 0): the sups of x^(n-k) R^2 there and x^(2(n-k)) R^2 on [0, 1]
    decide it.  Where 10k >= n-k the interval is [0, 0], which is vacuous.
    """
    if not (1 <= k <= n - 1):
        raise ValueError(f"needs 1 <= k <= n-1, got n={n}, k={k}")
    if S.degree > n or _zeros_at(S, 0.0) < n - k:
        raise MembershipError(
            f"shape mismatch: need degree <= {n} with >= {n - k} zeros at 0")
    hi = max(1.0 - 10.0 * k / (n - k), 0.0)
    R2 = 2 * sorted(S.zeros, key=abs)[n - k:]
    return _decay(from_zeros(1.0, [0.0] * (n - k) + R2),
                  from_zeros(1.0, [0.0] * (2 * (n - k)) + R2),
                  Interval(0.0, hi), S, "the sup of |S(x)| / x^((n-k)/2)")


def flipped_decay_check(W: Polynomial, n: int, k: int) -> DecayReport:
    """Check sup of |y^(1/2) W(y)| over [10(2k+1)/n, 1] < sup over [0, 1].

    W must factor as (1-x)^(n-k) * V with deg V <= k and 1 <= k <= n/2.
    Both sups come from the monic y (W(y) / leading)^2; where
    10(2k+1)/n >= 1 they are compared at y = 1, which is vacuous.
    """
    if not (1 <= k and 2 * k <= n):
        raise ValueError(f"needs 1 <= k <= n/2, got n={n}, k={k}")
    if W.degree > n or _zeros_at(W, 1.0) < n - k:
        raise MembershipError(
            f"shape mismatch: need degree <= {n} with >= {n - k} zeros at 1")
    aux = from_zeros(1.0, W.zeros + W.zeros + (0.0,))
    lo = min(10.0 * (2 * k + 1) / n, 1.0)
    return _decay(aux, aux, Interval(lo, 1.0), W, "the sup of |y^(1/2) W(y)|")


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
    |y - x0| <= 1/(2M) with M = ||P'||/||P||, decided on the monic P / leading
    as flipped_decay_check is; _absolute scales min_abs and half_norm back."""
    (den, _, x0), (num, _, _) = _sup_abs(P, I, (0, 1))
    if den == 0:
        raise ValueError("vanishing sup-norm denominator")
    M = num / den
    half_width = 0.5 / M if M > 0 else (I.hi - I.lo)
    window = Interval(max(I.lo, x0 - half_width), min(I.hi, x0 + half_width))
    ys = np.linspace(window.lo, window.hi, _WINDOW_SAMPLES)
    min_abs = float(np.min(np.abs(evaluate_many(from_zeros(1.0, P.zeros), ys))))
    ok = min_abs >= 0.5 * den * (1.0 - 1e-9)
    return MeanValueReport(M, window, *(_absolute(P, v, 0.0, "the sup norm of P").value
                                        for v in (min_abs, 0.5 * den)), ok)


def logderiv_values(P: Polynomial, xs) -> np.ndarray:
    """|P'/P| = |sum 1/(x - z_i)| at sample points (inf where P vanishes),
    finite wherever P is nonzero, however small or large P is there."""
    zs = np.asarray(P.zeros, dtype=complex)[:, None]
    x = np.asarray(xs, dtype=complex).ravel()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = _blockwise(lambda x: _inverse_sums(x, zs), zs.size, x)[0]
    out = np.abs(s)
    out[~np.isfinite(out)] = np.inf
    return out
