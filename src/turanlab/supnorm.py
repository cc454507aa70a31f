"""Certified sup-norms on intervals and total variation, from the zero list.

One engine computes ``max |F|`` over an interval for F = P, F = P' or
both together, at any degree, from the zero list alone; one pass certifies
||P|| and ||P'|| for the ratio.  The real critical points of |F|^2 are the
roots of h = 2 Re(conj(F) F').  A Chebyshev grid of the interval, of
2(d+1) cells at high degree (d = deg P), is refined until bounds taken
from the zero list prove that each cell holds, for every F asked for, at
most one root of h, or no value of |F| above the maximum found so far.
A cell is first screened by its zero-list majorant t_o = M E_o of |F|
(poly._tops): where that top is below a certified lower bound on max |F|,
the cell is flat and takes no Taylor series, as nearly every start cell
does at high degree.  On the others the Taylor series of P on a cell is built
once (the zeros eight at a time: the groups' products expanded together,
then folded in turn) and gives those of P and P'.  It is cut after
tau^3, with a bound on the rest, and taken in full, at O(d^2) a cell,
only where the cut form fails and bisection could not do better.  Only
the candidate cells, whose certified top of |F| reaches the largest
certified lower bound on |F| at the cell midpoints, can hold a maximum:
the value pass takes their ends alone, and a sign scan of each h over
them finds every root that matters.
Those in cells whose top could still exceed the largest |F| over the
evaluated ends are narrowed together by Illinois steps (regula falsi,
safeguarded by bisection).  The maximum of |F| over the evaluated ends
and the narrowed roots, all in factored form, is the value; its radius is
64(d+1) eps times the value, plus the rounding bound of the values
(P' = P sum 1/(x - z_i) can cancel) and whatever a flat maximum or a cell
given up on could still hide.  Total variation uses the same cell test on
the roots of P'.  Both run on P / |leading|; _absolute alone scales back.

Memory grows linearly with the degree: every array that pairs the zeros
with points or cells is built a block at a time.  The value kernel takes
about 2^16 / d points a block (poly._blocks), the cell series about
2^18 / d cells, but at least 1024, as _series folds its groups of zeros
in turn once a block, and it expands the groups a block of them at a
time.  The cell test of a block keeps only per-cell results, and any
decision that compares cells with each other waits until every block is
in, so the blocks never change a bit of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import OverflowEvaluationError
from .poly import (
    _EPS,
    Interval,
    Polynomial,
    _blockwise,
    _elementary,
    _series,
    _tops,
    _values,
    derivative_values,
)

# _refine gives up on every live cell once the live cells times the degree
# would pass this many (it keeps at least 16(d+1) cells): a bound on the work
# of one round, whose arrays are built in blocks.  Level-set refinement, which
# can keep many cells live, is tuned to this value.
_BROADCAST_LIMIT = 2_000_000


@dataclass(frozen=True)
class CertifiedValue:
    """A value together with a guaranteed absolute-error radius."""

    value: float
    err: float
    method: ClassVar[str] = "critical-points"  # the CLI prints it

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("a certified value must be finite")
        if not self.err >= 0:
            raise ValueError("error radius must be nonnegative")


def _cheb_grid(lo: float, hi: float, m: int) -> np.ndarray:
    """The m + 1 Chebyshev extrema of [lo, hi], ascending, ends exact."""
    x = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * np.arange(m + 1) / m))
    x[0], x[-1] = lo, hi
    return x


def _narrow(f, a, b, fa, fb, xtol: float, which=None) -> np.ndarray:
    """Midpoints of the brackets [a, b] of roots of f (fa, fb the values at
    their ends, of opposite signs or zero) once narrowed to width <= xtol.
    Brackets of several functions narrow together when labelled by which:
    f(c, which) then gives the value of each point's own function.

    Illinois steps (false position, halving the value kept at the same end
    twice in a row) run in lockstep over all brackets; a bracket bisects
    instead when it has not halved within three steps or the estimate
    falls outside it.
    """
    kept = np.zeros(a.size, dtype=int)     # -1: a kept last step, +1: b kept
    ref, age = b - a, np.zeros(a.size, dtype=int)
    for _ in range(200):
        live = np.flatnonzero(b - a > xtol)
        if live.size == 0:
            break
        A, B, FA, FB = a[live], b[live], fa[live], fb[live]
        K = kept[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            c = (A * FB - B * FA) / (FB - FA)
        bisect = (age[live] >= 3) | ~((c > A) & (c < B))
        c = np.where(bisect, 0.5 * (A + B), c)
        fc = f(c) if which is None else f(c, which[live])
        right = np.sign(fc) == np.sign(FA)          # root in [c, B]
        hit = fc == 0
        FB = np.where(right & (K == 1), 0.5 * FB, FB)
        FA = np.where(~right & (K == -1), 0.5 * FA, FA)
        a[live] = np.where(right | hit, c, A)
        b[live] = np.where(right & ~hit, B, c)
        fa[live] = np.where(right, fc, FA)
        fb[live] = np.where(right, FB, fc)
        kept[live] = np.where(right, 1, -1)
        w = b[live] - a[live]
        reset = bisect | (w <= 0.5 * ref[live])
        ref[live] = np.where(reset, w, ref[live])
        age[live] = np.where(reset, 0, age[live] + 1)
    return 0.5 * (a + b)


def _square(c: np.ndarray) -> np.ndarray:
    """Coefficients of |sum c_j tau^j|^2 for real tau, along the last axis."""
    n = c.shape[-1]
    q = np.zeros(c.shape[:-1] + (2 * n - 1,), dtype=c.dtype)
    cc = np.conj(c)
    for i in range(n):
        q[..., i:i + n] += c[..., i:i + 1] * cc
    return q.real


def _modulus_square(f: np.ndarray, err: np.ndarray, tail: np.ndarray):
    """_series for |F|^2 = |S + R|^2, S = sum f_j tau^j and R the remainder:
    the coefficients of |S|^2, their rounding bounds, and bounds on the
    k-th tau-derivatives (k = 0, 1, 2) of |F|^2 - |S|^2 on [-1, 1]."""
    fa = np.abs(f) + err
    qa, q0 = _square(np.stack([fa, np.abs(f)]))
    qerr = qa - q0 + 2.0 * f.shape[1] * _EPS * qa
    j = np.arange(f.shape[1])
    s0, s1, s2 = fa.sum(axis=1), fa @ j, fa @ (j * (j - 1))
    t0, t1, t2 = tail
    qtail = np.array([2 * s0 * t0 + t0 * t0,
                      2 * (s1 * t0 + s0 * t1 + t0 * t1),
                      2 * (s2 * t0 + 2 * s1 * t1 + s0 * t2 + t1 * t1 + t0 * t2)])
    return _square(f), qerr, qtail


def _no_root(c: np.ndarray, err: np.ndarray, tail: np.ndarray, k: int) -> np.ndarray:
    """Rows where the k-th tau-derivative of sum c_j tau^j, plus a remainder
    whose k-th derivative stays below tail, provably has no root for tau in
    [-1, 1]: its constant term outweighs all the rest, each coefficient
    widened by its rounding bound err."""
    if c.shape[1] <= k:
        return np.zeros(c.shape[0], dtype=bool)
    f = np.array([math.perm(j, k) for j in range(c.shape[1])], dtype=float)
    rest = ((np.abs(c) + err) * f)[:, k + 1:].sum(axis=1) + tail
    return (np.abs(c[:, k]) - err[:, k]) * f[k] > rest


def _refine(x: np.ndarray, settle, min_width: float, degree: int, pieces: int = 2):
    """Split the cells of the ascending grid x until settle(a, b) accepts
    each one; settle returns (accepted, record), the record an array whose
    last axis runs over the cells.  A failed cell is bisected at 0.5 (a + b)
    or, for pieces > 2, cut into min(pieces, floor(width / min_width)) equal
    parts with exact ends: at least two, and fewer where the next round
    would pass the cap below, so none falls below min_width / 2.

    Returns the final cells, which tile x, in ascending order as
    (a, b, record, given_up): each cell's record comes from the test that
    accepted it, or from the one that last failed it if it was given up
    on: narrower than min_width, or live once the live cells times the
    degree would pass _BROADCAST_LIMIT (at least 16(d+1) cells are kept).
    settle runs at least once, so an empty grid still has a record.
    """
    cap = max(16 * (degree + 1), _BROADCAST_LIMIT // max(degree, 1))
    a, b = x[:-1], x[1:]
    final = []
    while True:
        ok, record = settle(a, b)
        failed = np.count_nonzero(~ok)
        stop = ~ok & ((b - a < min_width) | (2 * failed > cap))
        done = ok | stop
        final.append((a[done], b[done], record[..., done], stop[done]))
        if done.all():
            break
        a, b = a[~done], b[~done]
        if pieces == 2:
            m = 0.5 * (a + b)
            a, b = np.concatenate([a, m]), np.concatenate([m, b])
        else:
            n = np.clip((b - a) // min_width, 2, min(pieces, cap // failed)).astype(int)
            cell = np.repeat(np.arange(n.size), n)
            j, n, b = np.arange(cell.size) - np.repeat(np.cumsum(n) - n, n), n[cell], b[cell]
            a = np.minimum(a[cell] + (b - a[cell]) * (j / n), b)
            b = np.where(j + 1 == n, b, np.roll(a, -1))
    a, b, record, given_up = (np.concatenate(p, axis=-1) for p in zip(*final))
    # by both ends: a midpoint rounded onto an end leaves a zero-width cell
    order = np.lexsort((b, a))
    return a[order], b[order], record[..., order], given_up[order]


def _cells(P: Polynomial, I: Interval, tol: float, test, join=None):
    """The final cells of I for _sup_abs and total_variation, as (x,
    record, given_up): x their ends, record and given_up as _refine returns
    them.

    The cells start as the Chebyshev grid of I, without repeated points, of
    max(2(d+1), min(8(d+1), 128)) cells (d = deg P), so 8(d+1) up to degree
    15.  test(a, b, full) runs on blocks of the cells [a, b], with the cheap
    _series or the full one: 2^18 / d cells a block bound the (zeros x
    cells) arrays of _series, and blocks of at least 1024 cells keep its
    fold over the groups of zeros from costing more than it saves.  It
    returns (accepted, record, near) per cell, or per-cell arrays that join
    turns into those once every block is in.

    A round's failed cells all go on to the full series only while failed
    (d+1) <= 16 cells; past that only those marked near (flat cells at a
    maximum, which bisection is slow to settle) do, and the rest are
    bisected.  The rule was set by timing whole calls, not by the cost of
    one cell (on the 2(d+1) start cells _series took 2.7 times as long in
    full at d = 60 and 14 times at d = 200): on 2 cores, sending every
    failed cell to the full series took turan_ratio(T_200) from 44 ms to
    1.7 s.  The cells the full series takes keep its record.
    """
    d = P.degree

    def run(a, b, full):
        out = _blockwise(lambda a, b: test(a, b, full), min(64, d // 4), a, b)
        return out if join is None else join(*out)

    def settle(a, b):
        ok, record, near = run(a, b, False)
        rest = np.flatnonzero(~ok)
        if rest.size * (d + 1) > 16 * a.size:
            rest = rest[near[rest]]
        if rest.size:
            ok[rest], record[..., rest] = run(a[rest], b[rest], True)[:2]
        return ok, record

    grid = _cheb_grid(I.lo, I.hi, max(2 * d + 2, min(8 * d + 8, 128)))
    a, _, record, given_up = _refine(np.unique(grid), settle, tol, d)
    return np.append(a, I.hi), record, given_up


@np.errstate(over="ignore", invalid="ignore")   # an overflow raises below
def _sup_abs(P: Polynomial, I: Interval, orders) -> list:
    """[(value, err, argmax)] of max |F| on I for F = P^(o) / leading, o in
    orders ((0,), (1,) or (0, 1)), certified in one pass; each argmax is the
    leftmost point within rounding of its maximum.  Without the leading
    coefficient, a ratio of these norms does not depend on it; _absolute
    scales a norm back.

    The critical points of |F| are the roots of g = (|F|^2)'.  Grid cells
    are bisected until, for every order, the Taylor series of |F|^2 on each
    (_series, built once for all orders) proves that g has no root there,
    or at most one (g' has none, so a root shows as a sign change), or that
    |F| stays below the maximum found so far plus the radius, as at flat
    maxima like that of (x^4 - 1)^n at 0.  Each maximum is taken over the
    ends of the candidate cells and the roots in their sign-change cells,
    all orders' roots narrowed together.  Any possible excess over each
    maximum joins its radius: from the final cells flat for its order or
    given up on, and from the rounding of the values.

    Only cells that could hold a maximum are evaluated.  The test records,
    for each cell, top, its certified bound on |F| there (the bound the
    radius already trusts for flat cells), and best_o, the largest
    |f_0| - err_0 over the cells: |F_o| at a midpoint less its rounding
    bound, so best_o <= max |F_o|.  A cell is a candidate when, for some
    order o, its top is not below best_o (1 - 64 eps) (a NaN top counts);
    only the ends of candidates go to the value pass.  A dropped cell has
    top < best_o (1 - 64 eps) for every order, so it is flat for every
    order (its top already enters the radius) and cannot hold a maximum;
    the value is still at least floor_o below.  With no candidate, as on a
    one-point interval or where |F|^2 underflowed and the tops are 0 or NaN
    rather than bounds, every end is evaluated.

    Only roots that could raise a maximum are narrowed.  A root of order o
    is dropped when its cell's top is below floor_o (1 - 64 eps), floor_o
    the largest computed |F_o| over the evaluated ends.  The reported value
    is at least floor_o, and the margin covers the rounding of top, so
    |F_o| stays below the value on that cell: the radius still holds, and
    the root would have fallen outside the argmax's 64-eps band.  A cell
    given up on keeps the record of the last test that failed it, whose top
    bounds its possible excess; its top is taken as inf, so it is always a
    candidate and its roots are always narrowed.

    Most cells skip the Taylor series.  The cheap test takes each cell's
    tops t_o = M E_o of |F_o| from the zero list (poly._tops) and a
    certified lower bound T_o on max |F_o|: in the first round, the value
    kernel's |F_o| at the midpoints of the cells with the largest top of
    some order, each less 12(d+2) eps t_o of its cell (the kernel's
    rounding bound and twice the series' err_0, which t_o covers), times
    1 - 4 eps, joined with the running best_o; later, best_o alone.  A cell with
    t_o < T_o for every order skips _series, _modulus_square and _no_root
    and is recorded flat with top t_o.  It leaves best, and with it the
    flat test of every other cell, as it was: its |f_0| - err_0 <=
    |F_o(m)| <= t_o < T_o, and T_o <= best_o, as the kernel's bound is at
    most the |f_0| - err_0 of its own cell, which t_o >= |F_o(m)| keeps
    from being dropped.  Its top cannot raise the radius: max |F_o| >=
    best_o > t_o lies outside the cell, so the excess is already at least
    best_o without it; and it is a candidate only where t_o reaches
    best_o (1 - 64 eps), as any cell with that top would be.  Only a block
    where the screen drops at least half the cells copies out the others
    for the series; elsewhere every cell takes it, as the copy would cost
    more than the screen saves.
    """
    out = {o: (0.0, 0.0, I.lo) for o in orders}
    orders = [o for o in orders if P.degree >= o]
    if not orders:
        return list(out.values())
    P = Polynomial(1.0, P.zeros)    # |F|^2 is formed below: keep it in range
    xtol = 1e-13 * max(1.0, I.length)
    rho = [64.0 * (P.degree - o + 1) * _EPS for o in orders]
    best = [0.0] * len(orders)
    first = True        # the first round, on the start cells

    def test(a, b, full, reach=None):
        """(top, at most one root, top less remainder) per order and cell."""
        tops, simple, free = [], [], []
        for i, (f, err, tail) in enumerate(_series(P, a, b, orders, full, reach)):
            best[i] = max(best[i], float(np.max(np.abs(f[:, 0]) - err[:, 0], initial=0.0)))
            q, qerr, qtail = _modulus_square(f, err, tail)
            s = q[:, 0] + np.sum(np.abs(q[:, 1:]), axis=1) + np.sum(qerr, axis=1)
            tops.append(np.sqrt(s + qtail[0]))
            free.append(np.sqrt(s))
            simple.append(_no_root(q, qerr, qtail[1], 1) | _no_root(q, qerr, qtail[2], 2))
        return np.array(tops), np.array(simple), np.array(free)

    def block(a, b, full):
        """test on the cells [a, b] but those the screen drops, which it
        records as flat, with their top t."""
        if full:
            return test(a, b, True)
        m, r = 0.5 * (a + b), 0.5 * (b - a)
        t, mz, M, inv, p1 = _tops(P, m, r, orders)
        low = np.array(best)
        if first and m.size:
            # a certified lower bound on each max |F_o|: the kernel's |F_o|
            # at the midpoints of the cells with the largest top of some
            # order, less its own rounding bound and twice the series' err_0
            big = np.argmax(t, axis=1)
            v = np.abs(_values(P, m[big], orders[-1])[orders])
            v = (v - 12.0 * (P.degree + 2) * _EPS * t[:, big]) * (1.0 - 4.0 * _EPS)
            low = np.maximum(low, np.max(v, axis=1, where=np.isfinite(v), initial=0.0))
        drop = np.all(t < low[:, None], axis=0)
        keep = np.flatnonzero(~drop)
        # copying the cells that stay costs more than the screen saves
        # unless it drops at least half of them
        if 2 * keep.size > m.size:
            E = _elementary(inv, 4, p1)
            del inv     # before _series: the peak stays as it was
            return test(a, b, False, (mz, M, E))
        out = (t, np.zeros(t.shape, dtype=bool), t.copy())
        if keep.size:
            # a lone cell goes as a pair, as in poly._blocks
            rows = np.repeat(keep, 2) if keep.size == 1 else keep
            E = _elementary(inv[:, rows], 4, p1[rows])
            del inv     # before mz is copied
            for o, x in zip(out, test(a[rows], b[rows], False, (mz[:, rows], M[rows], E))):
                o[:, keep] = x[:, :keep.size]
        return out

    def join(tops, simple, free):
        """(accepted, record (top, flat) per order, near) per cell."""
        nonlocal first
        first = False
        # the flat test waits for best to take every block: a running
        # maximum would let the blocks decide which cells count as flat
        peak = np.array(best)[:, None]
        flat = tops <= peak * (1.0 + np.array(rho)[:, None])
        # near: the top without the remainder lies within 1e-9 of best, as
        # on the flat cells at a maximum, which bisection is slow to settle
        return (np.all(simple | flat, axis=0), np.array([tops, flat]),
                np.any(np.abs(free - peak) <= 1e-9 * peak, axis=0))

    x, (tops, flat), given_up = _cells(P, I, xtol, block, join)
    # what flat cells and cells given up on could hide, per order
    ceiling = np.max(tops, axis=1, where=(flat > 0) | given_up, initial=0.0)
    # the certified top of |F| on each final cell, per order; inf on the
    # cells given up on, whose roots are always narrowed
    cell_top = np.where(given_up, np.inf, tops)
    # the candidates: cells whose top reaches best for some order (a NaN top
    # counts); their ends alone go to the value pass.  With none, as on a
    # one-point interval or where |F|^2 underflowed, every end goes.
    cand = ~np.all(cell_top < np.array(best)[:, None] * (1.0 - 64.0 * _EPS), axis=0)
    keep = np.append(cand, False) | np.append(False, cand)
    if not keep.any():
        cand[:], keep[:] = True, True

    # the sign changes of h = 2 Re(conj(F) F') for every F, labelled by order
    def h(xs, o):
        v = _values(P, xs, orders[-1] + 1)
        hv = 2.0 * (np.conj(v[:-1]) * v[1:]).real
        return hv[o, np.arange(xs.size)]

    # the ends' majorants (|P^(o)| <= M E_o on [x - xtol, x + xtol]) come
    # from the differences of the value pass; h is NaN at the ends left out
    pts = x[keep]
    v, M, E1 = _values(P, pts, orders[-1] + 1, xtol)
    hx = np.full((len(v) - 1, x.size), np.nan)
    hx[:, keep] = 2.0 * (np.conj(v[:-1]) * v[1:]).real
    sx = np.sign(hx[orders])
    # only roots in candidate cells whose top reaches the largest |F| over
    # the evaluated ends (floor) can raise the maximum
    floor = np.max(np.abs(v[orders]), axis=1)
    low = cell_top < floor[:, None] * (1.0 - 64.0 * _EPS)
    row, cell = np.nonzero((sx[:, :-1] * sx[:, 1:] < 0) & cand & ~low)
    which = np.asarray(orders)[row]
    # every order takes its maximum over all these points (more points can
    # only raise it); the rounding bound of each value joins the radius, as
    # P' = P * sum 1/(x - z_i) can cancel
    vals, E = np.abs(v[:-1]), (1.0, E1)
    if cell.size:
        roots = _narrow(h, x[cell], x[cell + 1], hx[which, cell], hx[which, cell + 1],
                        xtol, which)
        vr, Mr, E1r = _values(P, roots, orders[-1], xtol)
        pts, vals = np.concatenate([pts, roots]), np.hstack([vals, np.abs(vr)])
        M, E = np.concatenate([M, Mr]), (1.0, np.concatenate([E1, E1r]))
    for i, o in enumerate(orders):
        value = float(np.max(vals[o]))
        bound = vals[o] + 4.0 * (P.degree + 2) * _EPS * M * E[o]
        excess = max(float(ceiling[i]), float(np.max(bound)))
        # below 2^-511 the cell test's |F|^2 and the products over the zeros underflow
        below = value < 2.0 ** -511 and I.lo < I.hi
        if below or not (np.all(np.isfinite(vals[o])) and np.isfinite(excess)):
            raise OverflowEvaluationError("the sup norm of P" + "'" * o + " / leading", below)
        argmax = float(np.min(pts[vals[o] >= value * (1.0 - 64.0 * _EPS)]))
        out[o] = value, rho[i] * value + excess - value, argmax
    return list(out.values())


def _absolute(P: Polynomial, value: float, err: float, what: str) -> CertifiedValue:
    """(value, err) certified for P / |leading|, scaled back by |leading|:
    the one scale-back of every certified number.  The rounding of |leading|
    and of both products (2 eps relative, padded to 4 eps, or 2^-1074
    absolute where subnormal) joins the radius; what names the number."""
    c = abs(P.leading)
    value, err = c * value, c * err
    err += 4.0 * _EPS * (value + err) + math.ulp(0.0)
    if not math.isfinite(value + err):
        raise OverflowEvaluationError(what)
    return CertifiedValue(value, err)


def sup_norm(P: Polynomial, I: Interval = Interval()) -> CertifiedValue:
    """Certified max of |P| over I."""
    return _absolute(P, *_sup_abs(P, I, (0,))[0][:2], "the sup norm of P")


def argmax_abs(P: Polynomial, I: Interval = Interval()) -> float:
    """Leftmost certified maximizer of |P| on I (deterministic tie-break)."""
    return _sup_abs(P, I, (0,))[0][2]


def sup_norm_derivative(P: Polynomial, I: Interval = Interval()) -> CertifiedValue:
    """Certified max of |P'| over I, from the zero list of P."""
    return _absolute(P, *_sup_abs(P, I, (1,))[0][:2], "the sup norm of P'")


def argmax_abs_derivative(P: Polynomial, I: Interval = Interval()) -> float:
    """Leftmost certified maximizer of |P'| on I."""
    return _sup_abs(P, I, (1,))[0][2]


def total_variation(P: Polynomial, I: Interval = Interval()) -> CertifiedValue:
    """V_a^b(P) = integral of |P'|: _variation on P / |leading|, scaled back."""
    if P.degree == 0:
        return CertifiedValue(0.0, 0.0)
    U = Polynomial(P.leading / abs(P.leading), P.zeros)
    return _absolute(P, *_variation(U, I), "the total variation")


@np.errstate(over="ignore", invalid="ignore")   # _absolute raises on overflow
def _variation(U: Polynomial, I: Interval) -> tuple:
    """(value, err) of V_a^b(U), U of degree >= 1 with |leading| = 1, summed
    exactly between critical points.

    Grid cells are bisected until the Taylor series of U on each (_series)
    proves it holds no root of U' or at most one, or that the variation it
    can hide, 2r sup|U'|, is below 4 times the rounding bound of U there.
    U must be real on I: a cell raises ValueError where an imaginary Taylor
    coefficient passes its rounding bound 4(d+2) eps M (r E_1)^j by
    1e-9 M (r E_1)^j plus 4(d+2) 2^-1074, for roundings below 2^-1022.  The
    sign changes of U' are narrowed to 1e-12 and the cell ends stay in as
    breakpoints.  The variation the final cells can hide, where flat or given
    up on, and the rounding bounds of the values join the radius.  Below
    2^-511, as in _sup_abs, it raises: at once when the first round's
    certified tops of |U| on the start cells, which cover I, all fall below
    it, before any cell is refined; else when the largest value does.
    """
    tol, slack = 1e-12, 1.0 + 1e-9 / (4.0 * (U.degree + 2) * _EPS)
    tiny = I.lo < I.hi      # whether every top so far is below 2^-511

    def test(a, b, full):
        """(accepted, record (hide, flat), near) per cell."""
        nonlocal tiny
        c, err, tail = _series(U, a, b, (0,), full)[0]
        if np.any(np.abs(c.imag) > err * slack + 4.0 * (U.degree + 2) * math.ulp(0.0)):
            raise ValueError("total_variation requires a real-valued polynomial "
                             "on the interval")
        c = c.real
        # the certified top of |U| on each cell; a NaN top is not below
        tops = (np.abs(c) + err).sum(axis=1) + tail[0]
        tiny = tiny and bool(np.all(tops < 2.0 ** -511))
        s = (np.abs(c) + err) @ np.arange(c.shape[1])
        hide, below = 2.0 * (s + tail[1]), 4.0 * err[:, 0]
        flat = hide <= below
        simple = _no_root(c, err, tail[1], 1) | _no_root(c, err, tail[2], 2)
        # near: the cell would be flat but for the remainder
        return simple | flat, np.array([hide, flat]), 2.0 * s <= below

    def join(ok, record, near):
        """Raise once the first round, which covers I, finds |U| below 2^-511."""
        if tiny:
            raise OverflowEvaluationError("the sup norm of P / leading", True)
        return ok, record, near

    x, (hide, flat), given_up = _cells(U, I, tol, test, join)
    dv = derivative_values(U, x).real
    i = np.flatnonzero(np.sign(dv[:-1]) * np.sign(dv[1:]) < 0)
    roots = _narrow(lambda xs: derivative_values(U, xs).real,
                    x[i], x[i + 1], dv[i], dv[i + 1], tol)
    pts = np.unique(np.concatenate([x, roots]))
    (vals,), M, _ = _values(U, pts, 0, tol)
    if np.max(np.abs(vals)) < 2.0 ** -511 and I.lo < I.hi:   # as in _sup_abs
        raise OverflowEvaluationError("the sup norm of P / leading", True)
    tv = float(np.sum(np.abs(np.diff(vals.real))))
    md = float(np.max(np.abs(dv)))
    # each value, off by its rounding bound 4(d+2) eps M (plus 2^-1074 where
    # subnormal), and each narrowed root's, off by tol max|U'| more, enters
    # two differences; they and their sum round by at most len(pts) eps tv
    rnd = 4.0 * (U.degree + 2) * _EPS * float(np.sum(M)) + len(pts) * math.ulp(0.0)
    err = 2.0 * (roots.size * tol * md + rnd) + len(pts) * _EPS * tv
    return tv, err + float(np.sum(hide[(flat > 0) | given_up]))
