"""Certified sup-norms on intervals and total variation, from the zero list.

One engine computes ``max |F|`` over an interval for F = P, F = P' or
both together, at any degree, from the zero list alone; one pass certifies
||P|| and ||P'|| for the ratio.  The real critical points of |F|^2 are the
roots of h = 2 Re(conj(F) F').  A Chebyshev grid of the interval, of
2(d+1) cells at high degree (d = deg P), is refined until bounds taken
from the zero list prove that each cell holds, for every F asked for, at
most one root of h, or no value of |F| above the maximum found so far;
the Taylor series of P on a cell is built once (the zeros eight at a
time: the groups' products expanded together, then folded in turn) and
gives those of P and P'.  It is cut after tau^3, with a bound on the
rest, and taken in full, at O(d^2) a cell, only where the cut form fails
and bisection could not do better.  A sign scan of each h over the final
cells then finds every root that matters; those in cells whose certified
top of |F| could still exceed the largest |F| over the cell ends are
narrowed together by Illinois steps (regula falsi, safeguarded by
bisection).  The maximum of |F| over the cell ends and the narrowed
roots, all evaluated in factored form, is the value; its radius is
64(d+1) eps times the value, plus the rounding bound of the values
(P' = P sum 1/(x - z_i) can cancel) and whatever a flat maximum or a cell
given up on could still hide.  Total variation uses the same cell test on
the roots of P'.

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
    _blocks,
    _blockwise,
    _majorants,
    _values,
    derivative_values,
)

# _refine gives up on every live cell once the live cells times the degree
# would pass this many (it keeps at least 16(d+1) cells): a bound on the work
# of one round, whose arrays are built in blocks.  Level-set refinement, which
# can keep many cells live, is tuned to this value.
_BROADCAST_LIMIT = 2_000_000

# _series takes the zeros this many at a time.  A group costs one fold into
# the series; a zero, one step of the recurrence run on all groups at once.
# At degree 80-200 the cheap series ran fastest with eight (four and twelve
# were slower).
_GROUP = 8


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


def _group_products(z: np.ndarray, r: np.ndarray, n: int) -> np.ndarray:
    """The coefficients of tau^0, ..., tau^(n-1) in prod (z_i + r tau) over
    each group of _GROUP consecutive rows z_i of z (zeros x cells; the last
    group may be short), as (n, groups, cells), all groups at once.

    In s = r tau the product is monic, so the recurrence c_j <- c_j z_i +
    c_(j-1) starts from c = (z_first, 1), keeps its top coefficient 1 and
    takes the one below as z_i + c_(j-1); row j is then scaled by r^j,
    formed as r r ... r.  A short group skips the steps it has no zero
    for, as a factor 1 would leave it unchanged."""
    q = np.zeros((n, -(-len(z) // _GROUP), z.shape[1]), dtype=complex)
    q[0], q[1:2] = z[::_GROUP], 1.0
    for i in range(2, _GROUP + 1):      # the degree after this step
        t = z[i - 1::_GROUP]
        k = len(t)      # the groups with an i-th zero come first
        if not k:
            break
        rows = n - 1    # rows 1..rows take c_j z_i + c_(j-1)
        if i < n:       # a new top 1, and z_i + c_(j-1) below it
            q[i, :k] = 1.0
            np.add(t, q[i - 2, :k], out=q[i - 1, :k])
            rows = i - 2
        for j in range(rows, 0, -1):
            q[j, :k] *= t
            q[j, :k] += q[j - 1, :k]
        q[0, :k] *= t
    rj = r
    for j in range(1, n):
        q[j] *= rj
        rj = rj * r
    return q


def _series(P: Polynomial, a: np.ndarray, b: np.ndarray, orders, full: bool):
    """[(f, err, tail) for F = P^(o), o in the ascending orders] on the
    cells [a, b], x = m + r tau.

    P(m + r tau) is expanded once, factor by factor from the zero list, so
    no expanded form cancels, and each order is derived from it by the
    shift; f holds the Taylor coefficients of F in tau, err their rounding
    bounds (4(d+2) eps M (r E_1)^j for P), and tail[k] bounds the k-th
    tau-derivative (k = 0, 1, 2) of the remainder for tau in [-1, 1].  The
    cheap form keeps the terms up to tau^3 and bounds the rest by
    sup|P''''| <= 24 M E_4 (_majorants); the full form keeps all of them,
    at O(d^2) per cell.

    The zeros go _GROUP = 8 at a time, in the order of the zero list (the
    last group may hold fewer): _group_products expands the product of the
    factors (m - z_i) + r tau of every group at once, a block of groups at
    a time (poly._blocks), and the groups fold into the series in turn,
    each by the truncated product c_j <- sum_k c_(j-k) q_k of at most nine
    terms, summed in k order, on whole rows of the cells.

    The bound, against the majorant |leading| prod (|m - z_i| + r tau), with
    u = eps/2: a complex product rounds by at most sqrt(5) u, a real product
    or a sum by u, and the errors of two factors add against the product of
    their majorants.  A group's first factor is exact and each further step
    c_j z_i + c_(j-1) adds (1 + sqrt(5)) u, 22.7u for seven; the scaling by
    r^j adds ju, at most 8u; a fold adds sqrt(5) u for its products and 8u
    for its sums.  That is 41u for eight zeros, 5.1u a zero, where the
    stated 4(d+2) eps allows 8u a zero, and the rest covers the leading
    coefficient and the shift.  M (r E_1)^j dominates the coefficients of the majorant,
    so the bound holds.
    """
    m, r = 0.5 * (a + b), 0.5 * (b - a)
    mz = m[None, :] - np.asarray(P.zeros, dtype=complex)[:, None]
    M, E = _majorants(P, r, mz, 4)
    terms = P.degree + 1 if full else min(P.degree + 1, 4)
    n = min(terms, _GROUP + 1)      # the terms of a group's product that count
    c, new, tmp = np.zeros((3, terms, m.size), dtype=complex)
    c[0] = P.leading
    # a block of groups at a time, n rows a group
    groups = range(-(-P.degree // _GROUP))
    done = 0        # zeros folded in
    for sl in _blocks(len(groups), n * m.size):
        block = groups[sl]
        q = _group_products(mz[_GROUP * block.start:_GROUP * block.stop], r, n)
        for g in range(q.shape[1]):
            size = min(P.degree - done, _GROUP)
            done += size
            live = min(done + 1, terms)     # c_j = 0 from j = live on
            np.multiply(c[:live], q[0, g], out=new[:live])
            for k in range(1, min(size + 1, n)):
                np.multiply(c[:live - k], q[k, g], out=tmp[:live - k])
                new[k:live] += tmp[:live - k]
            c, new = new, c
    c, r = np.ascontiguousarray(c.T), r[:, None]  # row sums keep order
    err = (4.0 * (P.degree + 2) * _EPS * M[:, None]
           * (r * E[1][:, None]) ** np.arange(c.shape[1]))
    out = []
    for order in range(orders[-1] + 1):
        if order:
            j = np.arange(1, c.shape[1])
            c, err = c[:, 1:] * j / r, err[:, 1:] * j / r
        if order in orders:
            n = 4 - order       # the remainder of F starts at tau^n
            tail = np.array([r[:, 0] ** n * 24.0 * M * E[4] / math.factorial(n - k)
                             for k in range(3)]) * (terms <= P.degree)
            out.append((c, err, tail))
    return out


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


def _refine(x: np.ndarray, settle, min_width: float, degree: int):
    """Bisect the cells of the ascending grid x until settle(a, b) accepts
    each one; settle returns (accepted, record), the record an array whose
    last axis runs over the cells.

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
        stop = ~ok & ((b - a < min_width) | (2 * np.count_nonzero(~ok) > cap))
        done = ok | stop
        final.append((a[done], b[done], record[..., done], stop[done]))
        if done.all():
            break
        a, b = a[~done], b[~done]
        m = 0.5 * (a + b)
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
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
    cell ends and the roots in sign-change cells, all orders' roots
    narrowed together.  Any possible excess over each maximum joins its
    radius: from the final cells flat for its order or given up on, and
    from the rounding of the values.

    Only roots that could raise a maximum are narrowed.  The test records,
    for each cell, top, its certified bound on |F| there (the bound the
    radius already trusts for flat cells).  A root of order o is
    dropped when its cell's top is below floor_o (1 - 64 eps), floor_o the
    largest computed |F_o| over the cell ends.  The reported value is at
    least floor_o, and the margin covers the rounding of top, so |F_o|
    stays below the value on that cell: the radius still holds, and the
    root would have fallen outside the argmax's 64-eps band.  A cell given
    up on keeps the record of the last test that failed it, whose top bounds
    its possible excess; its roots are always narrowed.
    """
    out = {o: (0.0, 0.0, I.lo) for o in orders}
    orders = [o for o in orders if P.degree >= o]
    if not orders:
        return list(out.values())
    P = Polynomial(1.0, P.zeros)    # |F|^2 is formed below: keep it in range
    xtol = 1e-13 * max(1.0, I.length)
    rho = [64.0 * (P.degree - o + 1) * _EPS for o in orders]
    best = [0.0] * len(orders)

    def block(a, b, full):
        """(top, at most one root, top less remainder) per order and cell."""
        tops, simple, free = [], [], []
        for i, (f, err, tail) in enumerate(_series(P, a, b, orders, full)):
            best[i] = max(best[i], float(np.max(np.abs(f[:, 0]) - err[:, 0], initial=0.0)))
            q, qerr, qtail = _modulus_square(f, err, tail)
            s = q[:, 0] + np.sum(np.abs(q[:, 1:]), axis=1) + np.sum(qerr, axis=1)
            tops.append(np.sqrt(s + qtail[0]))
            free.append(np.sqrt(s))
            simple.append(_no_root(q, qerr, qtail[1], 1) | _no_root(q, qerr, qtail[2], 2))
        return np.array(tops), np.array(simple), np.array(free)

    def join(tops, simple, free):
        """(accepted, record (top, flat) per order, near) per cell."""
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

    # the sign changes of h = 2 Re(conj(F) F') for every F, labelled by order
    def h(xs, o):
        v = _values(P, xs, orders[-1] + 1)
        hv = 2.0 * (np.conj(v[:-1]) * v[1:]).real
        return hv[o, np.arange(xs.size)]

    # the final points' majorants (|P^(o)| <= M E_o on [x - xtol, x + xtol])
    # come from the differences of the value pass
    v, M, E1 = _values(P, x, orders[-1] + 1, xtol)
    hx = 2.0 * (np.conj(v[:-1]) * v[1:]).real
    sx = np.sign(hx[orders])
    # only roots in cells whose top reaches the largest |F| over the cell
    # ends (floor) can raise the maximum
    floor = np.max(np.abs(v[orders]), axis=1)
    low = cell_top < floor[:, None] * (1.0 - 64.0 * _EPS)
    row, cell = np.nonzero((sx[:, :-1] * sx[:, 1:] < 0) & ~low)
    which = np.asarray(orders)[row]
    roots = _narrow(h, x[cell], x[cell + 1], hx[which, cell], hx[which, cell + 1],
                    xtol, which)
    # every order takes its maximum over all these points (more points can
    # only raise it); the rounding bound of each value joins the radius, as
    # P' = P * sum 1/(x - z_i) can cancel
    pts = np.concatenate([x, roots])
    vr, Mr, E1r = _values(P, roots, orders[-1], xtol)
    vals = np.abs(np.hstack([v[:-1], vr]))
    M, E = np.concatenate([M, Mr]), (1.0, np.concatenate([E1, E1r]))
    for i, o in enumerate(orders):
        value = float(np.max(vals[o]))
        bound = vals[o] + 4.0 * (P.degree + 2) * _EPS * M * E[o]
        excess = max(float(ceiling[i]), float(np.max(bound)))
        if not (np.all(np.isfinite(vals[o])) and np.isfinite(excess)):
            raise OverflowEvaluationError("the sup norm of P" + "'" * o + " / leading")
        argmax = float(np.min(pts[vals[o] >= value * (1.0 - 64.0 * _EPS)]))
        out[o] = value, rho[i] * value + excess - value, argmax
    return list(out.values())


def _absolute(P: Polynomial, I: Interval, o: int) -> CertifiedValue:
    """max |P^(o)| on I: _sup_abs scaled back by |leading| once.  The
    rounding of |leading| and of both products (2 eps relative, padded to
    4 eps, or 2^-1074 absolute where subnormal) joins the radius."""
    value, err, _ = _sup_abs(P, I, (o,))[0]
    c = abs(P.leading)
    value, err = c * value, c * err
    err += 4.0 * _EPS * (value + err) + math.ulp(0.0)
    if not math.isfinite(value + err):
        raise OverflowEvaluationError("the sup norm of P" + "'" * o)
    return CertifiedValue(value, err)


def sup_norm(P: Polynomial, I: Interval = Interval()) -> CertifiedValue:
    """Certified max of |P| over I."""
    return _absolute(P, I, 0)


def argmax_abs(P: Polynomial, I: Interval = Interval()) -> float:
    """Leftmost certified maximizer of |P| on I (deterministic tie-break)."""
    return _sup_abs(P, I, (0,))[0][2]


def sup_norm_derivative(P: Polynomial, I: Interval = Interval()) -> CertifiedValue:
    """Certified max of |P'| over I, from the zero list of P."""
    return _absolute(P, I, 1)


def argmax_abs_derivative(P: Polynomial, I: Interval = Interval()) -> float:
    """Leftmost certified maximizer of |P'| on I."""
    return _sup_abs(P, I, (1,))[0][2]


@np.errstate(over="ignore", invalid="ignore")   # an overflow raises below
def total_variation(P: Polynomial, I: Interval = Interval()) -> CertifiedValue:
    """V_a^b(P) = integral of |P'|, summed exactly between critical points.

    Grid cells are bisected until the Taylor series of P on each (_series)
    proves it holds no root of P' or at most one, or that the variation it
    can hide, 2r sup|P'|, is below 4 times the rounding bound of P there.
    P must be real on I: a cell raises ValueError where an imaginary Taylor
    coefficient passes its rounding bound 4(d+2) eps M (r E_1)^j by
    1e-9 M (r E_1)^j plus 4(d+2) 2^-1074, for roundings below 2^-1022.  The
    sign changes of P' are narrowed to 1e-12 and the cell ends stay in as
    breakpoints.  The variation the final cells can hide, where flat or given
    up on, and the rounding bounds of the values join the radius.
    """
    if P.degree == 0:
        return CertifiedValue(0.0, 0.0)
    tol, slack = 1e-12, 1.0 + 1e-9 / (4.0 * (P.degree + 2) * _EPS)

    def test(a, b, full):
        """(accepted, record (hide, flat), near) per cell."""
        c, err, tail = _series(P, a, b, (0,), full)[0]
        if np.any(np.abs(c.imag) > err * slack + 4.0 * (P.degree + 2) * math.ulp(0.0)):
            raise ValueError("total_variation requires a real-valued polynomial "
                             "on the interval")
        c = c.real
        s = (np.abs(c) + err) @ np.arange(c.shape[1])
        hide, below = 2.0 * (s + tail[1]), 4.0 * err[:, 0]
        flat = hide <= below
        simple = _no_root(c, err, tail[1], 1) | _no_root(c, err, tail[2], 2)
        # near: the cell would be flat but for the remainder
        return simple | flat, np.array([hide, flat]), 2.0 * s <= below

    x, (hide, flat), given_up = _cells(P, I, tol, test)
    dv = derivative_values(P, x).real
    i = np.flatnonzero(np.sign(dv[:-1]) * np.sign(dv[1:]) < 0)
    roots = _narrow(lambda xs: derivative_values(P, xs).real,
                    x[i], x[i + 1], dv[i], dv[i + 1], tol)
    pts = np.unique(np.concatenate([x, roots]))
    (vals,), M, _ = _values(P, pts, 0, tol)
    tv = float(np.sum(np.abs(np.diff(vals.real))))
    md = float(np.max(np.abs(dv)))
    # each value, off by its rounding bound 4(d+2) eps M (plus 2^-1074 where
    # subnormal), and each narrowed root's, off by tol max|P'| more, enters
    # two differences; they and their sum round by at most len(pts) eps tv
    rnd = 4.0 * (P.degree + 2) * _EPS * float(np.sum(M)) + len(pts) * math.ulp(0.0)
    err = 2.0 * (roots.size * tol * md + rnd) + len(pts) * _EPS * tv
    err += float(np.sum(hide[(flat > 0) | given_up]))
    if not math.isfinite(tv + err):
        raise OverflowEvaluationError("the total variation")
    return CertifiedValue(tv, err)
