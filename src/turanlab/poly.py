"""Factored polynomial representation and its value kernel.

The factored form (leading coefficient plus zero multiset) is the only
representation in this package: evaluating ``leading * prod(x - z_i)``
directly keeps the relative error near machine precision even when the
expanded coefficients would cancel catastrophically (think zeros packed
inside [-1,1] at degree 30, where the sup-norm is ~2^(1-n)).  Every
certified number is computed from the zero list, at any degree, through
the value kernel here, which also gives P' and P'' without expanding, and
through the zero-list bounds and Taylor series of P on cells that the sup
engine (supnorm) tests: _majorants, _tops and _series.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(float).eps)

# The (zeros x points) arrays of factored evaluation, and every other array
# that pairs each zero with a batch of points or cells, are built a block of
# points at a time, each of about this many entries (1 MiB when complex), so
# memory grows linearly with the degree; see _blocks.
_BLOCK_LIMIT = 1 << 16

# _series takes the zeros this many at a time.  A group costs one fold into
# the series; a zero, one step of the recurrence run on all groups at once.
# At degree 80-200 the cheap series ran fastest with eight (four and twelve
# were slower).
_GROUP = 8


@dataclass(frozen=True)
class Interval:
    """Closed real interval; defaults to [-1, 1]."""

    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if lo > hi:
            raise ValueError(f"interval requires lo <= hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Polynomial:
    """leading * prod(x - z_i) over the complex numbers, leading != 0 and
    every value finite: the ratio, the level sets of P'/P and class
    membership are defined for nonzero P only."""

    leading: complex
    zeros: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "leading", complex(self.leading))
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        if not all(map(cmath.isfinite, (self.leading,) + self.zeros)):
            raise ValueError("leading coefficient and zeros must be finite")
        if self.leading == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.zeros)


def from_zeros(leading, zeros) -> Polynomial:
    """Build a polynomial leading * prod(x - z_i) from its zero multiset."""
    return Polynomial(leading, tuple(zeros))


def conjugate(P: Polynomial) -> Polynomial:
    """The polynomial whose coefficients are conjugated (zeros conjugate too)."""
    return Polynomial(np.conj(P.leading), tuple(np.conj(z) for z in P.zeros))


def _blocks(n: int, width: int) -> list:
    """Slices that split n points into blocks of _BLOCK_LIMIT // width
    points, width the entries each point adds to an array, and at least 2:
    numpy sums a lone column over the zeros in another order than the
    columns of a batch, so a lone last point joins the block before it, and
    each point gets the bits it gets in a batch of any size but one."""
    step = max(2, _BLOCK_LIMIT // max(width, 1))
    if n - 1 <= step:
        return [slice(None)]
    starts = list(range(0, n - 1, step))
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def _blockwise(fn, width: int, *cols) -> tuple:
    """The per-point arrays fn(*cols) returns, computed on the _blocks of
    the points (the entries, or rows, of cols) and joined along the last
    axis."""
    blocks = _blocks(len(cols[0]), width)
    if len(blocks) == 1:
        return fn(*cols)
    parts = [fn(*(c[sl] for c in cols)) for sl in blocks]
    return tuple(np.concatenate(p, axis=-1) for p in zip(*parts))


def _majorants(P: Polynomial, r, mz: np.ndarray, kmax: int):
    """(M, [E_0, ..., E_kmax]) with |P^(k)| <= k! M E_k on each cell
    [m - r, m + r], given the differences mz = m - z_i (zeros x cells): the
    Taylor coefficients of P at m are dominated by those of
    M(rho) = |c| prod(|m - z_i| + rho), so M = M(r) and
    E_k = e_k(1/(|m - z_i| + r)), from power sums by Newton's identities,
    padded by their rounding."""
    M, inv = _reach(P, r, mz)
    return M, _elementary(inv, kmax)


def _reach(P: Polynomial, r, mz: np.ndarray):
    """(M, inv) of _majorants: M = |c| prod(|m - z_i| + r) per cell and the
    inverse distances inv = 1/(|m - z_i| + r) (zeros x cells)."""
    # in place: at high degree each (zeros x cells) array is megabytes
    w = np.abs(mz)
    M = abs(P.leading) * np.prod(np.add(w, r, out=w), axis=0)
    return M, np.divide(1.0, w, out=w)


def _elementary(inv: np.ndarray, kmax: int, p1=None) -> list:
    """[E_0, ..., E_kmax] of _majorants from the inverse distances inv; p1,
    when given, is their sum over the zeros, np.sum(inv, axis=0)."""
    # the power sums start from inv itself; its square is the one more array
    p, pw = [np.sum(inv, axis=0) if p1 is None else p1], inv
    for k in range(1, kmax):
        pw = pw * inv if k == 1 else np.multiply(pw, inv, out=pw)
        p.append(np.sum(pw, axis=0))
    E = [1.0, p[0] + 4.0 * _EPS * p[0]]     # e_1 = p_1 >= 0, padded
    for k in range(2, kmax + 1):
        # k e_k = sum_j (-1)^(j-1) e_(k-j) p_j, summed in j order (e_0 = 1)
        e = E[k - 1] * p[0]
        for j in range(2, k + 1):
            term = E[k - j] * p[j - 1] if j < k else p[j - 1]
            e = e + term if j % 2 else e - term
        E.append(np.maximum(e / k, 0.0) + 4.0 * k * _EPS * p[0] ** k)
    return E


def _tops(P: Polynomial, m: np.ndarray, r: np.ndarray, orders):
    """(t, m - z_i, M, inv, p1) on the cells [m - r, m + r]: t the certified
    tops t_o = M E_o of |P^(o)| per order o in orders (o <= 1), and the
    differences, M, inverse distances and their sum over the zeros they
    come from (_reach).  E_0 = 1, and M and E_1 are each padded by
    1 + 4(d+2) eps for their rounding; a top that reads 0 is raised to
    2^-1074, and one that is NaN (a zero on a cell of width 0) or inf stays
    so, never below a bound."""
    mz = m[None, :] - np.asarray(P.zeros, dtype=complex)[:, None]
    M, inv = _reach(P, r, mz)
    p1 = np.sum(inv, axis=0)
    pad = 1.0 + 4.0 * (P.degree + 2) * _EPS
    t = [M * pad]
    if orders[-1]:
        t.append(t[0] * ((p1 + 4.0 * _EPS * p1) * pad))
    t = np.maximum(np.array(t[orders[0]:]), math.ulp(0.0))
    return t, mz, M, inv, p1


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


def _series(P: Polynomial, a: np.ndarray, b: np.ndarray, orders, full: bool,
            reach=None):
    """[(f, err, tail) for F = P^(o), o in the ascending orders] on the
    cells [a, b], x = m + r tau.  reach, when given, is (m - z_i, M, E) of
    these cells as _majorants returns them, taken by the cell screen of
    supnorm._sup_abs.

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
    a time (_blocks), and the groups fold into the series in turn,
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
    if reach is None:
        mz = m[None, :] - np.asarray(P.zeros, dtype=complex)[:, None]
        reach = (mz, *_majorants(P, r, mz, 4))
    mz, M, E = reach
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
            rest = r[:, 0] ** n * 24.0 * M * E[4]
            tail = np.array([rest / math.factorial(n - k)
                             for k in range(3)]) * (terms <= P.degree)
            out.append((c, err, tail))
    return out


def _values(P: Polynomial, xs, order: int, w: float | None = None):
    """Rows P, P', ..., P^(order) (order <= 2) at the points xs (1-D), from
    the zero list.

    With s = sum 1/(x - z_i) and t = sum 1/(x - z_i)^2, P'/P = s and
    P''/P = s^2 - t.  At a point x0 where mu zeros coincide, P = (x - x0)^mu R
    and P^(j)(x0) = j!/(j - mu)! * R^(j - mu)(x0), with R and its derivatives
    taken from the same sums over the remaining zeros: O(d) per point.
    Order 0 takes no sums; a value out of range is inf or nan, with no warning.

    Given a widening w, it returns (rows, M, E_1) instead: the _majorants
    of the cells [x - w, x + w], from the same differences.
    """
    x = np.asarray(xs, dtype=complex).ravel()
    out = np.zeros((order + 1, x.size), dtype=complex)
    maj = np.zeros((2, x.size))
    zs = np.asarray(P.zeros, dtype=complex)
    if zs.size == 0:
        out[0], maj[0] = P.leading, abs(P.leading)
        return out if w is None else (out, *maj)
    for sl in _blocks(x.size, zs.size):
        xc = x[sl]
        n = xc.size
        # numpy reduces a lone column over the zeros in another order than
        # the columns of a batch: a point evaluated as a pair gets the bits
        # it gets in any batch
        diffs = (np.repeat(xc, 2) if n == 1 else xc)[None, :] - zs[:, None]
        if w is not None:
            M, E = _majorants(P, w, diffs, 1)
            maj[:, sl] = M[:n], E[1][:n]
        hit = diffs == 0
        mu = hit.sum(axis=0) if hit.any() else None
        if mu is not None:
            diffs[hit] = 1.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            jets = [P.leading * np.prod(diffs, axis=0)]
            if order >= 1:
                inv = 1.0 / diffs
                if mu is not None:
                    inv[hit] = 0.0
                s = np.sum(inv, axis=0)
                jets.append(jets[0] * s)
            if order >= 2:
                jets.append(jets[0] * (s * s - np.sum(inv * inv, axis=0)))
        for j in range(order + 1):
            val = jets[j]
            if mu is not None:
                val = np.where(mu == 0, val, 0.0)
                for m in range(1, j + 1):
                    val = np.where(mu == m, math.perm(j, m) * jets[j - m], val)
            out[j, sl] = val[:n]
    return out if w is None else (out, *maj)


def evaluate_many(P: Polynomial, xs) -> np.ndarray:
    """Vectorized evaluation of the factored product."""
    return _values(P, xs, 0)[0]


def evaluate(P: Polynomial, x) -> complex:
    return complex(evaluate_many(P, [x])[0])


def derivative_values(P: Polynomial, xs) -> np.ndarray:
    """Values of P' at xs from the zero list, exact at points on a zero."""
    return _values(P, xs, 1)[1]


def to_payload(P: Polynomial) -> dict:
    """JSON-ready dict: {"leading": [re, im], "zeros": [[re, im], ...]}."""
    return {
        "leading": [P.leading.real, P.leading.imag],
        "zeros": [[z.real, z.imag] for z in P.zeros],
    }


def from_payload(obj: dict) -> Polynomial:
    """The inverse of to_payload: the leading coefficient and every zero
    must be an [re, im] list of two numbers."""
    def pair(v) -> complex:
        # complex() would take JSON true and false as 1 and 0
        if not (isinstance(v, list) and len(v) == 2) or bool in map(type, v):
            raise TypeError(f"expected an [re, im] pair, got {v!r}")
        return complex(v[0], v[1])
    try:
        lead = pair(obj["leading"])
        if not isinstance(obj["zeros"], list):
            raise TypeError(f"expected a list of zeros, got {obj['zeros']!r}")
        zeros = tuple(pair(z) for z in obj["zeros"])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed polynomial payload: {exc}") from exc
    return Polynomial(lead, zeros)
