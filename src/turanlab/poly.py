"""Factored polynomial representation and its value kernel.

The factored form (leading coefficient plus zero multiset) is the only
representation in this package: evaluating ``leading * prod(x - z_i)``
directly keeps the relative error near machine precision even when the
expanded coefficients would cancel catastrophically (think zeros packed
inside [-1,1] at degree 30, where the sup-norm is ~2^(1-n)).  Every
certified number is computed from the zero list, at any degree, through
the value kernel here, which also gives P' and P'' without expanding.
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
    # in place: at high degree each (zeros x cells) array is megabytes
    w = np.abs(mz)
    M = abs(P.leading) * np.prod(np.add(w, r, out=w), axis=0)
    inv = np.divide(1.0, w, out=w)
    # the power sums start from inv itself; its square is the one more array
    p, pw = [np.sum(inv, axis=0)], inv
    for k in range(1, kmax):
        pw = pw * inv if k == 1 else np.multiply(pw, inv, out=pw)
        p.append(np.sum(pw, axis=0))
    E = [1.0, p[0] + 4.0 * _EPS * p[0]]     # e_1 = p_1 >= 0, padded
    for k in range(2, kmax + 1):
        e = sum((-1) ** (j - 1) * E[k - j] * p[j - 1] for j in range(1, k + 1)) / k
        E.append(np.maximum(e, 0.0) + 4.0 * k * _EPS * p[0] ** k)
    return M, E


def _values(P: Polynomial, xs, order: int, w: float | None = None):
    """Rows P, P', ..., P^(order) (order <= 2) at the points xs (1-D), from
    the zero list.

    With s = sum 1/(x - z_i) and t = sum 1/(x - z_i)^2, P'/P = s and
    P''/P = s^2 - t.  At a point x0 where mu zeros coincide, P = (x - x0)^mu R
    and P^(j)(x0) = j!/(j - mu)! * R^(j - mu)(x0), with R and its derivatives
    taken from the same sums over the remaining zeros: O(d) per point.

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
        if order == 0:
            out[0, sl] = (P.leading * np.prod(diffs, axis=0))[:n]
            continue
        hit = diffs == 0
        mu = hit.sum(axis=0) if hit.any() else None
        if mu is not None:
            diffs[hit] = 1.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = 1.0 / diffs
            if mu is not None:
                inv[hit] = 0.0
            jets = [P.leading * np.prod(diffs, axis=0)]
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
