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

# Factored evaluation builds the (zeros x points) broadcast matrix in chunks
# of at most this many entries.
_BROADCAST_LIMIT = 2_000_000


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


def _values(P: Polynomial, xs, order: int) -> np.ndarray:
    """Rows P, P', ..., P^(order) (order <= 2) at the points xs (1-D), from
    the zero list.

    With s = sum 1/(x - z_i) and t = sum 1/(x - z_i)^2, P'/P = s and
    P''/P = s^2 - t.  At a point x0 where mu zeros coincide, P = (x - x0)^mu R
    and P^(j)(x0) = j!/(j - mu)! * R^(j - mu)(x0), with R and its derivatives
    taken from the same sums over the remaining zeros: O(d) per point.
    """
    x = np.asarray(xs, dtype=complex).ravel()
    out = np.zeros((order + 1, x.size), dtype=complex)
    zs = np.asarray(P.zeros, dtype=complex)
    if zs.size == 0:
        out[0] = P.leading
        return out
    step = max(1, _BROADCAST_LIMIT // zs.size)
    for lo in range(0, x.size, step):
        sl = slice(lo, lo + step)
        xc = x[sl]
        n = xc.size
        # numpy reduces a lone column over the zeros in another order than
        # the columns of a batch: a point evaluated as a pair gets the bits
        # it gets in any batch
        diffs = (np.repeat(xc, 2) if n == 1 else xc)[None, :] - zs[:, None]
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
    return out


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
    try:
        lead = complex(obj["leading"][0], obj["leading"][1])
        zeros = tuple(complex(z[0], z[1]) for z in obj["zeros"])
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed polynomial payload: {exc}") from exc
    return Polynomial(lead, zeros)
