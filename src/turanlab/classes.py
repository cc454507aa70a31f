"""Restricted-zero polynomial classes: membership, sampling, parametrization.

The central class has parameters (n, k): degree at most n with at least
n - k zeros in the closed upper half-disk {|z| <= 1, Im z >= 0}, optionally
with one zero pinned to the real interval [-1, 1].  The incomplete classes
require a high-order zero at the origin instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import MembershipError
from .poly import Polynomial, from_zeros

# how far a zero may sit outside a region (half-disk, interval, point) and
# still count as inside it
_GEOM_TOL = 1e-9


@dataclass(frozen=True)
class ClassSpec:
    """Parameters (n, k) plus side constraints for the restricted class."""

    n: int
    k: int
    pin_interval_zero: bool = False

    def __post_init__(self):
        if not (0 <= self.k <= self.n):
            raise ValueError(f"need 0 <= k <= n, got n={self.n}, k={self.k}")


@dataclass(frozen=True)
class IncompleteSpec:
    """Degree <= n + k with at least n + 1 zeros at the origin."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("incomplete class needs n >= 1 and k >= 1")


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    constrained_indices: tuple
    pinned_index: int | None
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def in_upper_half_disk(z: complex) -> bool:
    return abs(z) <= 1.0 + _GEOM_TOL and z.imag >= -_GEOM_TOL


def _on_interval(z: complex) -> bool:
    """z is a real point of [-1, 1], within _GEOM_TOL."""
    return abs(z.imag) <= _GEOM_TOL and -1.0 - _GEOM_TOL <= z.real <= 1.0 + _GEOM_TOL


def is_member(P: Polynomial, spec: ClassSpec) -> MembershipReport:
    """Check degree, half-disk count, and the optional pinned interval zero."""
    if P.degree > spec.n:
        return MembershipReport(False, (), None,
                                f"degree {P.degree} exceeds n={spec.n}")
    constrained = tuple(i for i, z in enumerate(P.zeros) if in_upper_half_disk(z))
    need = spec.n - spec.k
    if len(constrained) < need:
        return MembershipReport(False, constrained, None,
                                f"only {len(constrained)} zeros in the half-disk, "
                                f"need {need}")
    pinned = None
    if spec.pin_interval_zero:
        pinned = next((i for i, z in enumerate(P.zeros) if _on_interval(z)), None)
        if pinned is None:
            return MembershipReport(False, constrained, None,
                                    "no zero on the interval [-1,1]")
    return MembershipReport(True, constrained, pinned, "ok")


def _check_seed(seed) -> None:
    """The one check of every seed the package takes."""
    try:
        ok = 0 <= operator.index(seed) < 2 ** 64
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _rng(seed) -> np.random.Generator:
    # counter-based generator so parallel sweeps stay reproducible
    _check_seed(seed)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def sample(spec: ClassSpec, seed: int = 0) -> Polynomial:
    """Random member, deterministic in the seed.

    n - k zeros are drawn area-uniform in the upper half-disk, the k free
    zeros uniform in the square [-2,2]^2.  With the pin flag one of the
    constrained zeros (or, when k = n, one free zero) is resampled
    uniformly from [-1, 1].
    """
    rng = _rng(seed)
    nc = spec.n - spec.k
    if spec.n == 0:
        if spec.pin_interval_zero:
            raise MembershipError("a constant has no zero to pin in [-1,1]")
        return from_zeros(1.0, ())
    r = np.sqrt(rng.uniform(0.0, 1.0, nc))
    th = rng.uniform(0.0, np.pi, nc)
    constrained = list(r * np.exp(1j * th))
    free = list(rng.uniform(-2.0, 2.0, spec.k) + 1j * rng.uniform(-2.0, 2.0, spec.k))
    if spec.pin_interval_zero:
        pin = complex(rng.uniform(-1.0, 1.0), 0.0)
        if nc >= 1:
            constrained[0] = pin
        else:
            free[0] = pin
    P = from_zeros(1.0, constrained + free)
    rep = is_member(P, spec)
    if not rep:
        raise MembershipError(f"sampler produced a non-member: {rep.detail}")
    return P


def _zeros_from_params(p: np.ndarray, spec: ClassSpec) -> np.ndarray:
    """The zero array ``embed`` builds from a parameter vector of length
    2 * spec.n, without the membership check.  A stack of vectors on the
    last axis gives the stack of their zero arrays, bit for bit."""
    a, b = p[..., 0::2], p[..., 1::2]
    nc = spec.n - spec.k
    # np.clip(x, lo, hi) as bare ufuncs, -0.0 included; lo first, since
    # np.maximum returns its second operand on a tie of signed zeros
    r = np.minimum(np.maximum(0.0, a[..., :nc]), 1.0)
    th = np.minimum(np.maximum(0.0, b[..., :nc]), np.pi)
    re = np.concatenate([r * np.cos(th), 3.0 * np.tanh(a[..., nc:])], axis=-1)
    im = np.concatenate([r * np.sin(th), 3.0 * np.tanh(b[..., nc:])], axis=-1)
    if spec.pin_interval_zero and spec.n >= 1:
        re[..., 0] = np.minimum(np.maximum(-1.0, a[..., 0]), 1.0)
        im[..., 0] = 0.0
    return re + 1j * im


def _params_from_zeros(zeros, spec: ClassSpec) -> np.ndarray:
    """The inverse of ``_zeros_from_params`` on the zero lists it reaches:
    (|z|, arg z), artanh of the parts of z / 3, or (Re z, 0) per slot."""
    z = np.asarray(zeros, dtype=complex)
    nc = spec.n - spec.k
    p = np.empty(2 * spec.n)
    p[0::2] = np.concatenate([np.abs(z[:nc]), np.arctanh(z.real[nc:] / 3.0)])
    p[1::2] = np.concatenate([np.angle(z[:nc]), np.arctanh(z.imag[nc:] / 3.0)])
    if spec.pin_interval_zero and spec.n >= 1:
        p[:2] = z[0].real, 0.0
    return p


def _draw_params(spec: ClassSpec, rng: np.random.Generator) -> np.ndarray:
    """A random start for ``embed``: (r, theta) uniform on the clamp box,
    the tanh coordinates standard normal, the pin uniform in [-1, 1]."""
    nc = spec.n - spec.k
    p = np.concatenate([rng.uniform(0.0, np.tile([1.0, np.pi], nc)),
                        rng.normal(0.0, 1.0, 2 * spec.k)])
    if spec.pin_interval_zero:
        p[0] = rng.uniform(-1.0, 1.0)
    return p


def embed(params, spec: ClassSpec) -> Polynomial:
    """Map a flat real vector to a class member (for derivative-free search).

    Constrained zeros use clamped polar pairs (r, theta), so boundary
    configurations like zeros exactly at +-1 are reachable; free zeros use a
    tanh box [-3,3]^2.  With the pin flag the first constrained pair (first
    free pair when k = n) contributes one clamped coordinate in [-1,1] and
    ignores its partner.
    """
    p = np.asarray(params, dtype=float)
    want = 2 * spec.n
    if p.shape != (want,):
        raise ValueError(f"parameter vector must have length {want}, got {p.shape}")
    P = from_zeros(1.0, _zeros_from_params(p, spec))
    rep = is_member(P, spec)
    if not rep:
        raise MembershipError(f"embedding produced a non-member: {rep.detail}")
    return P


def _zeros_at(P: Polynomial, point: complex) -> int:
    """How many zeros of P lie within _GEOM_TOL of point."""
    return sum(1 for z in P.zeros if abs(z - point) <= _GEOM_TOL)


def incomplete_member(P: Polynomial, spec: IncompleteSpec) -> bool:
    return P.degree <= spec.n + spec.k and _zeros_at(P, 0.0) >= spec.n + 1
