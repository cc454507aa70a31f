"""Independent references for the benchmark's checks.

Everything here works on a leading coefficient and a zero list with numpy
alone and imports nothing from turanlab, so a fault in the package cannot
hide itself by agreeing with its own reference.

* ``sup_bounds``: a lower and an upper bound for max |P| or max |P'| on
  [-1, 1].  The lower bound is the largest value seen at any evaluated
  point (a dense Chebyshev grid, zoomed around its best points); the upper
  bound is Ehlich-Zeller on the real polynomial g = |P^(r)|^2 of degree
  D = 2 (d - r):  ||g|| <= max_j g(x_j) / cos(D pi / (2 m)) over the m + 1
  Chebyshev extrema x_j = cos(j pi / m), m > D.  No root finding.
* ``ratio_enclosure``: the two bounds combined, enclosing ||P'|| / ||P||.
* ``level_measure``: grid measure of {|P'/P| <= c} or {|P'/P| >= c} with the
  number of set boundaries the grid sees; the measure is good to one grid
  step per boundary.
* ``closed_form_ratio``: ||P'|| / ||P|| of (x^2 - 1)^m.
* ``squared_argument_k2``: the minimum over phi of the ratio of
  P(x) = Q(1 - x^2), Q = y^(n-1) (cos phi + sin phi y).
"""

from __future__ import annotations

import math

import numpy as np

_EPS = float(np.finfo(float).eps)

# entries of one (zeros x points) block; keeps the oracle's memory small
_BLOCK = 1 << 19

KOMAROV_A = 2.0 / (3.0 * math.sqrt(210.0 * math.e))


def _blocks(npts: int, nzeros: int):
    step = max(1, _BLOCK // max(nzeros, 1))
    for s in range(0, npts, step):
        yield slice(s, min(s + step, npts))


def values(lead, zeros, xs) -> np.ndarray:
    """P(x) = lead * prod (x - z), by the plain product."""
    z = np.asarray(zeros, dtype=complex)
    x = np.asarray(xs, dtype=float)
    out = np.empty(x.size, dtype=complex)
    for b in _blocks(x.size, z.size):
        out[b] = lead * np.prod(x[b][None, :] - z[:, None], axis=0)
    return out


def derivative_values(lead, zeros, xs) -> np.ndarray:
    """P'(x) = lead * sum_i prod_{j != i} (x - z_j), from prefix and suffix
    products, so no division and no special case at a zero."""
    z = np.asarray(zeros, dtype=complex)
    x = np.asarray(xs, dtype=float)
    d = z.size
    out = np.zeros(x.size, dtype=complex)
    if d == 0:
        return out
    for b in _blocks(x.size, 3 * d):
        diffs = x[b][None, :] - z[:, None]
        pre = np.ones_like(diffs)
        suf = np.ones_like(diffs)
        pre[1:] = np.cumprod(diffs[:-1], axis=0)
        suf[:-1] = np.cumprod(diffs[::-1], axis=0)[:-1][::-1]
        out[b] = lead * np.sum(pre * suf, axis=0)
    return out


def _abs_fn(lead, zeros, order):
    if order == 0:
        return lambda xs: np.abs(values(lead, zeros, xs))
    return lambda xs: np.abs(derivative_values(lead, zeros, xs))


def sup_bounds(lead, zeros, order: int, per_degree: int) -> tuple:
    """(lower, upper) for max over [-1, 1] of |P| (order 0) or |P'| (order 1),
    from m = per_degree * D Chebyshev extrema, D = 2 (deg P - order)."""
    d = len(zeros) - order
    if d <= 0:
        v = abs(lead) * (1 if order == 0 else len(zeros))
        return float(v), float(v)
    D = 2 * d
    m = per_degree * D
    f = _abs_fn(lead, zeros, order)
    xs = np.cos(np.pi * np.arange(m + 1) / m)
    vals = f(xs)
    top = float(np.max(vals))
    upper = top / math.sqrt(math.cos(D * math.pi / (2.0 * m)))
    lower = top
    # zoom around the three best extrema; every point evaluated is a lower bound
    for j in np.argsort(vals)[-3:]:
        a, b = xs[min(j + 1, m)], xs[max(j - 1, 0)]
        for _ in range(4):
            grid = np.linspace(a, b, 257)
            gv = f(grid)
            i = int(np.argmax(gv))
            lower = max(lower, float(gv[i]))
            a, b = grid[max(i - 1, 0)], grid[min(i + 1, 256)]
    slack = 64.0 * (d + 2) * _EPS
    return lower * (1.0 - slack), max(upper, lower) * (1.0 + slack)


def ratio_enclosure(lead, zeros, per_degree: int) -> tuple:
    """(lo, hi) with lo <= ||P'|| / ||P|| <= hi on [-1, 1]."""
    den_lo, den_hi = sup_bounds(lead, zeros, 0, per_degree)
    num_lo, num_hi = sup_bounds(lead, zeros, 1, per_degree)
    return num_lo / den_hi, num_hi / den_lo


def encloses(enclosure: tuple, value: float, err: float) -> bool:
    """True when [value - err, value + err] meets the oracle enclosure."""
    lo, hi = enclosure
    return value + err >= lo and value - err <= hi


def logderiv_abs(zeros, xs) -> np.ndarray:
    """|P'/P| = |sum 1/(x - z)|; +inf where x hits a zero."""
    z = np.asarray(zeros, dtype=complex)
    x = np.asarray(xs, dtype=float)
    out = np.empty(x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for b in _blocks(x.size, z.size):
            diffs = x[b][None, :] - z[:, None]
            hit = np.any(diffs == 0, axis=0)
            s = np.abs(np.sum(1.0 / diffs, axis=0))
            s[hit] = np.inf
            out[b] = s
    return out


def level_measure(zeros, level: float, small: bool, points: int) -> tuple:
    """(measure, boundaries, step) of {|P'/P| <= level} (small) or
    {|P'/P| >= level} on [-1, 1], from a uniform grid of ``points`` points.

    A cell with both ends in the set counts fully, a cell with one end in
    counts half and holds one boundary.
    """
    xs = np.linspace(-1.0, 1.0, points)
    h = 2.0 / (points - 1)
    s = logderiv_abs(zeros, xs)
    inside = s <= level if small else s >= level
    both = np.count_nonzero(inside[:-1] & inside[1:])
    mixed = np.count_nonzero(inside[:-1] != inside[1:])
    return h * (both + 0.5 * mixed), int(mixed), h


def measure_agrees(measure: float, err: float, ref: tuple) -> bool:
    """The program's measure lies within one grid step per boundary of the
    grid measure, plus two steps for a component narrower than a cell."""
    grid, boundaries, h = ref
    return abs(measure - grid) <= err + h * (boundaries + 2)


def closed_form_ratio(m: int) -> float:
    """||P'|| / ||P|| on [-1, 1] for P = (x^2 - 1)^m, m >= 1."""
    return 2 * m / math.sqrt(2 * m - 1) * ((2 * m - 2) / (2 * m - 1)) ** (m - 1)


def _weighted_ratio(n: int, phis: np.ndarray, ys: np.ndarray) -> np.ndarray:
    c = np.cos(phis)[:, None]
    s = np.sin(phis)[:, None]
    q = ys ** (n - 1) * (c + s * ys)
    dq = ys ** (n - 2) * ((n - 1) * c + n * s * ys)
    num = np.max(2.0 * np.sqrt(1.0 - ys) * np.abs(dq), axis=1)
    return num / np.max(np.abs(q), axis=1)


def squared_argument_k2(n: int) -> float:
    """min over phi of max_y 2 sqrt(1-y) |Q'(y)| / max_y |Q(y)| on [0, 1]
    with Q = y^(n-1) (cos phi + sin phi y): the ratio of P(x) = Q(1 - x^2)
    minimized over the k = 2 correction, by a phi scan with zooms."""
    ys = np.linspace(0.0, 1.0, 200_001)
    phis = np.linspace(0.0, np.pi, 360, endpoint=False)
    step = np.pi / 360
    best = phis[np.argmin(_weighted_ratio(n, phis, ys[::20]))]
    for _ in range(7):
        phis = best + np.linspace(-2 * step, 2 * step, 17)
        vals = _weighted_ratio(n, phis, ys)
        best, step = phis[int(np.argmin(vals))], step / 4
    return float(np.min(vals))


def member(zeros, n: int, k: int, pin: bool, tol: float = 1e-9) -> bool:
    """Degree <= n, at least n - k zeros in the closed upper half-disk and,
    with ``pin``, one zero on [-1, 1]."""
    z = np.asarray(zeros, dtype=complex)
    if z.size > n:
        return False
    in_disk = (np.abs(z) <= 1.0 + tol) & (z.imag >= -tol)
    if np.count_nonzero(in_disk) < n - k:
        return False
    on_interval = (np.abs(z.imag) <= tol) & (np.abs(z.real) <= 1.0 + tol)
    return bool(np.any(on_interval)) or not pin


def lower_bounds(zeros, n: int, k: int, pin: bool) -> dict:
    """The paper's lower bounds on ||P'|| / ||P|| that apply to a member of
    class (n, k) with these zeros: Turan's sqrt(d)/6 for real zeros in
    [-1, 1], Komarov's A sqrt(n) at k = 0, and Cor 2.3's
    max(1/2, sqrt((n-k)/k)/808) with a pinned zero and k >= 1 (Thm 2.2
    needs k <= n/163000 and never applies at these degrees)."""
    z = np.asarray(zeros, dtype=complex)
    out = {}
    if z.size and np.all((np.abs(z.imag) <= 1e-9) & (np.abs(z.real) <= 1.0 + 1e-9)):
        out["turan11"] = math.sqrt(z.size) / 6.0
    if k == 0:
        out["komarov"] = KOMAROV_A * math.sqrt(n)
    if pin and k >= 1:
        out["cor23"] = max(0.5, math.sqrt((n - k) / k) / 808.0)
    return out
