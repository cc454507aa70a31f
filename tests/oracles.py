"""Independent brute-force oracles used to validate certified routines.

Everything here is deliberately naive: dense grids, fixed Gauss-Kronrod
quadrature, and closed forms worked out by hand.  No oracle shares code
with the package: P and P' come from the numpy-only zero-list products at
the end (zero_list_values, zero_list_derivative), read off the polynomial's
leading coefficient and zero list, and the only name imported from
turanlab is Interval, the default range.  The last oracle uses exact
rational arithmetic.
"""

import math
from fractions import Fraction

import numpy as np

from turanlab.poly import Interval


def grid_sup(P, interval=Interval(), m=1_000_000):
    """Dense-grid sup of |P|; a lower bound on the true sup norm."""
    xs = np.linspace(interval.lo, interval.hi, m)
    return float(np.max(np.abs(zero_list_values(P.leading, P.zeros, xs))))


def grid_sup_slack(P, interval=Interval(), m=1_000_000):
    """Markov-based gap bound: sup - grid_max <= d^2 * sup * h / 2.

    |P'| <= d^2 * (2/L) * sup on the interval (Markov), so between grid
    points the function climbs at most lip * h/2 above the sampled max.
    Uses the grid max itself as a stand-in for sup, inflated by 2 to stay
    on the safe side.
    """
    d = max(P.degree, 1)
    L = interval.length
    h = L / (m - 1)
    lip = d * d * (2.0 / L) * 2.0 * grid_sup(P, interval, m=4096)
    return lip * h / 2.0


def grid_ratio(P, interval=Interval(), m=200_001):
    """Grid estimate of ||P'|| / ||P||; no certification."""
    xs = np.linspace(interval.lo, interval.hi, m)
    vals = np.abs(zero_list_values(P.leading, P.zeros, xs))
    dvals = np.abs(zero_list_derivative(P.leading, P.zeros, xs))
    return float(np.max(dvals) / np.max(vals))


# Gauss-Kronrod 21/10 rule on [-1, 1] (QUADPACK qk21): the nonnegative
# Kronrod nodes, their weights, and the weights of the Gauss nodes, which
# are the Kronrod nodes of odd index.
_GK_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208067059728, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_G_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651146])
_NODES = np.concatenate([-_GK_NODES, _GK_NODES[-2::-1]])            # 21
_K_WEIGHTS = np.concatenate([_GK_WEIGHTS, _GK_WEIGHTS[-2::-1]])
_G_FULL = np.zeros(21)
_G_FULL[1:10:2] = _G_WEIGHTS
_G_FULL[11:20:2] = _G_WEIGHTS[::-1]


def quad_total_variation(P, interval=Interval()):
    """Adaptive Gauss-Kronrod quadrature of |P'| over the interval.

    |P'| comes from the numpy-only product rule on the zero list
    (zero_list_derivative), not from the package.  The interval starts as
    64d uniform cells, so a feature narrower than one pass of samples (a
    bump between close zeros) still falls in a cell of its own width, and
    the cells are split at the sign changes of Re P' (the kinks of |P'|
    when P' is real; elsewhere a harmless extra edge), since a kink near a
    cell end, where no node falls, passes the K21 - G10 test unseen.  All
    live cells are evaluated in one batch; a cell whose |K21 - G10| exceeds
    its width's share of max(1e-12, 1e-12 * |total|) and the rounding level
    of its own integral is bisected.  Returns the integral and the summed
    error estimate of the accepted cells.
    """
    cells = 64 * max(P.degree, 1)
    edges = np.linspace(interval.lo, interval.hi, cells + 1)
    edges = np.union1d(edges, _real_derivative_sign_changes(P, interval))
    a, b = edges[:-1], edges[1:]
    parts, errs = [], []
    share = None
    for _ in range(60):
        half = 0.5 * (b - a)
        xs = (0.5 * (a + b))[:, None] + half[:, None] * _NODES[None, :]
        f = np.abs(zero_list_derivative(P.leading, P.zeros, xs.ravel()))
        f = f.reshape(xs.shape)
        k = half * (f @ _K_WEIGHTS)
        err = np.abs(k - half * (f @ _G_FULL))
        if share is None:
            share = max(1e-12, 1e-12 * abs(math.fsum(k))) / interval.length
        done = ((err <= share * 2.0 * half)
                | (err <= 50 * np.finfo(float).eps * k))
        parts.extend(k[done])
        errs.extend(err[done])
        a, b = a[~done], b[~done]
        if a.size == 0:
            break
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    else:
        raise RuntimeError("quadrature did not settle in 60 bisections")
    return math.fsum(parts), math.fsum(errs)


def _real_derivative_sign_changes(P, interval, per_degree=1024):
    """Points where Re P' changes sign on per_degree * d uniform cells,
    each located by bisection to the last bit."""
    def f(x):
        return zero_list_derivative(P.leading, P.zeros, x).real

    xs = np.linspace(interval.lo, interval.hi, per_degree * max(P.degree, 1) + 1)
    fx = f(xs)
    i = np.flatnonzero(fx[:-1] * fx[1:] < 0)
    a, b, fa = xs[i], xs[i + 1], fx[i]
    for _ in range(64):
        m = 0.5 * (a + b)
        fm = f(m)
        left = np.sign(fm) != np.sign(fa)
        a, b, fa = np.where(left, a, m), np.where(left, m, b), np.where(left, fa, fm)
    return 0.5 * (a + b)


def logderiv_abs(P, xs):
    """|P'(x)/P(x)| on a grid, +inf at zeros of P."""
    vals = zero_list_values(P.leading, P.zeros, xs)
    dvals = zero_list_derivative(P.leading, P.zeros, xs)
    out = np.full(len(xs), np.inf)
    nz = vals != 0
    out[nz] = np.abs(dvals[nz] / vals[nz])
    return out


def grid_measure_small_logderiv(Q, delta, m=2_000_001, interval=Interval()):
    """Grid approximation of m{x in I : |Q'/Q| <= deg(Q)*delta}."""
    xs = np.linspace(interval.lo, interval.hi, m)
    mask = logderiv_abs(Q, xs) <= Q.degree * delta
    return float(np.count_nonzero(mask)) / m * interval.length


def grid_measure_large_logderiv(R, alpha, m=2_000_001, interval=Interval()):
    xs = np.linspace(interval.lo, interval.hi, m)
    mask = logderiv_abs(R, xs) >= alpha
    return float(np.count_nonzero(mask)) / m * interval.length


def squared_argument_min_ratio(n, scan=721, m=20_001, zooms=6,
                               m_fine=100_001):
    """min over S(y) = cos(phi) + sin(phi)*y of
    max 2*sqrt(1-y)*|Q'(y)| / max |Q(y)| on [0,1], with Q = y^(n-1) S.

    This is ||P'||/||P|| on [-1,1] for P(x) = Q(1-x^2), minimized over the
    k = 2 correction.  phi in [0, pi) covers every S up to scale and sign.
    A dense phi scan picks the basin; each zoom rescans +-1 step around the
    best phi on a finer y grid with a tenth of the step.
    """
    def ratios(phis, ys):
        a, b = ys ** (n - 1), ys ** n
        da, db = (n - 1) * ys ** (n - 2), n * ys ** (n - 1)
        w = 2.0 * np.sqrt(1.0 - ys)
        out = np.empty(len(phis))
        chunk = max(1, 1_000_000 // len(ys))
        for i in range(0, len(phis), chunk):
            c = np.cos(phis[i:i + chunk])[:, None]
            s = np.sin(phis[i:i + chunk])[:, None]
            num = np.max(w * np.abs(c * da + s * db), axis=1)
            out[i:i + chunk] = num / np.max(np.abs(c * a + s * b), axis=1)
        return out

    phis = np.linspace(0.0, np.pi, scan, endpoint=False)
    vals = ratios(phis, np.linspace(0.0, 1.0, m))
    best, step = phis[np.argmin(vals)], np.pi / scan
    ys = np.linspace(0.0, 1.0, m_fine)
    for _ in range(zooms):
        phis = best + np.linspace(-step, step, 21)
        vals = ratios(phis, ys)
        best, step = phis[np.argmin(vals)], step / 10.0
    return float(np.min(vals))


# ----------------------------------------------------------------------
# Zero-list oracles: numpy only, no turanlab code at all, so they stay
# independent of the package's evaluation kernel.

def _point_blocks(npts, nzeros, block=1 << 19):
    step = max(1, block // max(nzeros, 1))
    for s in range(0, npts, step):
        yield slice(s, min(s + step, npts))


def zero_list_values(lead, zeros, xs):
    """lead * prod (x - z) by the plain product."""
    z = np.asarray(zeros, dtype=complex)
    x = np.asarray(xs, dtype=float)
    out = np.empty(x.size, dtype=complex)
    for b in _point_blocks(x.size, z.size):
        out[b] = lead * np.prod(x[b][None, :] - z[:, None], axis=0)
    return out


def zero_list_derivative(lead, zeros, xs):
    """lead * sum_i prod_{j != i} (x - z_j) from prefix and suffix
    products: no division, no special case at a zero."""
    z = np.asarray(zeros, dtype=complex)
    x = np.asarray(xs, dtype=float)
    out = np.zeros(x.size, dtype=complex)
    if z.size == 0:
        return out
    for b in _point_blocks(x.size, 3 * z.size):
        diffs = x[b][None, :] - z[:, None]
        pre = np.ones_like(diffs)
        suf = np.ones_like(diffs)
        pre[1:] = np.cumprod(diffs[:-1], axis=0)
        suf[:-1] = np.cumprod(diffs[::-1], axis=0)[:-1][::-1]
        out[b] = lead * np.sum(pre * suf, axis=0)
    return out


def zero_list_grid_max(lead, zeros, order, m=100_001, lo=-1.0, hi=1.0):
    """max |P| (order 0) or |P'| (order 1) over m uniform points: a lower
    bound on the sup norm."""
    xs = np.linspace(lo, hi, m)
    f = zero_list_values if order == 0 else zero_list_derivative
    return float(np.max(np.abs(f(lead, zeros, xs))))


def zero_list_sup_upper(lead, zeros, order, per_degree=32, lo=-1.0, hi=1.0):
    """Ehlich-Zeller upper bound on max |P^(order)| over [lo, hi]: for the
    real polynomial g = |P^(order)|^2 of degree D and m > D,
    ||g|| <= max_j g(c + h cos(j pi / m)) / cos(D pi / (2 m)), with c and h
    the midpoint and half-length of [lo, hi]."""
    D = 2 * (len(zeros) - order)
    if D <= 0:
        return abs(lead) * (1 if order == 0 else len(zeros))
    m = per_degree * D
    xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(m + 1) / m)
    f = zero_list_values if order == 0 else zero_list_derivative
    top = float(np.max(np.abs(f(lead, zeros, xs))))
    return top / np.sqrt(np.cos(D * np.pi / (2.0 * m))) * (1.0 + 1e-12)


def zero_list_level_measure(zeros, level, small, m=200_001):
    """(measure, boundaries, step) of {|P'/P| <= level} (small) or
    {|P'/P| >= level} on [-1, 1] from m uniform points, |P'/P| being
    |sum 1/(x - z)| (+inf on a zero).  A cell with both ends in the set
    counts fully, a cell with one end in counts half and holds a boundary,
    so the grid measure is good to one step per boundary."""
    z = np.asarray(zeros, dtype=complex)
    xs = np.linspace(-1.0, 1.0, m)
    s = np.empty(m)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for b in _point_blocks(m, z.size):
            diffs = xs[b][None, :] - z[:, None]
            v = np.abs(np.sum(1.0 / diffs, axis=0))
            v[np.any(diffs == 0, axis=0)] = np.inf
            s[b] = v
    inside = s <= level if small else s >= level
    both = np.count_nonzero(inside[:-1] & inside[1:])
    mixed = np.count_nonzero(inside[:-1] != inside[1:])
    h = 2.0 / (m - 1)
    return h * (both + 0.5 * mixed), int(mixed), h


def exact_derivative_abs(lead, zeros, x):
    """|P'(x)| for the zeros exactly as stored (doubles read as rationals):
    the product rule runs through the factors in rational complex
    arithmetic, so nothing rounds until the final square root."""
    def rational(v):
        v = complex(v)
        return Fraction(v.real), Fraction(v.imag)

    def mul(u, v):
        return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]

    p, dp = rational(lead), (Fraction(0), Fraction(0))
    for z in zeros:
        zr, zi = rational(z)
        t = (Fraction(float(x)) - zr, -zi)
        q = mul(dp, t)
        p, dp = mul(p, t), (q[0] + p[0], q[1] + p[1])
    return math.sqrt(float(dp[0] ** 2 + dp[1] ** 2))


def exact_cell_series(lead, zeros, m, r, terms):
    """The first terms Taylor coefficients in tau of lead * prod (x - z) at
    x = m + r tau, i.e. of lead * prod (m - z + r tau), for the numbers
    exactly as stored, each as a (real, imaginary) pair of Fractions.
    Doubles are dyadic, so with 2^k a common denominator of all inputs the
    factors are multiplied out in Gaussian integers scaled by 2^k, exactly
    and without the gcds of Fraction arithmetic; the powers of tau from
    terms on are dropped, as no lower power depends on them."""
    parts = [Fraction(x) for v in (lead, m, r, *zeros)
             for x in (complex(v).real, complex(v).imag)]
    k = max(p.denominator.bit_length() - 1 for p in parts)
    n = [int(p * 2 ** k) for p in parts]
    c = [(n[0], n[1])] + [(0, 0)] * (terms - 1)
    mi, ri = n[2], n[4]
    for zr, zi in zip(n[6::2], n[7::2]):
        tr, ti = mi - zr, -zi                  # c_j <- c_j t + c_(j-1) r
        c = [(u[0] * tr - u[1] * ti + ri * p[0], u[0] * ti + u[1] * tr + ri * p[1])
             for u, p in zip(c, [(0, 0)] + c[:-1])]
    scale = Fraction(1, 2 ** (k * (len(zeros) + 1)))
    return [(u * scale, v * scale) for u, v in c]
