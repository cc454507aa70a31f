"""Derivative-free minimization of derivative ratios, and grid sweeps.

Every search runs one restart-and-certify loop: Nelder-Mead descends a
fast non-certified grid estimate from each start point, each end point is
re-scored with a certified ratio, and the lowest certified value wins.  The
result's trace records each certified improvement, so it ends at the
result.  The restarts descend in lockstep on the numpy Nelder-Mead here:
each stage of a step sends every restart's pending points to one call of
a batched grid estimate.  The searches are

* ``minimize_ratio``: ||P'||/||P|| over the half-disk class, on the
  clamped/tanh parametrization from :mod:`turanlab.classes`.  Before the
  descents it scores, at degrees n and max(n - k, 1), a warm family of at
  most four members with every zero at +-1: the Turan-ordered product of
  (x - 1) and (x + 1), (x + 1)^d, (x - 1)^d and, at odd d, the mirror
  split.  A family depends only on its degree, so it is certified once per
  process and shared by every class that scores that degree;
* ``coefficient_search``: a ratio of Q = y^(m+1) S(y) over the
  coefficients of S, behind ``minimize_incomplete_ratio`` (denominator
  |Q(1)|, V_0^1(Q) or ||Q||_[0,1]) and ``constructions.thm24_construct``.

Because the lower bounds are theorems, any feasible point must sit above
them; a search value is only ever an upper estimate of the true infimum.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import poly
from .bounds import (
    BoundBracket,
    _quotient,
    bracket_pass,
    class_brackets,
    lemma34_bracket,
    turan_ratio,
)
from .classes import (
    ClassSpec,
    IncompleteSpec,
    _check_seed,
    _rng,
    _zeros_from_params,
    embed,
    incomplete_member,
)
from .errors import SearchFailure, TuranLabError
from .poly import Interval, Polynomial, evaluate, from_zeros
from .supnorm import (
    CertifiedValue,
    _cheb_grid,
    sup_norm_derivative,
    total_variation,
)

# Nelder-Mead: initial simplex x0 + _SIMPLEX_SCALE * e_i, and the spread of
# simplex values at which a descent stops.
_SIMPLEX_SCALE = 0.3
_FATOL = 1e-10
# (a, b) of each trial point a * xbar + b * worst after a reflection: the
# same bits as 3 * xbar - 2 * worst, 1.5 * xbar - 0.5 * worst and
# 0.5 * xbar + 0.5 * worst, since x - y is x + (-y) in floating point
_MOVES = {"expand": (3.0, -2.0), "outside": (1.5, -0.5), "inside": (0.5, 0.5)}


@dataclass(frozen=True)
class SearchConfig:
    budget: int = 20_000      # objective evaluations per restart
    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        try:
            ok = (operator.index(self.budget) >= 1
                  and operator.index(self.restarts) >= 1)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError("budget and restarts must be integers >= 1")
        _check_seed(self.seed)


@dataclass(frozen=True)
class SearchResult:
    best: Polynomial
    ratio: CertifiedValue
    bracket: BoundBracket
    trace: tuple
    evals: int
    params: tuple | None
    warm_best: float | None = None

    @property
    def within_bracket(self) -> bool:
        return bracket_pass(self.ratio, self.bracket)


def _fast_ratio(zeros: np.ndarray, xs: np.ndarray):
    """Grid estimate of ||P'||/||P|| from the factored form of the monic P,
    for each zero list on the last axis of ``zeros`` (one list gives a 0-d
    array)."""
    diffs = xs - zeros[..., :, None]
    vals = np.multiply.reduce(diffs, axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.add.reduce(1.0 / diffs, axis=-2)
        # A fresh output keeps a stack's rows equal to single rows: numpy
        # runs a product on a temporary above 256 KiB in place, and the
        # in-place complex product rounds differently.
        dvals = np.multiply(vals, s, out=np.empty_like(s))
        # grid points hitting a zero exactly count as 0; neighbors cover them
        num = np.maximum.reduce(np.abs(dvals), axis=-1,
                                where=np.isfinite(dvals), initial=0.0)
        den = np.maximum.reduce(np.abs(vals), axis=-1)
        return np.where((den > 0.0) & np.isfinite(den), num / den, 1e18)


@functools.cache
def _warm_family(d: int) -> tuple:
    """(turan_ratio(P), P) for the warm members of degree d, certified once
    per process: the Turan-ordered (x-1)(x+1)(x-1)..., (x+1)^d, at odd d
    the mirror split (x-1)^(d//2+1) (x+1)^(d//2), and (x-1)^d.  The first
    lowest of all endpoint splits (x-1)^a (x+1)^(d-a) is among them
    (tests/test_search.py checks d <= 40).  Their zeros are all at +-1, so
    each is a member of every class (n, k) with n - k <= d <= n, pinned or
    not."""
    members = [[1.0, -1.0] * (d // 2) + [-1.0] * (d % 2)]
    if d > 1:                       # at d = 1 the Turan member is x + 1
        members.append([-1.0] * d)
        if d % 2:
            members.append([1.0] * (d // 2 + 1) + [-1.0] * (d // 2))
    members.append([1.0] * d)
    return tuple((turan_ratio(P), P)
                 for P in (from_zeros(1.0, zeros) for zeros in members))


def _warm_param_starts(spec: ClassSpec) -> list:
    """Parameter vectors encoding the structured families at full degree."""
    starts = []
    nc = spec.n - spec.k
    pin_slot = 0 if spec.pin_interval_zero and spec.n >= 1 else None
    for flip in (0, 1):
        p = np.zeros(2 * spec.n)
        for i in range(spec.n):
            sign = 1.0 if (i + flip) % 2 == 0 else -1.0
            if pin_slot is not None and i == pin_slot:
                p[2 * i] = sign
            elif i < nc:
                p[2 * i] = 1.0
                p[2 * i + 1] = 0.0 if sign > 0 else math.pi
            else:
                p[2 * i] = math.atanh(sign / 3.0)
                p[2 * i + 1] = 0.0
        starts.append(p)
    return starts


def _ordered(sim, fsim):
    """Each restart's simplex sorted by value, in np.argsort's order."""
    rows = np.arange(len(fsim))[:, None]
    ind = np.argsort(fsim, axis=1)
    return sim[rows, ind], fsim[rows, ind]


def _nelder_mead(objective, sim, budget: int, xatol: float):
    """Nelder-Mead from each simplex of ``sim`` (restarts x (dim+1) x dim),
    the restarts in lockstep.

    ``objective`` maps a stack of points to their values; each stage of a
    step (the reflections, then the expansions and contractions, then the
    shrinks) makes one call for all restarts.  Each restart makes the moves
    of the classic method (Nelder & Mead, Comput. J. 7, 1965) with
    coefficients 1, 2, 1/2, 1/2, the vertices kept in np.argsort's order of
    their values.  It stops once every vertex is within ``xatol`` of the
    best and every value within _FATOL of the best value, or at ``budget``
    evaluations wherever that falls, even inside the initial simplex (the
    vertices left unevaluated count as inf).  A step cut before its
    expansion or contraction leaves the simplex as it was; a shrink cut
    after j evaluations has moved vertex j + 1 and keeps its old value
    there.  Returns each restart's final simplex, sorted (its vertex 0 is
    the end point), the values at its vertices and its evaluations.

    The moves are those of scipy.optimize.minimize(method="Nelder-Mead")
    only for objectives that never return NaN: a NaN reflection is taken
    here as a plain one, where scipy contracts.  Every search objective in
    this module returns 1e18 in place of a ratio it cannot form (_fast_ratio
    on a zero or non-finite maximum of |P|, coefficient_search's on a
    vanishing denominator).
    """
    restarts, n1, dim = sim.shape
    fsim = np.full((restarts, n1), np.inf)
    first = min(budget, n1)
    fsim[:, :first] = objective(sim[:, :first].reshape(-1, dim)).reshape(restarts, first)
    sim, fsim = _ordered(*_ordered(sim, fsim))     # twice: ties may reorder
    final, values = np.empty_like(sim), np.empty_like(fsim)
    used = np.empty(restarts, dtype=int)
    live, ev = list(range(restarts)), [first] * restarts
    vertices = np.arange(1, n1)
    # The per-restart tests run on Python floats, which compare and subtract
    # as numpy does; inf - inf is nan there, without a warning.
    while True:
        f = fsim.tolist()
        done = [e >= budget for e in ev]
        # a sorted row's largest |f_0 - f_j| is f_last - f_0 (nan last)
        flat = [i for i, row in enumerate(f) if row[-1] - row[0] <= _FATOL]
        if flat:
            near = np.max(np.abs(sim[flat, 1:] - sim[flat, :1]), axis=(1, 2))
            for i, d in zip(flat, near.tolist()):
                done[i] = done[i] or d <= xatol
        if any(done):
            out = [i for i, d in enumerate(done) if d]
            keep = [i for i, d in enumerate(done) if not d]
            idx = [live[i] for i in out]
            final[idx], values[idx] = sim[out], fsim[out]
            used[idx] = [ev[i] for i in out]
            if not keep:
                return final, values, used
            live, ev = [live[i] for i in keep], [ev[i] for i in keep]
            sim, fsim, f = sim[keep], fsim[keep], [f[i] for i in keep]

        xbar = np.add.reduce(sim[:, :-1], 1) / dim
        worst = sim[:, -1]
        new = 2 * xbar - worst                  # the reflection
        fnew = objective(new).tolist()
        take = []          # (row, row of new, value) of each new worst vertex
        pend = []          # (row, move) of each expansion or contraction
        for i, (fr, fi) in enumerate(zip(fnew, f)):
            ev[i] += 1
            if fr < fi[0]:
                move = "expand"
            elif fr >= fi[-2]:
                move = "outside" if fr < fi[-1] else "inside"
            else:
                take.append((i, i, fr))
                continue
            # a step with no evaluation left for its expansion or
            # contraction leaves the simplex as it was
            if ev[i] < budget:
                pend.append((i, move))
        shrink = []
        if pend:
            at = [i for i, _ in pend]
            ab = np.array([_MOVES[m] for _, m in pend])
            pts = ab[:, :1] * xbar[at] + ab[:, 1:] * worst[at]
            fpts = objective(pts).tolist()
            for j, ((i, move), fp) in enumerate(zip(pend, fpts)):
                ev[i] += 1
                if move == "expand":
                    better = fp < fnew[i]
                else:
                    better = fp <= fnew[i] if move == "outside" else fp < f[i][-1]
                if better:
                    take.append((i, len(fnew) + j, fp))
                elif move == "expand":
                    take.append((i, i, fnew[i]))
                else:
                    shrink.append(i)
            new = np.concatenate([new, pts])
        if take:
            rows, src, fvals = map(list, zip(*take))
            sim[rows, -1], fsim[rows, -1] = new[src], fvals

        if shrink:
            left = budget - np.array([ev[i] for i in shrink])
            shrink = np.array(shrink)
            s0 = sim[shrink, :1]
            moved = vertices <= left[:, None] + 1
            r, j = np.nonzero(moved)
            sim[shrink[r], j + 1] = (s0 + 0.5 * (sim[shrink, 1:] - s0))[moved]
            r, j = np.nonzero(vertices <= left[:, None])
            if r.size:
                fsim[shrink[r], j + 1] = objective(sim[shrink[r], j + 1])
            for i, n in zip(shrink.tolist(), left.tolist()):
                ev[i] += min(n, dim)
        sim, fsim = _ordered(sim, fsim)


def _lowest_certified(objective, width: int, starts, budget: int,
                      xatol: float, certify, warm=()):
    """The restart-and-certify loop shared by every search.

    Scores the warm (CertifiedValue, item) pairs first, one evaluation
    each, then descends ``objective`` by lockstep Nelder-Mead from every
    start with ``budget`` evaluations each, and scores ``certify(x)`` at the
    end points in restart order, each a (CertifiedValue, item) pair or None
    to skip it.  ``objective`` maps a stack of points to their values and
    builds about ``width`` broadcast entries per point; it is called on the
    row blocks of poly._blocks.  The lowest
    (certified value, |x|) wins, a warm item counting as |x| = inf; on a
    tie the earlier candidate stays.  Returns ((cert, item, x), evaluations,
    trace), x being None for a warm winner and the trace holding
    (evaluations so far, certified value) at each certified improvement.
    """
    evals = 0
    best, best_key, trace = None, None, []

    def consider(scored, x):
        nonlocal best, best_key
        if scored is None:
            return
        cert, item = scored
        key = (cert.value, math.inf if x is None else float(np.linalg.norm(x)))
        if best is None or cert.value < best_key[0]:
            trace.append((evals, cert.value))
        if best is None or key < best_key:
            best, best_key = (cert, item, x), key

    for scored in warm:
        evals += 1
        consider(scored, None)
    x0 = np.array(starts, dtype=float)[:, None, :]
    sim = np.concatenate([x0, x0 + _SIMPLEX_SCALE * np.eye(x0.shape[2])], axis=1)
    # blocks of poly._BLOCK_LIMIT entries: with 2,000,000, minimize_ratio at
    # n = 40 with 32 restarts of 300 peaked at 101 MB of RSS against 45 MB
    # with these, and ran no faster
    final, _, used = _nelder_mead(
        lambda rows: poly._blockwise(lambda r: (objective(r),), width, rows)[0],
        sim, budget, xatol)
    for x, n in zip(final[:, 0], used):
        evals += int(n)
        consider(certify(x), x)
    if best is None:
        raise SearchFailure("no feasible evaluation within budget")
    return best, evals, tuple(trace)


def minimize_ratio(spec: ClassSpec, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Estimate the infimum of ||P'||/||P|| over the class via restarts."""
    if spec.n == 0:
        raise SearchFailure("class of constants has no meaningful ratio")
    xs = _cheb_grid(-1.0, 1.0, max(64, 16 * spec.n))
    warm = [w for d in {spec.n, max(spec.n - spec.k, 1)}
            for w in _warm_family(d)]

    rng = _rng(cfg.seed)
    starts = _warm_param_starts(spec)[: cfg.restarts]
    nc = spec.n - spec.k
    while len(starts) < cfg.restarts:
        x0 = np.empty(2 * spec.n)
        for i in range(spec.n):
            if i < nc:
                x0[2 * i] = rng.uniform(0.0, 1.0)
                x0[2 * i + 1] = rng.uniform(0.0, math.pi)
            else:
                x0[2 * i] = rng.normal(0.0, 1.0)
                x0[2 * i + 1] = rng.normal(0.0, 1.0)
        if spec.pin_interval_zero:
            x0[0] = rng.uniform(-1.0, 1.0)
        starts.append(x0)

    def certify(x):
        P = embed(x, spec)
        return turan_ratio(P), P

    (cert, P, x), evals, trace = _lowest_certified(
        lambda p: _fast_ratio(_zeros_from_params(p, spec), xs),
        spec.n * xs.size, starts, cfg.budget, 1e-10, certify, warm)
    # the strongest lower bound that holds for every member of the class
    bracket = max(class_brackets(spec), key=lambda b: b.lower,
                  default=BoundBracket(0.0, "none"))
    return SearchResult(
        best=P, ratio=cert, bracket=bracket, trace=trace, evals=evals,
        params=None if x is None else tuple(float(v) for v in x),
        warm_best=min(c.value for c, _ in warm))


def coefficient_search(m: int, k: int, cfg: SearchConfig, estimate, certify):
    """Search Q = y^(m+1) S(y), S = sum_(j<k) c_j y^j, over the real c.

    Restarted Nelder-Mead, from e_1 and then standard normal draws keyed by
    cfg.seed, descends the grid estimate num/den of a ratio of Q, taken on
    256(m+k)+1 uniform points ys of [0, 1].  ``estimate(ys)`` runs once per
    search and returns the map (Q on ys, Q' on ys) -> (num, den), with one
    row per point and one reduction per row.  Each end point is factored
    into Q and scored by ``certify(Q)``, a CertifiedValue or None to skip
    it.  The ratios ignore the scale of Q, so each distinct
    zero list is certified once.  Returns ((cert, Q, c), evaluations,
    trace) as the shared restart loop does.
    """
    # |Q'| can peak within ~1/(m+k) of y = 1; at 256(m+k)+1 points the grid
    # maxima sit within ~1e-7 relative of the true ones, so the descent
    # lands on the true optimum of S to that accuracy.
    ys = np.linspace(0.0, 1.0, 256 * (m + k) + 1)
    expo = np.arange(m + 1, m + k + 1)[:, None]
    basis = ys ** expo                        # y^(m+1+j), j < k
    dbasis = expo * ys ** (expo - 1)
    parts = estimate(ys)

    def objective(C):
        scale = np.max(np.abs(C), axis=-1)
        # row by row: a matrix product over the stack differs in the last
        # bit from c @ basis for k >= 2
        num, den = parts(np.array([c @ basis for c in C]),
                         np.array([c @ dbasis for c in C]))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where((scale <= 0) | (den <= 1e-14 * scale * len(ys)),
                            1e18, num / den)

    certs = {}

    def scored(c):
        # trailing coefficients below 1e-13 of the largest are dropped
        top = np.flatnonzero(np.abs(c) > 1e-13 * np.max(np.abs(c)))
        if top.size == 0:
            return None
        s = c[: top[-1] + 1]
        roots = np.polynomial.polynomial.polyroots(s)
        Q = from_zeros(s[-1], tuple(np.zeros(m + 1)) + tuple(roots))
        if Q.zeros not in certs:
            certs[Q.zeros] = certify(Q)
        cert = certs[Q.zeros]
        return None if cert is None else (cert, Q)

    rng = _rng(cfg.seed)
    starts = [np.eye(k)[0]] + [rng.normal(0.0, 1.0, k)
                               for _ in range(cfg.restarts - 1)]
    return _lowest_certified(objective, basis.size, starts, cfg.budget, 1e-11,
                             scored)


def minimize_incomplete_ratio(spec: IncompleteSpec,
                              cfg: SearchConfig = SearchConfig(),
                              denominator: str = "point") -> SearchResult:
    """Minimize ||Q'||_[0,1] / D(Q) over Q = x^(n+1) R, deg R <= k - 1.

    D is selected by ``denominator``: "point" -> |Q(1)|, "variation" ->
    V_0^1(Q), "sup" -> ||Q||_[0,1].  All three dominate |Q(1)| from above or
    equal it with Q(0) = 0, so the lower bound (n)/(12k) of the
    point/variation bracket applies to each.
    """
    if denominator not in ("point", "variation", "sup"):
        raise ValueError(f"unknown denominator variant: {denominator!r}")
    m, k = spec.n, spec.k
    interval = Interval(0.0, 1.0)

    def parts(q, dq):
        if denominator == "point":
            den = np.abs(q[:, -1])                  # ys[-1] = 1
        elif denominator == "sup":
            den = np.max(np.abs(q), axis=1)
        else:
            den = np.sum(np.abs(np.diff(q, axis=1)), axis=1)
        return np.max(np.abs(dq), axis=1), den

    def certify(Q):
        if not incomplete_member(Q, spec):
            return None
        if denominator == "sup":
            return turan_ratio(Q, interval)
        num = sup_norm_derivative(Q, interval)
        if denominator == "point":
            den_v = abs(evaluate(Q, 1.0))
            den_e = 16 * np.finfo(float).eps * den_v
        else:
            d = total_variation(Q, interval)
            den_v, den_e = d.value, d.err
        if den_v <= 0:
            return None
        return _quotient(num.value, num.err, den_v, den_e)

    (cert, Q, c), evals, trace = coefficient_search(
        m, k, cfg, lambda ys: parts, certify)
    return SearchResult(
        best=Q, ratio=cert, bracket=lemma34_bracket(m + k, k), trace=trace,
        evals=evals, params=tuple(float(v) for v in c))


@dataclass(frozen=True)
class SweepRow:
    n: int
    k: int
    result: SearchResult | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass(frozen=True)
class SweepTable:
    rows: tuple
    slope: float | None
    monotone_in_n: dict
    monotone_in_k: dict


def _direction(values, tol=1e-9) -> str:
    diffs = np.diff(np.asarray(values, dtype=float))
    if diffs.size == 0:
        return "single"
    if np.all(diffs <= tol):
        return "decreasing"
    if np.all(diffs >= -tol):
        return "increasing"
    return "mixed"


def frontier_sweep(n_values, k_values, cfg: SearchConfig = SearchConfig(),
                   pin: bool = True) -> SweepTable:
    """Grid of minimize_ratio results plus scaling/monotonicity summaries.

    Reports the log-log regression slope of the estimates against
    n/(k+1) and the empirical monotonicity direction along each axis;
    failed cells are flagged and skipped by the summaries.
    """
    n_values = sorted(set(int(n) for n in n_values))
    k_values = sorted(set(int(k) for k in k_values))
    rows = []
    for n in n_values:
        for k in k_values:
            if k > n:
                continue
            seed = int(np.random.SeedSequence(entropy=(cfg.seed, n, k))
                       .generate_state(1)[0])
            try:
                res = minimize_ratio(ClassSpec(n, k, pin_interval_zero=pin),
                                     replace(cfg, seed=seed))
                rows.append(SweepRow(n, k, res, None))
            except TuranLabError as exc:
                rows.append(SweepRow(n, k, None, str(exc)))
    good = [r for r in rows if r.ok]
    slope = None
    xs = np.array([math.log(r.n / (r.k + 1.0)) for r in good])
    ys = np.array([math.log(r.result.ratio.value) for r in good
                   if r.result.ratio.value > 0])
    if len(set(np.round(xs, 12))) >= 2 and len(xs) == len(ys):
        slope = float(np.polyfit(xs, ys, 1)[0])
    mono_n = {}
    for k in k_values:
        cells = [(r.n, r.result.ratio.value) for r in good if r.k == k]
        if cells:
            mono_n[k] = _direction([v for _, v in sorted(cells)])
    mono_k = {}
    for n in n_values:
        cells = [(r.k, r.result.ratio.value) for r in good if r.n == n]
        if cells:
            mono_k[n] = _direction([v for _, v in sorted(cells)])
    return SweepTable(tuple(rows), slope, mono_n, mono_k)
