"""Derivative-free minimization of the sup-norm derivative ratio.

The optimizer is restarted Nelder-Mead on the clamped/tanh parametrization
from :mod:`turanlab.classes`.  During descent the objective is a fast
non-certified Chebyshev-grid estimate of ||P'||/||P||; every restart's final
point (and a small set of structured warm candidates: interval-zero
families like x - 1 and products of (x^2 - 1)) is then re-scored with the
certified ratio, and the best certified value wins.  Because the lower
bounds are theorems, any feasible point must sit above them; the search
value is only ever an upper estimate of the true infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize as _nm_minimize

from .bounds import (
    BoundBracket,
    _quotient,
    bracket_pass,
    lemma34_bracket,
    thm21_bracket,
    turan_ratio,
)
from .classes import (
    ClassSpec,
    IncompleteSpec,
    _zeros_from_params,
    embed,
    incomplete_member,
    is_member,
)
from .errors import SearchFailure, TuranLabError
from .poly import Interval, Polynomial, evaluate, from_zeros
from .supnorm import (
    CertifiedValue,
    _cheb_grid,
    _sup_abs,
    total_variation,
)

# Nelder-Mead: initial simplex x0 + _SIMPLEX_SCALE * e_i, and the spread of
# simplex values at which a descent stops.
_SIMPLEX_SCALE = 0.3
_FATOL = 1e-10


@dataclass(frozen=True)
class SearchConfig:
    budget: int = 20_000      # objective evaluations per restart
    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1 or self.restarts < 1:
            raise ValueError("budget and restarts must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    best: Polynomial
    ratio: CertifiedValue
    bracket: BoundBracket
    trace: tuple
    within_bracket: bool
    evals: int
    restarts_used: int
    params: tuple | None
    warm_best: float | None = None


def _fast_ratio(leading: complex, zeros: np.ndarray, xs: np.ndarray) -> float:
    """Grid estimate of ||P'||/||P|| from the factored form."""
    diffs = xs[None, :] - zeros[:, None]
    vals = leading * np.prod(diffs, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dvals = vals * np.sum(1.0 / diffs, axis=0)
    den = float(np.max(np.abs(vals)))
    bad = ~np.isfinite(dvals)
    if np.any(bad):
        dvals = dvals[~bad]  # grid points hitting a zero exactly; neighbors cover them
    num = float(np.max(np.abs(dvals))) if dvals.size else 0.0
    if den <= 0.0 or not np.isfinite(den):
        return 1e18
    return num / den


def _turan_family_zeros(d: int) -> list:
    zeros = [1.0, -1.0] * (d // 2)
    if d % 2:
        zeros.append(-1.0)
    return [complex(z) for z in zeros]


def _warm_candidates(spec: ClassSpec) -> list:
    """Structured members worth scoring directly (may beat the optimizer,
    e.g. low-degree witnesses the full-degree parametrization cannot reach)."""
    cands = []
    degrees = {spec.n, max(spec.n - spec.k, 1)}
    for d in degrees:
        cands.append(from_zeros(1.0, _turan_family_zeros(d)))
        # endpoint multiplicity splits (x-1)^a (x+1)^(d-a)
        for a in range(d + 1):
            cands.append(from_zeros(1.0, [1.0] * a + [-1.0] * (d - a)))
    if spec.n - spec.k <= 1:
        cands.append(from_zeros(1.0, [1.0]))
        cands.append(from_zeros(1.0, [-1.0]))
    seen = set()
    out = []
    for P in cands:
        key = tuple(sorted((z.real, z.imag) for z in P.zeros))
        if key not in seen and is_member(P, spec):
            seen.add(key)
            out.append(P)
    return out


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
                p[2 * i] = math.atanh(min(max(sign / 3.0, -0.999), 0.999))
                p[2 * i + 1] = 0.0
        starts.append(p)
    return starts


def minimize_ratio(spec: ClassSpec, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Estimate the infimum of ||P'||/||P|| over the class via restarts."""
    if spec.n == 0:
        raise SearchFailure("class of constants has no meaningful ratio")
    interval = Interval()
    xs = _cheb_grid(interval.lo, interval.hi, max(64, 16 * spec.n))

    trace = []
    evals = 0
    best_est = math.inf
    best = None  # (value, param_norm, polynomial, params, certified)

    def consider(P, cert, params):
        nonlocal best, best_est
        pnorm = float(np.linalg.norm(params)) if params is not None else math.inf
        key = (cert.value, pnorm)
        if best is None or key < (best[0], best[1]):
            best = (cert.value, pnorm, P, params, cert)
        if cert.value < best_est:
            best_est = cert.value
            trace.append((evals, cert.value))

    warm_vals = []
    for P in _warm_candidates(spec):
        evals += 1
        cert = turan_ratio(P, interval)
        warm_vals.append(cert.value)
        consider(P, cert, None)

    rng = np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed)))
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

    def objective(p):
        nonlocal evals, best_est
        evals += 1
        v = _fast_ratio(1.0, _zeros_from_params(p, spec), xs)
        if v < best_est:
            best_est = v
            trace.append((evals, v))
        return v

    for x in restart_descents(objective, starts, cfg.budget, xatol=1e-10):
        P = embed(x, spec)
        consider(P, turan_ratio(P, interval), np.asarray(x))

    if best is None:
        raise SearchFailure("no feasible evaluation within budget")
    _, _, P, params, cert = best
    rep = is_member(P, spec)
    if not rep:
        raise SearchFailure(f"optimizer result failed membership: {rep.detail}")
    bracket = thm21_bracket(spec.n, spec.k)
    warm_best = min(warm_vals, default=None)
    return SearchResult(
        best=P, ratio=cert, bracket=bracket, trace=tuple(trace),
        within_bracket=bracket_pass(cert, bracket), evals=evals,
        restarts_used=cfg.restarts,
        params=None if params is None else tuple(float(v) for v in params),
        warm_best=warm_best)


def incomplete_from_coeffs(c, m: int) -> Polynomial | None:
    """Factored x^(m+1) * sum_j c[j] x^j, with trailing coefficients below
    1e-13 of the largest dropped; None for the zero vector."""
    c = np.asarray(c, dtype=float)
    nz = np.flatnonzero(np.abs(c) > 1e-13 * np.max(np.abs(c)))
    if nz.size == 0:
        return None
    c = c[: nz[-1] + 1]
    roots = (np.polynomial.polynomial.polyroots(c)
             if c.size > 1 else np.zeros(0))
    return from_zeros(c[-1], tuple(np.zeros(m + 1)) + tuple(roots))


def _normal_starts(dim: int, cfg: SearchConfig) -> list:
    """cfg.restarts start points in R^dim: e_1, then standard normal draws
    from the Philox stream keyed by cfg.seed."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed)))
    starts = [np.eye(dim)[0]]
    while len(starts) < cfg.restarts:
        starts.append(rng.normal(0.0, 1.0, dim))
    return starts


def restart_descents(objective, starts, budget: int, xatol: float):
    """Yield the end point of a Nelder-Mead descent of ``objective`` from
    each start point, each with ``budget`` evaluations."""
    for x0 in starts:
        sim = np.vstack([x0] + [x0 + _SIMPLEX_SCALE * e
                                for e in np.eye(x0.size)])
        res = _nm_minimize(objective, x0, method="Nelder-Mead",
                           options={"maxfev": budget, "xatol": xatol,
                                    "fatol": _FATOL, "initial_simplex": sim})
        yield res.x


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
    xs = np.linspace(0.0, 1.0, max(129, 16 * (m + k) + 1))

    def q_coeffs(c):
        full = np.zeros(m + 1 + len(c))
        full[m + 1:] = c
        return full

    def fast_obj(c):
        nonlocal evals
        evals += 1
        scale = float(np.max(np.abs(c)))
        if scale <= 0:
            return 1e18
        full = q_coeffs(c)
        qv = np.polynomial.polynomial.polyval(xs, full)
        dqv = np.polynomial.polynomial.polyval(
            xs, np.polynomial.polynomial.polyder(full))
        num = float(np.max(np.abs(dqv)))
        if denominator == "point":
            den = abs(float(np.sum(c)))
        elif denominator == "sup":
            den = float(np.max(np.abs(qv)))
        else:
            den = float(np.sum(np.abs(np.diff(qv))))
        if den <= 1e-14 * scale * len(xs):
            return 1e18
        return num / den

    trace = []
    evals = 0
    best = None  # (certified value, coeff tuple, Polynomial, CertifiedValue)
    best_est = math.inf

    def certify(c):
        nonlocal best, best_est
        Q = incomplete_from_coeffs(c, m)
        if Q is None or not incomplete_member(Q, spec):
            return
        interval = Interval(0.0, 1.0)
        if denominator == "sup":
            cert = turan_ratio(Q, interval)
        else:
            num_v, num_e, _ = _sup_abs(Q, interval, (1,))[0]
            if denominator == "point":
                den_v = abs(evaluate(Q, 1.0))
                den_e = 16 * np.finfo(float).eps * den_v
            else:
                d = total_variation(Q, interval)
                den_v, den_e = d.value, d.err
            if den_v <= 0:
                return
            cert = _quotient(num_v, num_e, den_v, den_e)
        key = (cert.value, float(np.linalg.norm(c)))
        if best is None or key < best[0]:
            best = (key, tuple(float(v) for v in c), Q, cert)
        if cert.value < best_est:
            best_est = cert.value
            trace.append((evals, cert.value))

    for c in restart_descents(fast_obj, _normal_starts(k, cfg), cfg.budget,
                              xatol=1e-11):
        certify(c)

    if best is None:
        raise SearchFailure("no feasible evaluation within budget")
    _, coeffs, Q, cert = best
    bracket = lemma34_bracket(m + k, k)
    return SearchResult(
        best=Q, ratio=cert, bracket=bracket, trace=tuple(trace),
        within_bracket=bracket_pass(cert, bracket), evals=evals,
        restarts_used=cfg.restarts, params=coeffs, warm_best=None)


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
