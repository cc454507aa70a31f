"""The four workloads: their inputs, operations and output checks.

A workload is one fixed list of operations (a round).  Inputs that depend
on ``--seed`` never fail; the D1 and D2 inputs, on which the program is known
to be wrong, come from fixed generator seeds so that every round fails the
same operations.  Each check returns None when the output is right and a
one-line reason otherwise; checks run after timing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles

REFS = Path(__file__).resolve().parent / "refs"

# Widest error radius an operation may state and still count as correct:
# relative for certified ratios, absolute for measures on [-1, 1].
RATIO_RADIUS_LIMIT = 1e-9
MEASURE_RADIUS_LIMIT = 1e-9

# Chebyshev extrema per degree of |P|^2 for the per-run enclosures; the
# enclosure width is about (pi / (2 * per_degree))^2 / 2 relative.
MEMBER_PER_DEGREE = 128
HIGHDEG_PER_DEGREE = 32
SEARCH_PER_DEGREE = 128
# Grid points of the per-run level-set references.
LEVEL_POINTS = 100_001


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    fingerprint: Callable[[Any], tuple]
    known_fault: str | None = None   # "D1" / "D2": fixed input the program gets wrong


def _key(seed: int, *tags) -> int:
    return int(np.random.SeedSequence(entropy=(seed, *tags)).generate_state(1, np.uint64)[0])


def d1_zeros(i: int) -> np.ndarray:
    """ROADMAP D1: near-real zero clusters, degree 20-60."""
    rng = np.random.default_rng(i)
    d = int(rng.integers(20, 61))
    c = rng.choice([1e-6, 1e-3, 0.05, 0.5], size=d)
    return rng.uniform(-1.2, 1.2, d) + 1j * c * rng.normal(0.0, 1.0, d)


def d2_input(i: int) -> tuple:
    """ROADMAP D2: half-disk zeros clustered towards the positive real axis,
    degree 15-30, with delta = 0.05 * 2^(i % 5)."""
    rng = np.random.default_rng(1000 + i)
    d = int(rng.integers(15, 31))
    c = rng.choice([1e-4, 1e-2, 1.0], size=d)
    theta = rng.uniform(0.0, np.pi, d) * c
    zeros = np.sqrt(rng.uniform(0.0, 1.0, d)) * np.exp(1j * theta)
    return zeros, 0.05 * 2.0 ** (i % 5)


D1_INDICES = tuple(range(0, 300, 5))
D2_INDICES = tuple(range(60))


def fingerprint_zeros(zeros) -> list:
    z = np.asarray(zeros, dtype=complex)
    return [len(z), float(np.sum(z.real)), float(np.sum(z.imag))]


def load_refs(name: str) -> dict:
    with open(REFS / f"{name}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- checks

def _ratio_problem(cert, enclosure) -> str | None:
    if not (np.isfinite(cert.value) and np.isfinite(cert.err)):
        return "non-finite ratio"
    if cert.err > RATIO_RADIUS_LIMIT * abs(cert.value):
        return f"radius {cert.err / abs(cert.value):.1e} relative exceeds the limit"
    if not oracles.encloses(enclosure, cert.value, cert.err):
        lo, hi = enclosure
        return (f"ratio {cert.value:.12g} +- {cert.err:.1e} misses the "
                f"reference [{lo:.12g}, {hi:.12g}]")
    return None


def _measure_problem(measure, ref) -> str | None:
    if measure.err > MEASURE_RADIUS_LIMIT:
        return f"measure radius {measure.err:.1e} exceeds the limit"
    if not oracles.measure_agrees(measure.value, measure.err, ref):
        return (f"measure {measure.value:.6g} +- {measure.err:.1e} vs grid "
                f"{ref[0]:.6g} ({ref[1]} boundaries)")
    return None


def _bounds_problem(cert, zeros, n, k, pin) -> str | None:
    """The paper's lower bounds are theorems: every member clears them."""
    for name, lower in oracles.lower_bounds(zeros, n, k, pin).items():
        if cert.value + cert.err < lower:
            return f"ratio {cert.value:.6g} below the {name} bound {lower:.6g}"
    return None


def _cert_fp(cert) -> tuple:
    return (cert.value, cert.err, cert.method)


# ------------------------------------------------------------- workloads

def certify(tl, seed: int) -> list:
    ops = []
    members = []
    kinds = ((0, False), (0, True), (1, True), (4, False), (4, True), (2, True))
    for j in range(60):
        d = 10 + (50 * j) // 59
        kk, pin = kinds[j % 6]
        k = {0: 0, 1: 1, 4: d // 4, 2: d // 2}[kk]
        spec = tl.ClassSpec(d, k, pin)
        members.append((j, tl.sample(spec, seed=_key(seed, 1, j)), spec))
    for j, P, spec in members:
        ops.append(Op(f"member[{j}] d={P.degree} k={spec.k} pin={spec.pin_interval_zero}",
                      lambda P=P, spec=spec: tl.evaluate_verdict(P, spec),
                      lambda v, P=P, spec=spec: _verdict_problem(v, P, spec),
                      _verdict_fp))
    refs = load_refs("d1")
    for i in D1_INDICES:
        zeros = d1_zeros(i)
        ref = refs[str(i)]
        if ref["input"] != fingerprint_zeros(zeros):
            raise RuntimeError(f"refs/d1.json does not match D1 input {i}; "
                               "regenerate it with perfbench/refs.py")
        P = tl.from_zeros(1.0, zeros)
        ops.append(Op(f"d1[{i}] d={P.degree}", lambda P=P: tl.turan_ratio(P),
                      lambda c, enc=tuple(ref["enclosure"]): _ratio_problem(c, enc),
                      _cert_fp, known_fault="D1"))
    # interleave so a short run still sees both halves
    half = len(members)
    return [op for pair in zip(ops[:half], ops[half:]) for op in pair]


def _verdict_problem(v, P, spec) -> str | None:
    enc = oracles.ratio_enclosure(P.leading, P.zeros, MEMBER_PER_DEGREE)
    problem = _ratio_problem(v.ratio, enc)
    if problem:
        return problem
    expected = oracles.lower_bounds(P.zeros, spec.n, spec.k, spec.pin_interval_zero)
    got = {b.source: b.lower for b in v.brackets}
    if set(got) != set(expected):
        return f"verdict applies {sorted(got)}, expected {sorted(expected)}"
    for name, lower in expected.items():
        if not math.isclose(got[name], lower, rel_tol=1e-12):
            return f"{name} bound {got[name]} differs from {lower}"
    if not all(v.passes):
        return f"verdict fails a theorem: {v.passes}"
    return _bounds_problem(v.ratio, P.zeros, spec.n, spec.k, spec.pin_interval_zero)


def _verdict_fp(v) -> tuple:
    return _cert_fp(v.ratio) + (v.passes, tuple((b.source, b.lower) for b in v.brackets))


def highdeg(tl, seed: int) -> list:
    ops = []
    for j in range(40):
        # degrees 80-200, denser at the low end to keep a round near 7 s
        d = 80 + round(120 * (j / 39) ** 2)
        k = (0, d // 6, d // 3, d // 2)[j % 4]
        zeros, norm = _endpoint_peaked(tl, tl.ClassSpec(d, k, True), seed, j)
        # scaled to sup norm ~1, which leaves the ratio unchanged: the grid
        # backend's absolute default tol makes the radius vacuous once ||P||
        # falls below it (see CHANGES.md)
        P = tl.from_zeros(1.0 / norm, zeros)

        def check(c, P=P, k=k):
            enc = oracles.ratio_enclosure(P.leading, P.zeros, HIGHDEG_PER_DEGREE)
            return _ratio_problem(c, enc) or _bounds_problem(c, P.zeros, P.degree, k, True)

        ops.append(Op(f"member[{j}] d={d} k={k}", lambda P=P: tl.turan_ratio(P),
                      check, _cert_fp))
    return ops


def _endpoint_peaked(tl, spec, seed: int, j: int) -> tuple:
    """(zeros, approximate ||P||) of the first sample whose |P| and |P'| peak
    at -1 or 1.  At an interior peak the grid backend's live intervals grow
    like tol^(-1/2) and run out of memory (see CHANGES.md), so such members
    are drawn again with the next key."""
    m = 8 * spec.n
    xs = np.cos(np.pi * np.arange(m + 1) / m)
    for attempt in range(100):
        zeros = tl.sample(spec, seed=_key(seed, 2, j, attempt)).zeros
        v = np.abs(oracles.values(1.0, zeros, xs))
        dv = np.abs(oracles.derivative_values(1.0, zeros, xs))
        if np.argmax(v) in (0, m) and np.argmax(dv) in (0, m):
            return zeros, float(np.max(v))
    raise RuntimeError(f"no endpoint-peaked member for {spec} after 100 draws")


# Criterion 10 draws deg Q up to 30; from 20 up the small measure comes out
# wrong for some seeds (see CHANGES.md), so seeded inputs stop at 16 and
# the fault shows on the fixed D2 inputs only.
C10_MAX_DEGREE = 16
C10_INPUTS = 39


def levelsets(tl, seed: int) -> list:
    ops = []
    for j in range(C10_INPUTS):
        m = 4 + j % (C10_MAX_DEGREE - 3)
        k = 1 + (3 * j) % 10
        Q = tl.sample(tl.ClassSpec(m, 0), seed=_key(seed, 3, j))
        rng = np.random.Generator(np.random.Philox(key=_key(seed, 4, j)))
        R = tl.from_zeros(1.0, rng.uniform(-2, 2, k) + 1j * rng.uniform(-2, 2, k))
        delta = math.sqrt(2.0 * k / m)
        alpha = k / delta
        ops.append(Op(f"c10[{j}] m={m} k={k}",
                      lambda Q=Q, R=R, delta=delta, alpha=alpha: (
                          tl.small_logderiv_measure(Q, delta),
                          tl.large_logderiv_measure(R, alpha)),
                      lambda out, Q=Q, R=R, delta=delta, alpha=alpha:
                          _c10_problem(out, Q, R, delta, alpha),
                      lambda out: tuple(_cert_fp(r.measure) for r in out)))
    refs = load_refs("d2")
    for i in D2_INDICES:
        zeros, delta = d2_input(i)
        ref = refs[str(i)]
        if ref["input"] != fingerprint_zeros(zeros) + [delta]:
            raise RuntimeError(f"refs/d2.json does not match D2 input {i}; "
                               "regenerate it with perfbench/refs.py")
        Q = tl.from_zeros(1.0, zeros)
        ops.append(Op(f"d2[{i}] d={Q.degree} delta={delta}",
                      lambda Q=Q, delta=delta: tl.small_logderiv_measure(Q, delta),
                      lambda r, ref=tuple(ref["grid"]): _measure_problem(r.measure, ref),
                      lambda r: _cert_fp(r.measure), known_fault="D2"))
    half = C10_INPUTS
    mixed = [op for pair in zip(ops[:half], ops[half:2 * half]) for op in pair]
    return mixed + ops[2 * half:]


def _c10_problem(out, Q, R, delta, alpha) -> str | None:
    small, large = out
    m, k = Q.degree, R.degree
    problem = (_measure_problem(small.measure,
                                oracles.level_measure(Q.zeros, m * delta, True, LEVEL_POINTS))
               or _measure_problem(large.measure,
                                   oracles.level_measure(R.zeros, alpha, False, LEVEL_POINTS)))
    if problem:
        return problem
    # Lemmas 3.1/3.2 machinery: outside E u F, |P'/P| >= sqrt((n-k) k / 2)
    xs = np.linspace(-1.0, 1.0, 2001)
    keep = np.ones(xs.shape, dtype=bool)
    for iv in tuple(small.intervals) + tuple(large.intervals):
        keep &= ~((xs >= iv.lo - 1e-9) & (xs <= iv.hi + 1e-9))
    if np.any(keep):
        vals = oracles.logderiv_abs(np.concatenate([Q.zeros, R.zeros]), xs[keep])
        threshold = math.sqrt(m * k / 2.0)
        if np.min(vals) < threshold * (1.0 - 1e-6):
            return f"|P'/P| = {np.min(vals):.6g} < {threshold:.6g} outside E u F"
    return None


SEARCH_CLASSES = ((4, 0), (4, 2), (5, 1), (6, 0), (6, 2), (7, 1))
SEARCH_SEEDS = 6
THM24_CASES = ((30, 1), (30, 2), (24, 2), (20, 3))


def search(tl, seed: int) -> list:
    ops = []
    for s in range(SEARCH_SEEDS):
        cfg = tl.SearchConfig(budget=300, restarts=3, seed=_key(seed, 5, s) % 2 ** 32)
        for n, k in SEARCH_CLASSES:
            spec = tl.ClassSpec(n, k, True)
            ops.append(Op(f"minimize_ratio({n},{k}) #{s}",
                          lambda spec=spec, cfg=cfg: tl.minimize_ratio(spec, cfg),
                          lambda res, n=n, k=k: _search_problem(res, n, k),
                          lambda res: _cert_fp(res.ratio) + (res.evals,)))
    tcfg = tl.SearchConfig(budget=4000, restarts=4, seed=_key(seed, 6) % 2 ** 32)
    for i, (n, k) in enumerate(THM24_CASES):
        ops.insert(10 * i + 5, Op(f"thm24_construct({n},{k})",
                                  lambda n=n, k=k: tl.thm24_construct(n, k, tcfg),
                                  lambda rep, n=n, k=k: _thm24_problem(rep, n, k),
                                  lambda rep: _cert_fp(rep.ratio)))
    return ops


def _search_problem(res, n, k) -> str | None:
    P = res.best
    if not oracles.member(P.zeros, n, k, True):
        return "search result is not a class member"
    if res.evals < 1:
        return "no objective evaluations"
    enc = oracles.ratio_enclosure(P.leading, P.zeros, SEARCH_PER_DEGREE)
    problem = _ratio_problem(res.ratio, enc) or _bounds_problem(res.ratio, P.zeros, n, k, True)
    if problem:
        return problem
    if (n - k) % 2 == 0:
        # (x^2 - 1)^((n-k)/2) is a member, so the class minimum is at most its ratio
        cap = oracles.closed_form_ratio((n - k) // 2)
        if res.ratio.value - res.ratio.err > cap * (1.0 + 1e-12):
            return f"search ratio {res.ratio.value:.12g} above (x^2-1)^m's {cap:.12g}"
    return None


def _thm24_problem(rep, n, k) -> str | None:
    P = rep.P
    if not oracles.member(P.zeros, 2 * n, 2 * k, True):
        return "construction is not a member of class (2n, 2k)"
    z = np.asarray(P.zeros)
    for end in (1.0, -1.0):
        if np.count_nonzero(np.abs(z - end) <= 1e-9) < n - k + 1:
            return f"P lacks the factor (x {'-' if end > 0 else '+'} 1)^{n - k + 1}"
    enc = oracles.ratio_enclosure(P.leading, P.zeros, SEARCH_PER_DEGREE)
    problem = _ratio_problem(rep.ratio, enc) or _bounds_problem(rep.ratio, P.zeros, 2 * n, 2 * k, True)
    if problem:
        return problem
    if k == 1:
        exact = oracles.closed_form_ratio(n)
        if abs(rep.ratio.value - exact) > rep.ratio.err + 1e-9 * exact:
            return f"k = 1 ratio {rep.ratio.value:.12g} differs from (1-x^2)^n's {exact:.12g}"
    if k == 2:
        scan = oracles.squared_argument_k2(n)
        if abs(rep.ratio.value - scan) > 1e-6 * scan:
            return f"k = 2 ratio {rep.ratio.value:.12g} differs from the phi scan {scan:.12g}"
    return None


WORKLOADS = {"certify": certify, "highdeg": highdeg, "levelsets": levelsets,
             "search": search}
