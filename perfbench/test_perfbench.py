"""Tests of the benchmark itself: the oracles reproduce closed forms, and
every check fails on a wrong output.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import turanlab as tl  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def test_closed_form_of_turan_family():
    assert oracles.closed_form_ratio(30) == pytest.approx(4.7580469187, abs=1e-10)
    assert oracles.closed_form_ratio(1) == pytest.approx(2.0)  # x^2 - 1


@pytest.mark.parametrize("m", [1, 2, 5, 15, 30])
def test_enclosure_contains_closed_form(m):
    lo, hi = oracles.ratio_enclosure(1.0, [1.0, -1.0] * m, 64)
    exact = oracles.closed_form_ratio(m)
    assert lo <= exact <= hi
    assert hi - lo < 1e-3 * exact


@pytest.mark.parametrize("n", [7, 20])
def test_sup_bounds_enclose_chebyshev_norms(n):
    # T_n = 2^(n-1) prod (x - cos((2j-1) pi / 2n)): ||T_n|| = 1, ||T_n'|| = n^2
    zeros = np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n))
    lo0, hi0 = oracles.sup_bounds(2.0 ** (n - 1), zeros, 0, 16)
    lo1, hi1 = oracles.sup_bounds(2.0 ** (n - 1), zeros, 1, 16)
    assert lo0 <= 1.0 <= hi0 and lo1 <= n * n <= hi1
    assert lo0 > 1.0 - 1e-12 and lo1 > n * n * (1.0 - 1e-12)


def test_level_measure_of_one_zero():
    # |P'/P| = 1/|x - z|, so {|P'/P| <= c} = {|x - 0.3| >= sqrt(1/c^2 - 0.04)}
    z, c = 0.3 + 0.2j, 2.0
    r = math.sqrt(1.0 / c ** 2 - 0.04)
    exact = (0.3 - r + 1.0) + (1.0 - 0.3 - r)
    small = oracles.level_measure([z], c, True, 20_001)
    large = oracles.level_measure([z], c, False, 20_001)
    assert small[1] == 2 and large[1] == 2
    assert oracles.measure_agrees(exact, 0.0, small)
    assert oracles.measure_agrees(2.0 - exact, 0.0, large)
    assert not oracles.measure_agrees(exact + 10 * small[2] * 4, 0.0, small)


def test_phi_scan_reproduces_its_closed_forms():
    # phi = 0 gives P = (1 - x^2)^(n-1), phi = pi/2 gives (1 - x^2)^n
    n = 30
    ends = oracles._weighted_ratio(n, np.array([0.0, np.pi / 2]), np.linspace(0, 1, 400_001))
    assert ends[0] == pytest.approx(oracles.closed_form_ratio(n - 1), rel=1e-8)
    assert ends[1] == pytest.approx(oracles.closed_form_ratio(n), rel=1e-8)
    assert oracles.squared_argument_k2(n) < min(ends)


def _op(ops, prefix):
    return next(op for op in ops if op.label.startswith(prefix))


def _shrunk(cert, factor=1.0 - 1e-3):
    return replace(cert, value=cert.value * factor)


def _widened(cert):
    return replace(cert, err=2 * workloads.RATIO_RADIUS_LIMIT * cert.value)


def test_certify_checks_fail_on_wrong_outputs():
    ops = workloads.certify(tl, 0)
    member = _op(ops, "member[7]")
    v = member.call()
    assert member.check(v) is None
    assert "misses" in member.check(replace(v, ratio=_shrunk(v.ratio)))
    assert "radius" in member.check(replace(v, ratio=_widened(v.ratio)))
    assert "applies" in member.check(replace(v, brackets=()))
    d1 = _op(ops, "d1[10]")          # one the program gets right
    c = d1.call()
    assert d1.check(c) is None
    assert "misses" in d1.check(_shrunk(c, 1.0 - 1e-6))


def test_d1_fault_is_caught_and_known():
    ops = workloads.certify(tl, 0)
    d1 = _op(ops, "d1[260]")
    assert d1.known_fault == "D1" and "misses" in d1.check(d1.call())


def test_highdeg_check_fails_on_wrong_outputs():
    op = workloads.highdeg(tl, 0)[0]
    c = op.call()
    assert op.check(c) is None
    assert "misses" in op.check(_shrunk(c))
    assert "radius" in op.check(_widened(c))


def test_levelsets_checks_fail_on_wrong_outputs():
    ops = workloads.levelsets(tl, 0)
    op = _op(ops, "c10[5]")
    small, large = op.call()
    assert op.check((small, large)) is None
    moved = replace(small, measure=replace(small.measure, value=small.measure.value + 0.01))
    assert "grid" in op.check((moved, large))
    wide = replace(large, measure=replace(large.measure, err=1e-6))
    assert "radius" in op.check((small, wide))
    d2 = _op(ops, "d2[58]")
    assert d2.known_fault == "D2" and "grid" in d2.check(d2.call())


def test_search_checks_fail_on_wrong_outputs():
    ops = workloads.search(tl, 0)
    op = _op(ops, "minimize_ratio(4,0) #0")
    res = op.call()
    assert op.check(res) is None
    assert "misses" in op.check(replace(res, ratio=_shrunk(res.ratio)))
    k1 = _op(ops, "thm24_construct(30,1)")
    rep = k1.call()
    assert k1.check(rep) is None
    assert k1.check(replace(rep, ratio=_shrunk(rep.ratio, 1.0 - 1e-7))) is not None


def test_output_that_changes_between_rounds_counts_as_failed():
    op = workloads.Op("x", lambda: None, lambda out: None, lambda out: (out,))
    attempted, failed, problems = run.check([op], [[(1.0, None), (1.0, None), (2.0, None)]])
    assert (attempted, failed) == (3, 1)
    assert problems[0][1] == "output changed between rounds"


def test_tracer_wraps_every_binding_and_restores_them():
    original = tl.poly.evaluate_many
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = tl.supnorm.evaluate_many
        assert wrapped is not original
        assert tl.poly.evaluate_many is wrapped and tl.evaluate_many is wrapped
        P = tl.sample(tl.ClassSpec(10, 0), seed=3)
        tl.turan_ratio(P)
    finally:
        tracer.uninstall()
    assert tl.supnorm.evaluate_many is original
    st = tracer.stats
    assert st["bounds.turan_ratio"]["calls"] == 1
    assert st["supnorm.sup_norm.cp"]["calls"] == 2
    assert st["supnorm.sup_norm.cp"]["points"] > 0
    for s in st.values():
        assert 0.0 <= s["self_s"] <= s["total_s"] + 1e-9


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
