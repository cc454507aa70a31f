"""Property tests of the certified ratio and the verdicts on class members.

The examples are derived from the test names (derandomize=True) and no
example database is kept, so every run draws the same inputs.
"""

import cmath
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from turanlab import (
    ClassSpec,
    Interval,
    evaluate_verdict,
    from_zeros,
    sample,
    turan_ratio,
)

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=25)

coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
zero_lists = st.lists(st.builds(complex, coord, coord), min_size=1, max_size=8)
# |c| from 1e-300 to 1e300, at any angle
leadings = st.builds(lambda e, t: 10.0 ** e * cmath.exp(1j * t),
                     st.floats(-300.0, 300.0), st.floats(0.0, 2.0 * math.pi))


@FIXED
@given(zero_lists, leadings)
def test_ratio_does_not_depend_on_the_leading_coefficient(zeros, c):
    assert turan_ratio(from_zeros(c, zeros)) == turan_ratio(from_zeros(1.0, zeros))


@FIXED
@given(zero_lists)
def test_ratio_is_symmetric_under_reflection(zeros):
    # |P(-x)| is the modulus of the polynomial with zeros -conj(z_i) at x,
    # so both ratios on [-1, 1] are one number
    a = turan_ratio(from_zeros(1.0, zeros))
    b = turan_ratio(from_zeros(1.0, [-z.conjugate() for z in zeros]))
    assert abs(a.value - b.value) <= a.err + b.err


@FIXED
@given(zero_lists, st.floats(-5.0, 5.0), st.floats(0.01, 10.0))
def test_ratio_transports_from_the_unit_interval(zeros, lo, width):
    # x = lo + (t + 1) width / 2 maps [-1, 1] onto [lo, lo + width], and each
    # derivative gains the factor 2 / width
    I = Interval(lo, lo + width)
    scale = 2.0 / I.length
    mid = 0.5 * (I.lo + I.hi)
    on_I = turan_ratio(from_zeros(1.0, zeros), I)
    unit = turan_ratio(from_zeros(1.0, [(z - mid) * scale for z in zeros]))
    gap = abs(on_I.value - scale * unit.value)
    assert gap <= on_I.err + scale * unit.err + 1e-9 * on_I.value


@FIXED
@given(st.integers(1, 12), st.data())
def test_sampled_members_pass_every_bound(n, data):
    k = data.draw(st.integers(0, n))
    spec = ClassSpec(n, k, data.draw(st.booleans()))
    verdict = evaluate_verdict(sample(spec, seed=data.draw(st.integers(0, 2**32 - 1))), spec)
    assert all(verdict.passes), verdict
