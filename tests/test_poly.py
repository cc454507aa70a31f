"""Polynomial container: evaluation, derivatives, payloads."""

import math

import numpy as np
import pytest

from turanlab import (
    Interval,
    Polynomial,
    conjugate,
    derivative_values,
    sup_norm_derivative,
    evaluate,
    evaluate_many,
    from_payload,
    from_zeros,
    to_payload,
)
from turanlab.poly import _elementary, _values


def test_interval_defaults():
    I = Interval()
    assert (I.lo, I.hi) == (-1.0, 1.0)
    assert I.length == 2.0
    with pytest.raises(ValueError):
        Interval(1.0, -1.0)


def test_from_zeros_basic():
    P = from_zeros(2.0, [1.0, -1.0])
    assert P.degree == 2
    assert evaluate(P, 0.0) == -2.0
    assert evaluate(P, 3.0) == 16.0


def test_non_finite_coefficient_or_zero_rejected():
    for lead, zeros in ((math.nan, [1.0]), (1.0, [0.5, math.inf]),
                        (1.0, [complex(0.0, math.nan)])):
        with pytest.raises(ValueError, match="finite"):
            from_zeros(lead, zeros)


def test_zero_leading_rejected():
    with pytest.raises(ValueError):
        from_zeros(0.0, [1.0])


def test_zero_polynomial_sentinel():
    # there is no zero-polynomial sentinel: each constructor refuses a zero
    # leading coefficient, with or without zeros
    msg = "leading coefficient must be nonzero"
    for zeros in ((1.0,), ()):
        with pytest.raises(ValueError, match=msg):
            Polynomial(0.0, zeros)
        with pytest.raises(ValueError, match=msg):
            from_zeros(0j, zeros)
        with pytest.raises(ValueError, match=msg):
            from_payload({"leading": [0.0, 0.0],
                          "zeros": [[z, 0.0] for z in zeros]})


def test_evaluate_many_matches_pointwise():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(11)))
    for _ in range(20):
        deg = int(rng.integers(1, 12))
        zeros = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
        P = from_zeros(complex(rng.normal(), rng.normal()), zeros)
        xs = rng.uniform(-1, 1, 37)
        vec = evaluate_many(P, xs)
        ref = np.array([evaluate(P, x) for x in xs])
        assert np.allclose(vec, ref, rtol=1e-12, atol=1e-14)


def test_evaluate_many_streaming_agrees_with_broadcast():
    # force the streaming path with a large grid and compare a slice
    P = from_zeros(1.0, [0.5, -0.5, 0.25j])
    xs = np.linspace(-1, 1, 1_000_001)
    big = evaluate_many(P, xs)
    small = evaluate_many(P, xs[::1000])
    assert np.array_equal(big[::1000], small)


def test_derivative_values_leave_one_out_at_zeros():
    # at a simple zero x0:  P'(x0) = leading * prod_{j != 0} (x0 - z_j)
    P = from_zeros(3.0, [0.5, -0.25, 0.75])
    dv = derivative_values(P, np.array([0.5]))[0]
    expected = 3.0 * (0.5 - -0.25) * (0.5 - 0.75)
    assert abs(dv - expected) < 1e-12


def test_derivative_values_match_expanded_derivative():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    for _ in range(10):
        deg = int(rng.integers(1, 9))
        zeros = rng.uniform(-1.5, 1.5, deg) + 1j * rng.uniform(0, 1.5, deg)
        P = from_zeros(1.0, zeros)
        c = np.polynomial.polynomial.polyfromroots(zeros)
        dc = np.polynomial.polynomial.polyder(c)
        xs = rng.uniform(-1, 1, 25)
        ref = np.polynomial.polynomial.polyval(xs, dc)
        got = derivative_values(P, xs)
        assert np.allclose(got, ref, rtol=1e-9, atol=1e-11)


def test_derivative_of_constant():
    C = from_zeros(4.0, [])
    assert sup_norm_derivative(C).value == 0.0


def test_conjugate_flips_zeros():
    P = from_zeros(1 + 2j, [0.5 + 0.5j])
    Q = conjugate(P)
    assert Q.leading == 1 - 2j
    assert Q.zeros == (0.5 - 0.5j,)


def test_payload_round_trip():
    P = from_zeros(1.5 - 0.25j, [1.0, -0.5 + 0.125j])
    Q = from_payload(to_payload(P))
    assert Q.leading == P.leading
    assert Q.zeros == P.zeros


def test_payload_is_lossless_for_doubles():
    leading = math.pi
    z = (1 / 3) + (2 / 7) * 1j
    P = from_zeros(leading, [z])
    Q = from_payload(to_payload(P))
    assert Q.leading == P.leading and Q.zeros[0] == z


@pytest.mark.parametrize("degree", [3, 60, 200])
def test_kernel_values_do_not_depend_on_the_batch(degree):
    # numpy reduces a lone column over the zeros in another order than the
    # columns of a batch; every point must get the same bits in a batch of
    # any size, also on a zero (index 0)
    rng = np.random.default_rng(degree)
    zeros = rng.uniform(-1.2, 1.2, degree) + 1j * rng.normal(0.0, 0.3, degree)
    zeros[0] = 0.3
    P = from_zeros(0.7 - 0.2j, zeros)
    xs = np.concatenate([[0.3], rng.uniform(-1.0, 1.0, 98)])
    for order in range(3):
        batch = _values(P, xs, order)
        for n in (1, 2, 3, 33):
            for i in range(0, xs.size - n + 1, n):
                assert np.array_equal(_values(P, xs[i:i + n], order),
                                      batch[:, i:i + n]), (order, n, i)


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (-1.0, math.inf), (-math.inf, 0.0)])
def test_interval_rejects_a_non_finite_endpoint(lo, hi):
    with pytest.raises(ValueError, match="interval endpoints must be finite"):
        Interval(lo, hi)


@pytest.mark.parametrize("obj", [{"leading": [1.0]}, {"zeros": []},
                                 {"leading": [1.0, 0.0], "zeros": [0.5]},
                                 {"leading": [1, 0], "zeros": [[0.5, 0, 7]]},
                                 {"leading": [1, 0], "zeros": [[1, 0, 0]]},
                                 {"leading": [1, 0], "zeros": {}},
                                 {"leading": [1, 0], "zeros": ""}])
def test_malformed_payload_rejected(obj):
    with pytest.raises(ValueError, match="malformed polynomial payload"):
        from_payload(obj)


def test_newton_sums_keep_the_bits_of_the_plain_formula():
    # _elementary writes k e_k = sum_j (-1)^(j-1) e_(k-j) p_j without the
    # multiplications by +-1 and the leading 0 + of Python's sum; both are
    # exact, so every E_k keeps the bits of the plain formula
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    for _ in range(50):
        inv = 10.0 ** rng.uniform(-3.0, 8.0, (int(rng.integers(1, 300)), 7))
        pw = inv * inv
        p = [np.sum(inv, axis=0), np.sum(pw, axis=0),
             np.sum(np.multiply(pw, inv, out=pw), axis=0),
             np.sum(np.multiply(pw, inv, out=pw), axis=0)]
        plain = [1.0, p[0] + 4.0 * eps * p[0]]
        for k in range(2, 5):
            e = sum((-1) ** (j - 1) * plain[k - j] * p[j - 1] for j in range(1, k + 1)) / k
            plain.append(np.maximum(e, 0.0) + 4.0 * k * eps * p[0] ** k)
        E = _elementary(inv, 4)
        for k in range(1, 5):
            assert np.array_equal(E[k], plain[k]), k
