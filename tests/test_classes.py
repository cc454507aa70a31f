"""Membership predicates, random sampling, and the search embedding."""

import numpy as np
import pytest

from turanlab import (
    ClassSpec,
    IncompleteSpec,
    MembershipError,
    embed,
    from_zeros,
    in_upper_half_disk,
    incomplete_member,
    is_member,
    sample,
)
from turanlab.classes import _draw_params, _params_from_zeros, _rng, _zeros_from_params


def test_spec_validation():
    with pytest.raises(ValueError):
        ClassSpec(3, 4)
    with pytest.raises(ValueError):
        ClassSpec(-1, 0)
    ClassSpec(0, 0)  # constants are a legal (if dull) class


def test_in_upper_half_disk():
    assert in_upper_half_disk(0.5 + 0.5j)
    assert in_upper_half_disk(1.0)
    assert in_upper_half_disk(-1.0)
    assert not in_upper_half_disk(0.5 - 0.5j)
    assert not in_upper_half_disk(1.5)
    # tolerance admits boundary roundoff
    assert in_upper_half_disk(1.0 + 1e-12)


def test_is_member_counts_constrained_zeros():
    spec = ClassSpec(3, 1)
    P = from_zeros(1.0, [0.5, 0.5j, 5.0])     # two in the half-disk, one free
    rep = is_member(P, spec)
    assert rep.ok
    assert len(rep.constrained_indices) >= 2

    bad = from_zeros(1.0, [5.0, -5.0, 3.0])   # nothing confined
    assert not is_member(bad, spec)


def test_is_member_degree_cap():
    spec = ClassSpec(2, 0)
    P = from_zeros(1.0, [0.1, 0.2, 0.3])
    assert not is_member(P, spec)


def test_is_member_pin():
    spec = ClassSpec(2, 0, pin_interval_zero=True)
    ok = from_zeros(1.0, [0.5, 0.5j])
    rep = is_member(ok, spec)
    assert rep.ok and rep.pinned_index is not None

    unpinned = from_zeros(1.0, [0.5j, 0.7j])
    assert not is_member(unpinned, spec)


def test_is_member_rejects_lower_half_conjugates():
    # conjugate-pair zeros are NOT both admissible: D+ is a half disk
    spec = ClassSpec(2, 0)
    P = from_zeros(1.0, [0.5 + 0.5j, 0.5 - 0.5j])
    assert not is_member(P, spec)


def test_sample_membership_sweep():
    for n in (1, 2, 5, 11, 30):
        for k in (0, 1, n // 2, n):
            for pin in (False, True):
                spec = ClassSpec(n, k, pin_interval_zero=pin)
                P = sample(spec, seed=1000 + n * 31 + k)
                assert is_member(P, spec), (n, k, pin)


def test_sample_deterministic():
    spec = ClassSpec(7, 2, pin_interval_zero=True)
    a = sample(spec, seed=4)
    b = sample(spec, seed=4)
    assert a.zeros == b.zeros and a.leading == b.leading
    c = sample(spec, seed=5)
    assert c.zeros != a.zeros


def test_sample_seed_must_be_an_integer_in_uint64_range():
    spec = ClassSpec(3, 1)
    for seed in (-1, 2 ** 64, 1.5, "7", None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample(spec, seed=seed)
    # numpy integers pass and key the generator as the same Python int does
    for seed in (7, 2 ** 64 - 1):
        assert sample(spec, seed=np.uint64(seed)) == sample(spec, seed=seed)
    assert sample(spec, seed=np.int32(7)) == sample(spec, seed=7)


def test_sample_n0_pin_impossible():
    with pytest.raises(MembershipError):
        sample(ClassSpec(0, 0, pin_interval_zero=True), seed=0)


def test_embed_produces_members():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    for n, k, pin in [(1, 0, True), (4, 2, False), (6, 6, True), (9, 3, True)]:
        spec = ClassSpec(n, k, pin_interval_zero=pin)
        for _ in range(20):
            params = rng.normal(0.0, 2.0, 2 * n)
            P = embed(params, spec)
            assert is_member(P, spec), (n, k, pin, params)


def test_embed_clamps_constrained_radius():
    spec = ClassSpec(1, 0)
    P = embed([7.0, 0.0], spec)       # radius clamped to 1
    assert abs(P.zeros[0]) <= 1.0 + 1e-12


@pytest.mark.parametrize("n, k, pin", [(6, 0, True), (6, 2, True), (5, 5, True),
                                       (5, 1, False)])
def test_params_from_zeros_inverts_the_map(n, k, pin):
    # (5, 5) pinned puts the pin in a free slot.  On the alternating members
    # the parameters come back bit for bit; the zeros within 4 eps, as a
    # polar -1 maps to -1 + sin(pi) i, sin(pi) = 1.2e-16
    spec = ClassSpec(n, k, pin_interval_zero=pin)
    eps = np.finfo(float).eps
    turan = (-1.0) ** np.arange(n)
    rng = _rng(5)
    reached = [_zeros_from_params(_draw_params(spec, rng), spec) for _ in range(200)]
    for i, z in enumerate([turan, -turan] + reached):
        p = _params_from_zeros(z, spec)
        assert p.shape == (2 * n,)
        back = _zeros_from_params(p, spec)
        assert np.max(np.abs(back - z)) <= 4 * eps, (z, back)
        if i < 2:
            assert np.array_equal(_params_from_zeros(back, spec), p)


def test_embed_wrong_length():
    with pytest.raises(ValueError):
        embed([0.0], ClassSpec(2, 0))


def test_incomplete_member():
    spec = IncompleteSpec(2, 1)       # x^3 * R, degree <= 3
    Q = from_zeros(1.0, [0.0, 0.0, 0.0])
    assert incomplete_member(Q, spec)
    assert not incomplete_member(from_zeros(1.0, [0.0, 0.0, 1.0]), spec)
    over = from_zeros(1.0, [0.0, 0.0, 0.0, 0.5, 0.6])
    assert not incomplete_member(over, spec)


def test_incomplete_spec_validation():
    with pytest.raises(ValueError):
        IncompleteSpec(0, 1)
    with pytest.raises(ValueError):
        IncompleteSpec(3, 0)
