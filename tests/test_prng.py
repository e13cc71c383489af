"""Key derivation and draw-distribution checks for the counter-based PRNG."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manychain.prng import RandomKey, children, key_from_seed, normal, randint, split, uniform

U64 = st.integers(min_value=0, max_value=2**64 - 1)


def _as_tuple(k):
    return (k.hi, k.lo)


def test_same_key_same_bits():
    key = key_from_seed(7)
    a = uniform(key, 100)
    b = uniform(key, 100)
    assert a.dtype == np.float64
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(normal(key, 100), normal(key, 100))
    np.testing.assert_array_equal(randint(key, 0, 10, 100), randint(key, 0, 10, 100))


def test_split_is_deterministic():
    key = key_from_seed(123)
    first = [_as_tuple(k) for k in split(key, 8)]
    second = [_as_tuple(k) for k in split(key, 8)]
    assert first == second


def test_split_children_distinct_three_levels():
    # 64^3 leaves; any collision in the full set would show up here.
    root = key_from_seed(0)
    leaves = set()
    for a in split(root, 64):
        for b in split(a, 64):
            leaves.update(_as_tuple(c) for c in split(b, 64))
    assert len(leaves) == 64**3
    assert _as_tuple(root) not in leaves


def test_children_are_split_walked_on():
    """A key's children go on past any split: split(key, n) is their first n,
    and a thousand of them are distinct from each other and from the key."""
    key = key_from_seed(5)
    walked = list(islice(children(key), 1000))
    assert walked[:130] == split(key, 130)
    assert len({_as_tuple(c) for c in walked} | {_as_tuple(key)}) == 1001


def test_seeds_map_to_distinct_keys():
    keys = {_as_tuple(key_from_seed(s)) for s in range(1000)}
    assert len(keys) == 1000


@given(U64, U64)
@settings(max_examples=50, deadline=None)
def test_split_differs_from_parent_and_siblings(hi, lo):
    key = RandomKey(hi, lo)
    kids = split(key, 4)
    tags = {_as_tuple(k) for k in kids}
    assert len(tags) == 4
    assert _as_tuple(key) not in tags


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_draws_are_pure_in_the_seed(seed):
    k1 = key_from_seed(seed)
    k2 = key_from_seed(seed)
    assert _as_tuple(k1) == _as_tuple(k2)
    assert uniform(k1) == uniform(k2)


def test_uniform_moments():
    # n = 1e6: the mean band is ~7 sigma wide, tight enough to catch a
    # scaling bug without flaking.
    u = uniform(key_from_seed(11), 1_000_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert 0.498 < u.mean() < 0.502


def test_uniform_lag1_autocorrelation():
    u = uniform(key_from_seed(13), 1_000_000)
    x = u - u.mean()
    r1 = float((x[:-1] * x[1:]).mean() / (x * x).mean())
    assert abs(r1) < 0.01


def test_normal_moments():
    z = normal(key_from_seed(17), 1_000_000)
    assert abs(z.mean()) < 0.004
    assert 0.99 < z.var() < 1.01
    assert np.isfinite(z).all()


def test_normal_tail_mass():
    z = normal(key_from_seed(19), 1_000_000)
    frac_2sigma = float((np.abs(z) > 2.0).mean())
    assert 0.042 < frac_2sigma < 0.049  # true value 0.0455


def test_randint_bounds_and_frequencies():
    key = key_from_seed(23)
    draws = randint(key, 3, 7, 1_000_000)
    assert draws.min() == 3
    assert draws.max() == 6  # maxval is exclusive
    for v in range(3, 7):
        f = float((draws == v).mean())
        assert 0.24 < f < 0.26


def test_scalar_shapes():
    key = key_from_seed(29)
    assert isinstance(uniform(key), float)
    assert isinstance(uniform(key, []), float)
    assert isinstance(normal(key), float)
    assert isinstance(randint(key, 0, 5), int)
    assert uniform(key, 3).shape == (3,)
    assert uniform(key, [2, 3]).shape == (2, 3)
    assert normal(key, (4, 1)).shape == (4, 1)


def test_error_cases():
    with pytest.raises(ValueError):
        key_from_seed(-1)
    with pytest.raises(ValueError):
        key_from_seed(2**64)
    with pytest.raises(TypeError):
        key_from_seed("0")
    with pytest.raises(TypeError):
        key_from_seed(1.5)
    with pytest.raises(ValueError):
        split(key_from_seed(0), 0)
    with pytest.raises(ValueError):
        randint(key_from_seed(0), 5, 5)
    with pytest.raises(ValueError):
        RandomKey(-1, 0)
    with pytest.raises(ValueError):
        RandomKey(0, 2**64)
