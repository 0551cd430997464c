import pytest
from hypothesis import given, strategies as st

from statenet.rng import Rng, derive_seed


def test_same_seed_same_stream():
    a, b = Rng(12345), Rng(12345)
    assert [a.u64() for _ in range(100)] == [b.u64() for _ in range(100)]


def test_uniform_in_unit_interval():
    rng = Rng(7)
    draws = [rng.uniform() for _ in range(5000)]
    assert all(0.0 <= x < 1.0 for x in draws)
    assert abs(sum(draws) / len(draws) - 0.5) < 0.03


def test_uniform_is_known_mapping():
    # value must equal the documented (u64 >> 11) * 2**-53 mapping
    rng1, rng2 = Rng(99), Rng(99)
    raw = rng2.u64()
    assert rng1.uniform() == (raw >> 11) * 2.0 ** -53


def test_randint_bounds_and_coverage():
    rng = Rng(3)
    draws = [rng.randint(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        rng.randint(0)


def test_randrange_inclusive():
    rng = Rng(4)
    draws = {rng.randrange(2, 4) for _ in range(200)}
    assert draws == {2, 3, 4}
    assert Rng(1).randrange(5, 5) == 5
    with pytest.raises(ValueError):
        Rng(1).randrange(3, 2)


def test_derive_seed_distinct_and_stable():
    seeds = {derive_seed(1, 0xA, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)


@given(st.lists(st.integers(), max_size=50), st.integers(min_value=0, max_value=2**63))
def test_shuffle_is_permutation(items, seed):
    out = list(items)
    Rng(seed).shuffle(out)
    assert sorted(out) == sorted(items)
