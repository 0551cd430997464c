import numpy as np
import pytest
from hypothesis import given, strategies as st

from statenet.rng import Rng, RowRng, derive_seed


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


def test_randint_refuses_n_above_two_to_the_64():
    # 2**64 accepts every draw; above it no draw could be accepted
    assert Rng(5).randint(2**64) == Rng(5).u64()
    with pytest.raises(ValueError):
        Rng(5).randint(2**64 + 1)
    rows = np.arange(3)
    want = [Rng(s).u64() for s in (7, 8, 9)]
    assert RowRng(np.array([7, 8, 9])).randint(rows, 2**64).tolist() == want
    with pytest.raises(ValueError):
        RowRng(np.array([7, 8, 9])).randint(rows, 2**64 + 1)


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


# one op of a row's random program: (kind, argument); u64 takes 1..3 draws,
# and randint(2**63 + 1) rejects about half of all draws
ROW_OPS = st.one_of(
    st.tuples(st.just("u64"), st.integers(1, 3)),
    st.tuples(st.just("randint"), st.sampled_from([1, 2, 3, 7, 2**63 + 1])),
    st.tuples(st.just("uniform"),
              st.sampled_from([(0.0, 1.0), (0.0, 7.0), (-3.5, 2.25)])),
    st.tuples(st.just("chance"), st.sampled_from([0.0, 0.02, 0.5, 1.0])),
)


def scalar_op(rng, kind, arg):
    if kind == "u64":
        return [rng.u64() for _ in range(arg)]
    if kind == "randint":
        return [rng.randint(arg)]
    if kind == "uniform":
        return [rng.uniform(*arg)]
    return [rng.chance(arg)]


@given(st.integers(-2**70, 2**70), st.integers(0, 2**66),
       st.lists(st.lists(ROW_OPS, max_size=12), min_size=1, max_size=8))
def test_row_streams_draw_what_rng_draws(seed, key, programs):
    n = len(programs)
    seeds = derive_seed(seed, key, np.arange(n, dtype=np.uint64))
    assert seeds.tolist() == [derive_seed(seed, key, r) for r in range(n)]
    scalar = [Rng(derive_seed(seed, key, r)) for r in range(n)]
    want = [[v for kind, arg in prog for v in scalar_op(scalar[r], kind, arg)]
            for r, prog in enumerate(programs)]
    streams = RowRng(seeds)
    got = [[] for _ in range(n)]
    for j in range(max(len(prog) for prog in programs)):
        # the rows whose j-th op is the same draw take it together
        groups = {}
        for r, prog in enumerate(programs):
            if j < len(prog):
                groups.setdefault(prog[j], []).append(r)
        for (kind, arg), rows in groups.items():
            rows = np.array(rows)
            if kind == "u64":
                out = streams.u64(rows, arg).reshape(len(rows), arg)
            elif kind == "randint":
                out = streams.randint(rows, arg)[:, None]
            elif kind == "uniform":
                out = streams.uniform(rows, *arg)[:, None]
            else:
                out = streams.chance(rows, arg)[:, None]
            for r, vals in zip(rows, out):
                got[r] += vals.tolist()
    assert got == want
