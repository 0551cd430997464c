import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statenet.cli import main
from statenet.datasets import (GEN_BLOCK, HELDOUT_TEST_LEN, SAVE_STEPS,
                               Dataset, DatasetError, Episode, PavlovConfig,
                               PongDataConfig, gen_pavlov, gen_pong,
                               load_dataset, save_dataset)
from statenet.pong import PongConfig, PongEnv, _unit
from statenet.rng import Rng, derive_seed

PAPER_X = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]]
PAPER_Y = [[1.0], [0.0], [1.0], [1.0], [1.0]]


def test_paper_exact_episode():
    ds = gen_pavlov(PavlovConfig(episodes=1, seed=1, paper_exact=True))
    ep = ds.episodes[0]
    assert ep.x.tolist() == PAPER_X
    assert ep.y.tolist() == PAPER_Y
    assert ep.meta["pairings"] == 2


def test_below_threshold_episodes_have_zero_test_targets():
    ds = gen_pavlov(PavlovConfig(episodes=300, seed=5, noise_p=0.0))
    seen_low = seen_high = False
    for ep in ds.episodes:
        lo, hi = ep.meta["stages"]["test"]
        m = ep.meta["pairings"]
        want = 1.0 if m >= 2 else 0.0
        assert np.all(ep.y[lo:hi] == want)
        seen_low |= m < 2
        seen_high |= m >= 2
    assert seen_low and seen_high


def test_generator_is_deterministic():
    a = gen_pavlov(PavlovConfig(episodes=50, seed=9))
    b = gen_pavlov(PavlovConfig(episodes=50, seed=9))
    for ea, eb in zip(a.episodes, b.episodes):
        assert np.array_equal(ea.x, eb.x) and np.array_equal(ea.y, eb.y)


def test_stage_grammar():
    ds = gen_pavlov(PavlovConfig(episodes=400, seed=3, noise_p=0.0))
    for ep in ds.episodes:
        stages = ep.meta["stages"]
        (i0, i1), (t0, t1), (s0, s1) = (stages["init"], stages["train"],
                                        stages["test"])
        assert 0 == i0 < i1 == t0 < t1 == s0 < s1 == ep.length
        # initial: single stimulus per step, starting with food
        assert ep.x[0].tolist() == [1.0, 0.0]
        for t in range(i0, i1):
            assert ep.x[t].sum() == 1.0
        for t in range(t0, t1):
            assert ep.x[t].tolist() == [1.0, 1.0]
        for t in range(s0, s1):
            assert ep.x[t].tolist() == [0.0, 1.0]


def test_food_always_elicits_response():
    # over 10k noiseless steps: every step with the food channel lit has a
    # positive response target
    total = 0
    ds = gen_pavlov(PavlovConfig(episodes=1500, seed=7, noise_p=0.0))
    for ep in ds.episodes:
        for t in range(ep.length):
            total += 1
            if ep.x[t, 0] == 1.0:
                assert ep.y[t, 0] == 1.0
    assert total > 10_000


def test_causal_mask_covers_late_initial_steps():
    ds = gen_pavlov(PavlovConfig(episodes=50, seed=11))
    for ep in ds.episodes:
        i0, i1 = ep.meta["stages"]["init"]
        assert ep.mask is not None
        assert np.all(ep.mask[:2] == 1.0)
        assert np.all(ep.mask[2:i1] == 0.0)
        assert np.all(ep.mask[i1:] == 1.0)


def test_split_partitions_length_combinations():
    mid = HELDOUT_TEST_LEN
    train = gen_pavlov(PavlovConfig(episodes=400, seed=2, split="train"))
    held = gen_pavlov(PavlovConfig(episodes=400, seed=3, split="heldout"))
    train_combos = {(ep.meta["n_food"], ep.meta["n_ring"], ep.meta["pairings"],
                     ep.meta["test_len"]) for ep in train.episodes}
    held_combos = {(ep.meta["n_food"], ep.meta["n_ring"], ep.meta["pairings"],
                    ep.meta["test_len"]) for ep in held.episodes}
    assert not (train_combos & held_combos)
    assert all(c[3] == mid for c in held_combos)
    assert all(c[3] != mid for c in train_combos)
    held_ms = {c[2] for c in held_combos}
    assert min(held_ms) < 2 <= max(held_ms)


def test_distinct_seeds_give_distinct_datasets():
    digests = set()
    for seed in range(100):
        ds = gen_pavlov(PavlovConfig(episodes=3, seed=seed))
        blob = b"".join(ep.x.tobytes() + ep.y.tobytes() for ep in ds.episodes)
        digests.add(hashlib.sha256(blob).hexdigest())
    assert len(digests) == 100


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        PavlovConfig(noise_p=0.7).validate()
    with pytest.raises(ValueError):
        PavlovConfig(conditioning_threshold=0).validate()


def episode_lines_sha256(path):
    with open(path, "rb") as fh:
        _, episode_lines = fh.read().split(b"\n", 1)
    return hashlib.sha256(episode_lines).hexdigest()


# sha256 of the episode lines (the file without its manifest line) of small
# sets covering every branch of both generators; any change to what they
# draw or emit changes one of these
EPISODE_LINES_SHA256 = {
    "pavlov-all":
        "709228cead729b903b89b7e306bd5263f8f89c67f86d01efb510682367cfd4e4",
    "pavlov-train":
        "b2ec898f20164aa91a528684e9fe7a84daa2f45918f127e019f3a25af987ed10",
    "pavlov-heldout":
        "f4002c6284021caf4ba0d22a59b40b6de102521692cc8973e68dc96e3650c4de",
    "pavlov-noiseless":
        "d5428a45b248dfb25b37a40447a24444538d8bd04959212a6a3a0a9fd979c293",
    "pavlov-k3":
        "e22e064b5beca8e63de5c182e700cfd521bf4305ce0b180fed4edda7f2e97842",
    "pavlov-k5":
        "f0e82f22590d5e5e6b6569aef243248d7aef8aef205bfea1e63fbd84e327afb3",
    "pavlov-paper-exact":
        "2cc6cef17409eb2419b1ca02c284bfb37d687d8f30875f8cb9cf636d15c896b0",
    "pong":
        "fb02a3d95ec1e315a665dde3f1e7ab3f6bbbaf23907135399c24e02a7a65db11",
}


def test_generated_episode_lines_are_pinned(tmp_path):
    sets = {
        "pavlov-all": gen_pavlov(PavlovConfig(episodes=60, seed=1)),
        "pavlov-train": gen_pavlov(PavlovConfig(episodes=60, seed=2,
                                                split="train")),
        "pavlov-heldout": gen_pavlov(PavlovConfig(episodes=60, seed=3,
                                                  split="heldout")),
        "pavlov-noiseless": gen_pavlov(PavlovConfig(episodes=60, seed=4,
                                                    noise_p=0.0)),
        "pavlov-k3": gen_pavlov(PavlovConfig(episodes=60, seed=5,
                                             conditioning_threshold=3)),
        "pavlov-k5": gen_pavlov(PavlovConfig(episodes=60, seed=6,
                                             conditioning_threshold=5)),
        "pavlov-paper-exact": gen_pavlov(PavlovConfig(episodes=2, seed=7,
                                                      paper_exact=True)),
        "pong": gen_pong(PongDataConfig(episodes=4, seed=8)),
    }
    digests = {}
    for name, ds in sets.items():
        path = str(tmp_path / f"{name}.jsonl")
        save_dataset(ds, path)
        digests[name] = episode_lines_sha256(path)
    assert digests == EPISODE_LINES_SHA256


# larger sets, each spanning several generation blocks, and seeds that
# derive_seed folds into 64 bits (negative, and 2**64 and above); the pong
# sets cover no noise, noise on every step, another grid and one-step games
LARGE_SETS = [
    (PavlovConfig(2000, seed=1, split="train"),
     "df36f4bcf8930903c802447b226085f4990aafb37dc31db0ec60f84c754684a7"),
    (PavlovConfig(500, seed=2, split="heldout"),
     "155e6e422b0819b4f61a1fc992b16be8fd142bcf4499e3c68e8655a2da2307d3"),
    (PavlovConfig(1000, seed=11, noise_p=0.3, conditioning_threshold=1),
     "b8839e9cb3cf15ce71493340c4bfcc0c993884e8b0ad218b4ec9c7568ca86a0f"),
    (PavlovConfig(300, seed=-5, split="train"),
     "c09b8ec3d5a00511f47bafae6a2cdb9e26999d3cd996a2615715969b27a44b52"),
    (PavlovConfig(300, seed=2**64 + 3, split="heldout"),
     "3683cd437c26eb9734e43e39e3a20a4e61b2305275fbee972e6f357c87feefb0"),
    (PongDataConfig(300, seed=11),
     "e7bcf4a50219264e48b0a6aba3d5dc08b8e76b4379ad8c85594477c202fec149"),
    (PongDataConfig(600, seed=2, expert_noise_p=0.0),
     "bcac0b7527098e741b4d3c9ec51c59040d34e78188a726cc589dff8495dac376"),
    (PongDataConfig(700, seed=3, expert_noise_p=0.5),
     "e11b5fb8d70c3f21d07aa87a7e223f224e8da13a393eec32d4a1784cb4af5e20"),
    (PongDataConfig(300, seed=-5, expert_noise_p=1.0),
     "b3e9ba6956130d9208f0cbcc333b149999f73ff865980c72858ac78e9e19eb48"),
    (PongDataConfig(300, seed=2**64 + 3,
                    env=PongConfig(width=9, height=15, paddle_len=5,
                                   max_steps=40)),
     "f10336ce27351ea0132006d8d058680854026587b2812a24250e84bc4f293505"),
    (PongDataConfig(300, seed=4, env=PongConfig(width=8, height=8,
                                                paddle_len=7, max_steps=1)),
     "64a539ce46e9fcc031d9f87db7327778c41be35458266698d51ff840fa69c1a9"),
]


@pytest.mark.parametrize(
    "config,digest", LARGE_SETS,
    ids=[("pong-" if isinstance(c, PongDataConfig) else "")
         + f"{c.episodes}-{c.seed}" for c, _ in LARGE_SETS])
def test_large_sets_are_pinned(tmp_path, config, digest):
    assert config.episodes > GEN_BLOCK
    path = str(tmp_path / "eps.jsonl")
    gen = gen_pong if isinstance(config, PongDataConfig) else gen_pavlov
    ds = gen(config)
    save_dataset(ds, path)
    assert episode_lines_sha256(path) == digest
    # and each loads back to the generated set, bit for bit
    back = load_dataset(path)
    assert back.manifest == ds.manifest
    assert len(back) == len(ds)
    for a, b in zip(ds.episodes, back.episodes):
        for key in ("x", "y", "mask"):
            want, got = getattr(a, key), getattr(b, key)
            assert (want is None) == (got is None)
            if want is not None:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        assert json.dumps(b.meta) == json.dumps(a.meta)


def test_cli_writes_the_pinned_training_set(tmp_path):
    # the criterion-5 training set, as `statenet gen pavlov` writes it
    out = str(tmp_path / "train.jsonl")
    result = CliRunner().invoke(main, ["gen", "pavlov", "--episodes", "2000",
                                       "--seed", "1", "--split", "train",
                                       "--out", out])
    assert result.exit_code == 0, result.output
    assert episode_lines_sha256(out) == LARGE_SETS[0][1]


def test_cli_writes_the_pinned_pong_set(tmp_path):
    # the criterion-6 training set, as `statenet gen pong` writes it
    out = str(tmp_path / "pong.jsonl")
    result = CliRunner().invoke(main, ["gen", "pong", "--episodes", "300",
                                       "--seed", "11", "--out", out])
    assert result.exit_code == 0, result.output
    config, digest = LARGE_SETS[5]
    assert config == PongDataConfig(300, seed=11)
    assert episode_lines_sha256(out) == digest


def test_generation_holds_bounded_temporaries():
    # the transient (peak minus retained) of 4096 episodes is what one
    # block of GEN_BLOCK episodes needs at a time: about 90 kB at 256,
    # where one pass over all 4096 episodes needs about 1.5 MB
    gen_pavlov(PavlovConfig(episodes=2, seed=0))
    tracemalloc.start()
    try:
        ds = gen_pavlov(PavlovConfig(episodes=4096, seed=1, noise_p=0.3,
                                     split="train"))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds) == 4096
    assert peak - retained < 200_000


# ---------------------------------------------------------------------------
# pong


def test_pong_generation_holds_bounded_temporaries():
    # the transient (peak minus retained) of 1024 episodes is what one
    # block of GEN_BLOCK games needs at a time, about 0.65 MB at 256: the
    # block's step records, its episode-major observations and actions
    gen_pong(PongDataConfig(episodes=2, seed=0))
    tracemalloc.start()
    try:
        ds = gen_pong(PongDataConfig(episodes=1024, seed=1,
                                     expert_noise_p=0.3))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds) == 1024
    assert peak - retained < 1_000_000


def reference_pong(config):
    """The imitation set as PongEnv plays it, one game and one scalar
    stream at a time, with each step's observation as the closed loop sees
    it; the generator must record the same bits."""
    episodes = []
    for i in range(config.episodes):
        rng = Rng(derive_seed(config.seed, 0xB0A, i))
        env = PongEnv(config.env, rng)
        obs, actions = [], []
        while not env.done:
            obs.append(np.array(env.observation()))
            d = env.ball_y - env.paddle
            action = (d > 0) - (d < 0)
            p = config.expert_noise_p
            if p > 0.0 and rng.chance(p):
                action = rng.randrange(-1, 1)
            actions.append(action)
            env.step(action)
        meta = {"hits": env.hits, "missed": env.missed, "length": env.steps}
        episodes.append((obs, actions, meta))
    return episodes


@pytest.mark.parametrize("config", [
    PongDataConfig(40, seed=0),
    PongDataConfig(40, seed=1),
    PongDataConfig(40, seed=-2),
    PongDataConfig(40, seed=3, expert_noise_p=0.0),
    PongDataConfig(40, seed=4, expert_noise_p=1.0),
    PongDataConfig(40, seed=5, env=PongConfig(width=9, height=15,
                                              paddle_len=5, max_steps=60)),
    PongDataConfig(40, seed=6, env=PongConfig(max_steps=1)),
    PongDataConfig(GEN_BLOCK + 30, seed=7),
], ids=["seed-0", "seed-1", "seed-neg", "noise-free", "noise-always",
        "grid-9x15", "one-step", "two-blocks"])
def test_generator_plays_what_pong_env_plays(config):
    ds = gen_pong(config)
    assert len(ds) == config.episodes
    for ep, (obs, actions, meta) in zip(ds.episodes, reference_pong(config)):
        assert ep.x.shape == (len(obs), 5) and ep.x.dtype == np.float64
        for row, want in zip(ep.x, obs):
            assert row.tobytes() == want.tobytes()
        onehot = np.zeros((len(actions), 3))
        onehot[np.arange(len(actions)), np.array(actions) + 1] = 1.0
        assert ep.y.dtype == np.float64 and ep.y.shape == onehot.shape
        assert ep.y.tobytes() == onehot.tobytes()
        assert ep.mask is None
        assert json.dumps(ep.meta) == json.dumps(meta)


def test_expert_tie_means_stay():
    ds = gen_pong(PongDataConfig(episodes=50, seed=1, expert_noise_p=0.0))
    ties = 0
    for ep in ds.episodes:
        tie = ep.x[:, 1] == ep.x[:, 4]      # ball row == paddle row
        ties += int(tie.sum())
        assert np.all(ep.y[tie] == [0.0, 1.0, 0.0])
    assert ties > 0


def test_pong_generator_deterministic():
    a = gen_pong(PongDataConfig(episodes=5, seed=4))
    b = gen_pong(PongDataConfig(episodes=5, seed=4))
    for ea, eb in zip(a.episodes, b.episodes):
        assert np.array_equal(ea.x, eb.x) and np.array_equal(ea.y, eb.y)


def test_noise_free_expert_never_misses():
    ds = gen_pong(PongDataConfig(episodes=1000, seed=31, expert_noise_p=0.0))
    max_steps = PongConfig().max_steps
    for ep in ds.episodes:
        assert not ep.meta["missed"]
        assert ep.meta["length"] == len(ep.x) == max_steps


def test_ball_conservation_and_bounds():
    cfg = PongConfig()
    rng = Rng(17)
    env = PongEnv(cfg, rng)
    for _ in range(cfg.max_steps):
        if env.done:
            break
        env.step(rng.randrange(-1, 1))
        assert abs(env.vel_x) == 1 and abs(env.vel_y) == 1
        assert 0 <= env.ball_x <= cfg.width - 1
        assert 0 <= env.ball_y <= cfg.height - 1
        assert env.half <= env.paddle <= cfg.height - 1 - env.half


def test_pong_observation_normalized():
    ds = gen_pong(PongDataConfig(episodes=10, seed=6))
    for ep in ds.episodes:
        assert np.all(np.abs(ep.x) <= 1.0)
        assert np.all(ep.y.sum(axis=1) == 1.0)


def test_pong_observation_is_the_unit_formula_as_plain_floats():
    # five Python floats, bitwise _unit of the env's fields; np.array of
    # them is the float64 row that the closed loop and gen_pong stack
    cfg = PongConfig(width=9, height=11, paddle_len=5)
    rng = Rng(23)
    env = PongEnv(cfg, Rng(derive_seed(23, 1)))
    while not env.done:
        obs = env.observation()
        want = (_unit(env.ball_x, cfg.width), _unit(env.ball_y, cfg.height),
                float(env.vel_x), float(env.vel_y),
                _unit(env.paddle, cfg.height))
        assert type(obs) is tuple and all(type(c) is float for c in obs)
        assert np.array(obs).tobytes() == np.array(want).tobytes()
        assert np.array(obs).dtype == np.float64
        env.step(rng.randrange(-1, 1))


def test_pong_invalid_grid_rejected():
    with pytest.raises(ValueError):
        PongConfig(width=4).validate()
    with pytest.raises(ValueError):
        PongConfig(paddle_len=13).validate()
    with pytest.raises(ValueError):
        PongConfig(paddle_len=2).validate()
    with pytest.raises(ValueError):
        PongConfig(paddle_len=-1).validate()


# ---------------------------------------------------------------------------
# serialization


def reference_lines(dataset):
    """The file as ``json.dumps`` writes each record, one line each: the
    writer's byte oracle."""
    lines = [json.dumps(dataset.manifest) + "\n"]
    for ep in dataset.episodes:
        rec = {"x": ep.x.tolist(), "y": ep.y.tolist()}
        if ep.mask is not None:
            rec["mask"] = ep.mask.tolist()
        if ep.meta:
            rec["meta"] = ep.meta
        lines.append(json.dumps(rec) + "\n")
    return "".join(lines).encode()


def as_dataset(episodes):
    """``episodes`` under a manifest with the first episode's dims."""
    first = episodes[0] if episodes else Episode(np.zeros((0, 0)),
                                                 np.zeros((0, 0)))
    return Dataset(episodes, {
        "format": "snn-episodes/1", "generator": "test", "seed": 0,
        "dims": {"inputs": first.x.shape[1], "outputs": first.y.shape[1]},
        "episodes": len(episodes), "params": {}})


def saved(tmp_path, dataset):
    """The bytes ``save_dataset`` writes for ``dataset``."""
    path = tmp_path / "eps.jsonl"
    save_dataset(dataset, str(path))
    return path.read_bytes()


# signed zeros, the smallest denormal, the largest finite floats,
# non-finite values and integer-valued floats, some beyond 2**53
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
           -1.7976931348623157e308, math.nan, math.inf, -math.inf, 1.0, -2.0,
           3.0, 2.0 ** 53, -1e16, 1e22]
METAS = [{}, {"note": "a\u2028b\u2029c\x85d \u00fc"},
         {"hits": 3, "missed": False},
         {"stages": {"test": [4, 7]}, "x": [1.5, None, "\u2028"]}]


def random_table(rng, steps, width):
    """A float64 (steps x width) table of the special values and of random
    bit patterns (any float: denormals, NaN payloads, huge exponents)."""
    special = rng.choice(np.array(SPECIAL), (steps, width))
    bits = rng.integers(0, 2 ** 64, (steps, width), dtype=np.uint64)
    return np.where(rng.random((steps, width)) < 0.5, special,
                    bits.view(np.float64))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_writer_bytes_equal_the_encoder(tmp_path, data):
    # empty episodes, zero-width tables, masks on some episodes only, empty
    # and unicode meta, and often more than SAVE_STEPS steps in a file
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n_in, n_out = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    episodes = []
    for steps in data.draw(st.lists(st.integers(0, 600), max_size=6)):
        mask = (random_table(rng, steps, n_out) if data.draw(st.booleans())
                else None)
        episodes.append(Episode(x=random_table(rng, steps, n_in),
                                y=random_table(rng, steps, n_out), mask=mask,
                                meta=data.draw(st.sampled_from(METAS))))
    ds = as_dataset(episodes)
    assert saved(tmp_path, ds) == reference_lines(ds)


def test_writer_blocks_end_mid_dataset(tmp_path):
    # episodes that straddle, fill and exceed a block of SAVE_STEPS steps,
    # zero-width tables among them
    rng = np.random.default_rng(5)
    lengths = [0, SAVE_STEPS - 3, 2, 2, SAVE_STEPS + 7, 1, 0, SAVE_STEPS, 5]
    episodes = [Episode(x=random_table(rng, t, 2), y=random_table(rng, t, 0),
                        mask=random_table(rng, t, 0) if i % 2 else None,
                        meta=METAS[i % len(METAS)])
                for i, t in enumerate(lengths)]
    assert sum(lengths) > 3 * SAVE_STEPS
    ds = as_dataset(episodes)
    assert saved(tmp_path, ds) == reference_lines(ds)


def test_integer_tables_are_written_as_floats(tmp_path):
    ep = Episode(x=np.array([[1, 0], [-3, 2]]), y=np.array([[True], [False]]))
    lines = saved(tmp_path, as_dataset([ep])).split(b"\n")
    assert lines[1] == b'{"x": [[1.0, 0.0], [-3.0, 2.0]], "y": [[1.0], [0.0]]}'
    back = load_dataset(str(tmp_path / "eps.jsonl")).episodes[0]
    assert np.array_equal(back.x, ep.x) and np.array_equal(back.y, ep.y)


@pytest.mark.parametrize("steps", [3, SAVE_STEPS])
def test_tables_of_unequal_width_refused(tmp_path, steps):
    # in one block, and in two (two episodes of SAVE_STEPS steps)
    path = tmp_path / "eps.jsonl"
    path.write_text("before")
    episodes = [Episode(x=np.zeros((steps, 2)), y=np.zeros((steps, 1))),
                Episode(x=np.zeros((steps, 2)), y=np.zeros((steps, 1)),
                        mask=np.zeros((steps, 1))),
                Episode(x=np.zeros((steps, 3)), y=np.zeros((steps, 1)))]
    with pytest.raises(ValueError,
                       match=r"x tables differ in width: \[2, 3\]"):
        saved(tmp_path, as_dataset(episodes))
    assert path.read_text() == "before"


def test_writer_holds_bounded_temporaries(tmp_path):
    # the transient (peak minus retained) of a save is what one block of
    # SAVE_STEPS steps needs at a time, whatever the number of episodes:
    # about 0.59 MB for pong and 0.23 MB for conditioning episodes
    sets = [(gen_pong(PongDataConfig(episodes=1024, seed=1,
                                     expert_noise_p=0.3)), 900_000),
            (gen_pavlov(PavlovConfig(episodes=4096, seed=1, noise_p=0.3,
                                     split="train")), 350_000)]
    path = str(tmp_path / "eps.jsonl")
    for ds, bound in sets:
        save_dataset(Dataset(ds.episodes[:2], ds.manifest), path)
        tracemalloc.start()
        try:
            save_dataset(ds, path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - retained < bound


def test_round_trip_identity(tmp_path):
    ds = gen_pavlov(PavlovConfig(episodes=20, seed=13))
    path = str(tmp_path / "eps.jsonl")
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.manifest == ds.manifest
    assert len(back) == len(ds)
    for ea, eb in zip(ds.episodes, back.episodes):
        assert np.array_equal(ea.x, eb.x)
        assert np.array_equal(ea.y, eb.y)
        assert np.array_equal(ea.mask, eb.mask)
        assert ea.meta == eb.meta


def test_truncated_file_names_line(tmp_path):
    ds = gen_pong(PongDataConfig(episodes=3, seed=1))
    path = str(tmp_path / "eps.jsonl")
    save_dataset(ds, path)
    lines = Path(path).read_text().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]) + "\n")
    with pytest.raises(DatasetError, match="line 4"):
        load_dataset(path)


def test_manifest_count_mismatch(tmp_path):
    ds = gen_pavlov(PavlovConfig(episodes=3, seed=1))
    path = str(tmp_path / "eps.jsonl")
    save_dataset(ds, path)
    lines = Path(path).read_text().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DatasetError, match="declares 3"):
        load_dataset(path)


def test_line_separators_inside_json_strings_load(tmp_path):
    # JSON strings may hold U+2028, U+2029 and U+0085 unescaped: only "\n"
    # ends a record; a CRLF file, blank lines included, loads the same
    ds = gen_pavlov(PavlovConfig(episodes=3, seed=1))
    ds.episodes[1].meta["note"] = "a\u2028b\u2029c\x85d"
    path = tmp_path / "eps.jsonl"
    save_dataset(ds, str(path))
    text = "\n".join(json.dumps(json.loads(ln), ensure_ascii=False) if ln
                     else ln for ln in path.read_text("utf-8").split("\n"))
    assert "\u2028" in text
    path.write_text(text, "utf-8")
    back = load_dataset(str(path))
    assert [ep.meta for ep in back.episodes] == [ep.meta for ep in ds.episodes]
    lines = text.split("\n")
    path.write_bytes("\r\n".join([lines[0], "", *lines[1:]]).encode())
    again = load_dataset(str(path))
    assert again.manifest == back.manifest
    for ea, eb in zip(back.episodes, again.episodes):
        assert np.array_equal(ea.x, eb.x) and ea.meta == eb.meta


def test_unknown_episode_keys_rejected(tmp_path):
    path = str(tmp_path / "eps.jsonl")
    manifest = {"format": "snn-episodes/1", "generator": "x", "seed": 0,
                "dims": {"inputs": 1, "outputs": 1}, "episodes": 1, "params": {}}
    with open(path, "w") as fh:
        fh.write(json.dumps(manifest) + "\n")
        fh.write(json.dumps({"x": [[1.0]], "y": [[0.0]], "weird": 1}) + "\n")
    with pytest.raises(DatasetError, match="unknown keys"):
        load_dataset(path)


def write_one_episode(tmp_path, rec, n_in):
    """A dataset file of one episode line ``rec`` with ``n_in`` inputs."""
    path = str(tmp_path / "eps.jsonl")
    manifest = {"format": "snn-episodes/1", "generator": "x", "seed": 0,
                "dims": {"inputs": n_in, "outputs": 1}, "episodes": 1,
                "params": {}}
    with open(path, "w") as fh:
        fh.write(json.dumps(manifest) + "\n")
        fh.write(json.dumps(rec) + "\n")
    return path


def test_episode_error_names_its_line_once(tmp_path):
    path = write_one_episode(tmp_path, {"x": "abc", "y": [[0.0]]}, 1)
    with pytest.raises(DatasetError) as exc:
        load_dataset(path)
    assert str(exc.value) == ("line 2: malformed episode: ValueError: "
                              "x must be a list of equally long lists of numbers")
    # blank lines count: the bad episode sits on file line 4
    lines = Path(path).read_text().splitlines()
    manifest = dict(json.loads(lines[0]), episodes=2)
    with open(path, "w") as fh:
        fh.write("\n".join([json.dumps(manifest), "",
                            json.dumps({"x": [[0.5]], "y": [[0.0]]}),
                            json.dumps({"y": [[0.0]]})]) + "\n")
    with pytest.raises(DatasetError) as exc:
        load_dataset(path)
    assert str(exc.value) == "line 4: malformed episode: KeyError: 'x'"


@pytest.mark.parametrize("key,rows", [
    ("x", [[True, 0], [0.5, 1]]), ("y", [[0.0], [False]]),
    ("mask", [[1.0], [True]]),
])
def test_booleans_among_numbers_refused(tmp_path, key, rows):
    # numpy reads [True, 0] as numbers; the loader must not
    rec = {"x": [[1.0, 0], [0.5, 1]], "y": [[0.0], [1.0]],
           "mask": [[1.0], [0.0]], key: rows}
    with pytest.raises(DatasetError) as exc:
        load_dataset(write_one_episode(tmp_path, rec, 2))
    assert str(exc.value) == (f"line 2: malformed episode: ValueError: "
                              f"{key} must hold numbers only")


def test_missing_format_tag_rejected(tmp_path):
    path = str(tmp_path / "eps.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"episodes": 0}) + "\n")
    with pytest.raises(DatasetError, match="format"):
        load_dataset(path)


def test_full_precision_round_trip(tmp_path):
    x = np.array([[0.1 + 0.2, 1.0 / 3.0]])
    ds_path = str(tmp_path / "p.jsonl")
    from statenet.datasets import Dataset
    ds = Dataset(episodes=[Episode(x=x, y=np.array([[np.pi]]))],
                 manifest={"format": "snn-episodes/1", "generator": "t",
                           "seed": 0, "dims": {"inputs": 2, "outputs": 1},
                           "episodes": 1, "params": {}})
    save_dataset(ds, ds_path)
    back = load_dataset(ds_path)
    assert back.episodes[0].x.tobytes() == x.tobytes()
    assert back.episodes[0].y[0, 0] == np.pi
