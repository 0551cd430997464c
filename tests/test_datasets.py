import hashlib
import json

import numpy as np
import pytest

from statenet.datasets import (DatasetError, Episode, PavlovConfig,
                               PongDataConfig, gen_pavlov, gen_pong,
                               load_dataset, save_dataset)
from statenet.pong import PongConfig, PongEnv, action_onehot
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
    ds2 = gen_pavlov(PavlovConfig(episodes=5, seed=11, mask_mode="all"))
    assert all(ep.mask is None for ep in ds2.episodes)


def test_split_partitions_length_combinations():
    mid = 2  # middle testing-stage length under the default (1, 3) range
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
        PavlovConfig(init_len=(0, 2)).validate()
    with pytest.raises(ValueError):
        PavlovConfig(noise_p=0.7).validate()
    with pytest.raises(ValueError):
        PavlovConfig(train_len_weights=(1.0,)).validate()
    with pytest.raises(ValueError):
        PavlovConfig(conditioning_threshold=0).validate()
    for weights in [(6.0, -1.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0)]:
        with pytest.raises(ValueError, match="train_len_weights"):
            PavlovConfig(train_len_weights=weights).validate()


# ---------------------------------------------------------------------------
# pong


def test_expert_tie_means_stay():
    cfg = PongConfig()
    env = PongEnv(cfg, Rng(1))
    env.ball_y = env.paddle
    assert env.expert_action() == 0
    assert action_onehot(0).tolist() == [0.0, 1.0, 0.0]


def test_pong_generator_deterministic():
    a = gen_pong(PongDataConfig(episodes=5, seed=4))
    b = gen_pong(PongDataConfig(episodes=5, seed=4))
    for ea, eb in zip(a.episodes, b.episodes):
        assert np.array_equal(ea.x, eb.x) and np.array_equal(ea.y, eb.y)


def test_noise_free_expert_never_misses():
    cfg = PongConfig()
    for i in range(1000):
        env = PongEnv(cfg, Rng(derive_seed(31, i)))
        while not env.done:
            env.step(env.expert_action())
        assert not env.missed
        assert env.steps == cfg.max_steps


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
    lines = open(path).read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]) + "\n")
    with pytest.raises(DatasetError, match="line 4"):
        load_dataset(path)


def test_manifest_count_mismatch(tmp_path):
    ds = gen_pavlov(PavlovConfig(episodes=3, seed=1))
    path = str(tmp_path / "eps.jsonl")
    save_dataset(ds, path)
    lines = open(path).read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DatasetError, match="declares 3"):
        load_dataset(path)


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
    lines = open(path).read().splitlines()
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
