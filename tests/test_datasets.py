import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from statenet.datasets import (HELDOUT_TEST_LEN, DatasetError, Episode,
                               PavlovConfig, PongDataConfig, gen_pavlov,
                               gen_pong, load_dataset, save_dataset)
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
        with open(path, "rb") as fh:
            _, episode_lines = fh.read().split(b"\n", 1)
        digests[name] = hashlib.sha256(episode_lines).hexdigest()
    assert digests == EPISODE_LINES_SHA256


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
