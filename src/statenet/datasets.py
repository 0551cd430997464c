"""Input/output sequence datasets: conditioning episodes and Pong imitation.

Conditioning episodes have three stages over two binary stimulus channels
(food F, ring R) and one binary response channel (salivate S):

* initial  — F and R presented separately, alternating starting with F;
             F alone elicits S = 1, R alone S = 0,
* training — m steps of paired (F, R), S = 1,
* testing  — R alone; S = 1 iff m reached the conditioning threshold K.

Stage lengths are drawn per episode. Because every edge carries a one-step
delay, a response can only depend on the stimulus history *before* its own
step; the stage-length law below keeps every testing-stage target decidable
from that history: episodes with the minimal initial stage always receive
at least K pairings, and all other episodes receive fewer than K pairings
more often than not. Without such a law the first testing step of an
under-threshold episode is indistinguishable from one more training step,
and no causal model can label both correctly.

Input noise flips stimulus bits; targets are always computed from the
clean stimuli.

Pong episodes record the scripted expert playing: observations as inputs,
the executed (possibly noise-perturbed) action one-hot as targets.

Files are line-delimited JSON: a manifest line, then one episode per line,
numbers at full round-trip precision.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .jsonio import atomic_write, count, malformed, numbers
from .pong import PongConfig, PongEnv, action_onehot
from .rng import Rng, derive_seed

FORMAT_TAG = "snn-episodes/1"


class DatasetError(ValueError):
    """Malformed dataset file or inconsistent content."""


@dataclass
class Episode:
    x: np.ndarray                 # T x n_inputs
    y: np.ndarray                 # T x n_outputs
    mask: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def length(self) -> int:
        return len(self.x)


@dataclass
class Dataset:
    episodes: list[Episode]
    manifest: dict

    def __len__(self) -> int:
        return len(self.episodes)

    @property
    def n_inputs(self) -> int:
        return int(self.manifest["dims"]["inputs"])

    @property
    def n_outputs(self) -> int:
        return int(self.manifest["dims"]["outputs"])


# ---------------------------------------------------------------------------
# conditioning generator


@dataclass(frozen=True)
class PavlovConfig:
    episodes: int = 1000
    seed: int = 0
    init_len: tuple[int, int] = (1, 3)      # per-stimulus presentation counts
    init_long_p: float = 0.6                # chance of the longer count (2-point ranges)
    train_len: tuple[int, int] = (1, 4)     # paired presentations m
    test_len: tuple[int, int] = (1, 3)
    conditioning_threshold: int = 2         # K: test S=1 iff m >= K
    noise_p: float = 0.02
    # mass over m = 1..4: under-threshold episodes dominate, and the gap in
    # the emitted counts keeps single input-bit flips from crossing the
    # category border
    train_len_weights: tuple[float, ...] = (6.0, 0.0, 0.0, 1.0)
    # "causal" masks the loss on initial-stage steps beyond the second:
    # their targets depend on the same-step stimulus, which a one-step-
    # delayed network cannot observe, so they are undefined for training
    mask_mode: str = "causal"               # causal | all
    split: str = "all"                      # all | train | heldout
    paper_exact: bool = False

    def validate(self) -> None:
        for name, (lo, hi) in (("init_len", self.init_len),
                               ("train_len", self.train_len),
                               ("test_len", self.test_len)):
            if not (1 <= lo <= hi):
                raise ValueError(f"{name} range invalid: ({lo}, {hi})")
        if self.conditioning_threshold < 1:
            raise ValueError("conditioning threshold must be >= 1")
        if not 0.0 <= self.noise_p < 0.5:
            raise ValueError("noise_p must be in [0, 0.5)")
        if not 0.0 <= self.init_long_p <= 1.0:
            raise ValueError("init_long_p must be in [0, 1]")
        span = self.train_len[1] - self.train_len[0] + 1
        if len(self.train_len_weights) != span:
            raise ValueError(f"train_len_weights needs {span} entries")
        if min(self.train_len_weights) < 0 or not sum(self.train_len_weights) > 0:
            raise ValueError(f"train_len_weights must be >= 0 with a positive "
                             f"sum, got {list(self.train_len_weights)}")
        if self.split not in ("all", "train", "heldout"):
            raise ValueError(f"unknown split {self.split!r}")
        if self.mask_mode not in ("causal", "all"):
            raise ValueError(f"unknown mask mode {self.mask_mode!r}")
        if self.episodes < 1:
            raise ValueError("need at least one episode")


def _init_count(rng: Rng, cfg: PavlovConfig) -> int:
    lo, hi = cfg.init_len
    if lo == hi:
        return lo
    if hi == lo + 1:
        return hi if rng.chance(cfg.init_long_p) else lo
    return rng.randrange(lo, hi)


def _pavlov_lengths(rng: Rng, cfg: PavlovConfig) -> tuple[int, int, int, int]:
    n_food = _init_count(rng, cfg)
    n_ring = _init_count(rng, cfg)
    k = cfg.conditioning_threshold
    lo, hi = cfg.train_len
    minimal_init = (n_food, n_ring) == (cfg.init_len[0], cfg.init_len[0])
    if minimal_init and hi >= k:
        # minimal-init episodes acquire with exactly K pairings: the shortest
        # stimulus prefix stays unambiguous for a causal (one-step-delayed)
        # predictor, which is what keeps the canonical five-step episode
        # predictable at every step
        m = max(lo, k)
    else:
        m = lo + rng.choice_weighted(list(cfg.train_len_weights))
    test_len = rng.randrange(*cfg.test_len)
    return n_food, n_ring, m, test_len


def _pavlov_heldout(cfg: PavlovConfig, lengths: tuple[int, int, int, int]) -> bool:
    # held-out episodes use the middle testing-stage length: the training
    # split keeps the shorter and longer testing stages, so every held-out
    # step position is interpolation while the (initial, training, testing)
    # length combination itself never occurs in training
    _, _, _, test_len = lengths
    mid = min(cfg.test_len[0] + 1, cfg.test_len[1])
    return test_len == mid


def _pavlov_episode(rng: Rng, cfg: PavlovConfig) -> Episode:
    if cfg.paper_exact:
        n_food, n_ring, m, test_len = 1, 1, 2, 1
    else:
        lengths = _pavlov_lengths(rng, cfg)
        if cfg.split != "all":
            attempts = 0
            while _pavlov_heldout(cfg, lengths) != (cfg.split == "heldout"):
                lengths = _pavlov_lengths(rng, cfg)
                attempts += 1
                if attempts > 10_000:
                    raise DatasetError(f"cannot draw a {cfg.split!r} episode "
                                       "under this configuration")
        n_food, n_ring, m, test_len = lengths

    xs: list[tuple[float, float]] = []
    ys: list[float] = []
    food_left, ring_left, want_food = n_food, n_ring, True
    while food_left or ring_left:
        if (want_food and food_left) or not ring_left:
            xs.append((1.0, 0.0))
            ys.append(1.0)
            food_left -= 1
        else:
            xs.append((0.0, 1.0))
            ys.append(0.0)
            ring_left -= 1
        want_food = not want_food
    init_end = len(xs)
    for _ in range(m):
        xs.append((1.0, 1.0))
        ys.append(1.0)
    acquired = 1.0 if m >= cfg.conditioning_threshold else 0.0
    for _ in range(test_len):
        xs.append((0.0, 1.0))
        ys.append(acquired)

    x = np.array(xs)
    if cfg.noise_p > 0.0 and not cfg.paper_exact:
        for t in range(len(x)):
            for c in range(2):
                if rng.chance(cfg.noise_p):
                    x[t, c] = 1.0 - x[t, c]
    y = np.array(ys).reshape(-1, 1)
    mask = None
    if cfg.mask_mode == "causal":
        mask = np.ones_like(y)
        mask[2:init_end] = 0.0
    meta = {
        "stages": {"init": [0, init_end], "train": [init_end, init_end + m],
                   "test": [init_end + m, len(xs)]},
        "n_food": n_food, "n_ring": n_ring, "pairings": m, "test_len": test_len,
        "acquired": bool(acquired),
    }
    return Episode(x=x, y=y, mask=mask, meta=meta)


def gen_pavlov(config: PavlovConfig) -> Dataset:
    """Generate conditioning episodes. Deterministic for a given seed."""
    config.validate()
    episodes = [
        _pavlov_episode(Rng(derive_seed(config.seed, 0x9A7, i)), config)
        for i in range(config.episodes)
    ]
    manifest = {
        "format": FORMAT_TAG,
        "generator": "pavlov",
        "seed": config.seed,
        "dims": {"inputs": 2, "outputs": 1},
        "episodes": config.episodes,
        # canonical JSON form so saved and in-memory manifests are identical
        "params": json.loads(json.dumps(asdict(config))),
    }
    return Dataset(episodes=episodes, manifest=manifest)


# ---------------------------------------------------------------------------
# pong imitation generator


@dataclass(frozen=True)
class PongDataConfig:
    episodes: int = 200
    seed: int = 0
    env: PongConfig = field(default_factory=PongConfig)
    expert_noise_p: float = 0.1

    def validate(self) -> None:
        self.env.validate()
        if not 0.0 <= self.expert_noise_p <= 1.0:
            raise ValueError("expert_noise_p must be in [0, 1]")
        if self.episodes < 1:
            raise ValueError("need at least one episode")


def _pong_episode(rng: Rng, cfg: PongDataConfig) -> Episode:
    env = PongEnv(cfg.env, rng)
    xs, ys = [], []
    while not env.done:
        obs = env.observation()
        action = env.expert_action()
        if cfg.expert_noise_p > 0.0 and rng.chance(cfg.expert_noise_p):
            action = rng.randrange(-1, 1)
        xs.append(obs)
        ys.append(action_onehot(action))
        env.step(action)
    meta = {"hits": env.hits, "missed": env.missed, "length": env.steps}
    return Episode(x=np.array(xs), y=np.array(ys), mask=None, meta=meta)


def gen_pong(config: PongDataConfig) -> Dataset:
    """Record the scripted expert playing. Deterministic for a given seed."""
    config.validate()
    episodes = [
        _pong_episode(Rng(derive_seed(config.seed, 0xB0A, i)), config)
        for i in range(config.episodes)
    ]
    manifest = {
        "format": FORMAT_TAG,
        "generator": "pong",
        "seed": config.seed,
        "dims": {"inputs": 5, "outputs": 3},
        "episodes": config.episodes,
        "params": asdict(config),
    }
    return Dataset(episodes=episodes, manifest=manifest)


# ---------------------------------------------------------------------------
# serialization


def _episode_record(ep: Episode) -> dict:
    rec: dict = {"x": ep.x.tolist(), "y": ep.y.tolist()}
    if ep.mask is not None:
        rec["mask"] = ep.mask.tolist()
    if ep.meta:
        rec["meta"] = ep.meta
    return rec


def save_dataset(dataset: Dataset, path: str) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(dataset.manifest) + "\n")
        for ep in dataset.episodes:
            fh.write(json.dumps(_episode_record(ep)) + "\n")


def load_dataset(path: str) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetError("empty dataset file")
    with malformed(DatasetError, "line 1: malformed manifest"):
        manifest = json.loads(lines[0])
        if manifest.get("format") != FORMAT_TAG:
            raise DatasetError(f"line 1: missing or unsupported format tag "
                               f"(expected {FORMAT_TAG!r})")
        declared, n_in, n_out = (count(manifest, "episodes"),
                                 count(manifest["dims"], "inputs"),
                                 count(manifest["dims"], "outputs"))
    body = [(n, ln) for n, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if declared != len(body):
        raise DatasetError(f"manifest declares {declared} episodes, "
                           f"file has {len(body)}")
    episodes = []
    for lineno, ln in body:
        with malformed(DatasetError, f"line {lineno}: malformed episode"):
            rec = json.loads(ln)
            unknown = set(rec) - {"x", "y", "mask", "meta"}
            x, y = numbers(rec, "x", 2), numbers(rec, "y", 2)
            mask = numbers(rec, "mask", 2) if "mask" in rec else None
            meta = rec.get("meta", {})
        if unknown:
            raise DatasetError(f"line {lineno}: unknown keys {sorted(unknown)}")
        if type(meta) is not dict:
            raise DatasetError(f"line {lineno}: meta must be a JSON object")
        if x.shape[1] != n_in or y.shape[1] != n_out:
            raise DatasetError(f"line {lineno}: episode dims inconsistent "
                               f"with manifest {n_in}x{n_out}")
        if len(x) != len(y) or (mask is not None and mask.shape != y.shape):
            raise DatasetError(f"line {lineno}: sequence lengths disagree")
        episodes.append(Episode(x=x, y=y, mask=mask, meta=meta))
    return Dataset(episodes=episodes, manifest=manifest)
