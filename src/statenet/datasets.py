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
exactly K pairings (up to K = 4), and all other episodes receive one or
four pairings at odds 6:1. Without such a law the first testing step of an
under-threshold episode is indistinguishable from one more training step,
and no causal model can label both correctly. The law is fixed in code:
``PavlovConfig`` sets only the count, seed, K, noise, split and the
canonical-episode switch, so no configuration can break that guarantee.

Input noise flips stimulus bits; targets are always computed from the
clean stimuli.

Every conditioning episode draws from its own splitmix64 stream. The
generator runs blocks of ``GEN_BLOCK`` episodes, drawing each step of
every stream in the block as one array operation (``rng.RowRng``), and
builds the block's stimuli, targets and masks as arrays: an episode draws
and holds exactly what it would if generated alone.

Pong episodes record the scripted expert playing: observations as inputs,
the executed (possibly noise-perturbed) action one-hot as targets. The
expert lives here: it moves the paddle toward the ball's current row,
staying on a tie, and its one-cell speed matches the ball's vertical
speed, so with no action noise it never misses on the default grid. The
generator plays every game of a block of ``GEN_BLOCK`` episodes in
lockstep, as integer arrays under the rules of ``pong.PongEnv`` (the
closed loop's environment), each game drawing from its own splitmix64
stream exactly what ``PongEnv`` with that stream would draw.

Files are line-delimited JSON: a manifest line, then one episode per line,
numbers at full round-trip precision. Each episode line is the text
``json.dumps`` writes for its record; the writer builds it in blocks of
``SAVE_STEPS`` steps of consecutive episodes, encoding each distinct value
of a block once.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .jsonio import atomic_write, count, malformed, numbers
from .pong import ACTIONS, PongConfig, _unit
from .rng import RowRng, derive_seed

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


# The stage-length law. Each stimulus is presented 1..3 times in the
# initial stage and the testing stage lasts 1..3 steps, all uniform. The
# held-out split is the episodes whose testing stage has the middle length:
# the training split keeps the shorter and longer testing stages, so every
# held-out step position is interpolation while the (initial, training,
# testing) length combination itself never occurs in training.
HELDOUT_TEST_LEN = 2


@dataclass(frozen=True)
class PavlovConfig:
    episodes: int = 1000
    seed: int = 0
    conditioning_threshold: int = 2         # K: test S=1 iff m >= K
    noise_p: float = 0.02
    split: str = "all"                      # all | train | heldout
    paper_exact: bool = False

    def validate(self) -> None:
        if self.conditioning_threshold < 1:
            raise ValueError("conditioning threshold must be >= 1")
        if not 0.0 <= self.noise_p < 0.5:
            raise ValueError("noise_p must be in [0, 0.5)")
        if self.split not in ("all", "train", "heldout"):
            raise ValueError(f"unknown split {self.split!r}")
        if self.episodes < 1:
            raise ValueError("need at least one episode")


# Episodes generated per block. Every draw of a block is one array
# operation, and the block bounds the temporaries: under tracemalloc, 4096
# episodes hold about 1.5 MB of them in one pass and about 90 kB in blocks
# of 256.
GEN_BLOCK = 256

# Steps saved per block of consecutive episodes. A block encodes each
# distinct value of its tables once, and it bounds the writer's
# temporaries: under tracemalloc, about 0.6 MB for pong episodes and
# 0.23 MB for conditioning episodes, whatever the number of episodes.
SAVE_STEPS = 1024


def _pavlov_block(seeds: np.ndarray, cfg: PavlovConfig) -> list[Episode]:
    """The episodes drawn from the streams ``seeds``, one each."""
    rng = RowRng(seeds)
    n = len(seeds)
    rows = np.arange(n)
    k = cfg.conditioning_threshold
    if cfg.paper_exact:
        n_food = n_ring = test_len = np.ones(n, dtype=np.int64)
        m = np.full(n, 2)
    else:
        n_food, n_ring, m, test_len = np.zeros((4, n), dtype=np.int64)
        todo = rows
        while todo.size:
            f = 1 + rng.randint(todo, 3).astype(np.int64)
            r = 1 + rng.randint(todo, 3).astype(np.int64)
            # minimal-init episodes acquire with exactly K pairings: the
            # shortest stimulus prefix stays unambiguous for a causal
            # (one-step-delayed) predictor, which is what keeps the
            # canonical five-step episode predictable at every step (above
            # K = 4 no episode acquires)
            mt = np.full(todo.size, k)
            # the others get m = 1 or 4 at odds 6:1: under-threshold
            # episodes dominate, and the gap keeps single input-bit flips
            # from crossing the category border
            draw = (f != 1) | (r != 1) | (k > 4)
            mt[draw] = np.where(rng.uniform(todo[draw], 0.0, 7.0) < 6.0, 1, 4)
            tl = 1 + rng.randint(todo, 3).astype(np.int64)
            n_food[todo], n_ring[todo], m[todo], test_len[todo] = f, r, mt, tl
            if cfg.split == "all":
                break
            # an episode of the other split draws its whole attempt again
            todo = todo[(tl == HELDOUT_TEST_LEN) != (cfg.split == "heldout")]

    # one row per step of the block, episode after episode
    init_len = n_food + n_ring
    length = init_len + m + test_len
    ends = np.cumsum(length)
    ep = np.repeat(rows, length)
    t = np.arange(ends[-1]) - np.repeat(ends - length, length)
    in_init = t < init_len[ep]
    # the initial stage alternates F and R starting with F while both
    # remain, then presents the rest of the more frequent one
    food = np.where(t < 2 * np.minimum(n_food, n_ring)[ep], t % 2 == 0,
                    (n_food > n_ring)[ep])
    in_train = ~in_init & (t < (init_len + m)[ep])
    acquired = m >= k
    x = np.stack([np.where(in_init, food, in_train), ~in_init | ~food], axis=1)
    if cfg.noise_p > 0.0 and not cfg.paper_exact:
        # 2 draws per step, in (step, channel) order. Every row draws as
        # many as the longest episode needs and keeps its own first ones:
        # an episode draws nothing after its noise, and the block's streams
        # are dropped here, so the surplus draws change nothing.
        width = 2 * int(length.max())
        flips = rng.chance(rows, cfg.noise_p, width).reshape(n, width)
        x ^= flips[np.arange(width) < 2 * length[:, None]].reshape(-1, 2)
    x = x.astype(np.float64)
    y = np.where(in_init, food, in_train | acquired[ep])
    y = y.astype(np.float64)[:, None]
    # initial-stage steps beyond the second carry no loss: their targets
    # depend on the same-step stimulus, which a one-step-delayed network
    # cannot observe
    mask = (~in_init | (t < 2)).astype(np.float64)[:, None]

    episodes = []
    for lo, hi, nf, nr, mi, tl, acq in zip(
            (ends - length).tolist(), ends.tolist(), n_food.tolist(),
            n_ring.tolist(), m.tolist(), test_len.tolist(), acquired.tolist()):
        init_end = nf + nr
        meta = {
            "stages": {"init": [0, init_end],
                       "train": [init_end, init_end + mi],
                       "test": [init_end + mi, hi - lo]},
            "n_food": nf, "n_ring": nr, "pairings": mi, "test_len": tl,
            "acquired": acq,
        }
        episodes.append(Episode(x=x[lo:hi], y=y[lo:hi], mask=mask[lo:hi],
                                meta=meta))
    return episodes


def _generate(config, name: str, key: int, dims: dict, block) -> Dataset:
    """The dataset of ``config.episodes`` episodes whose episode ``i``
    draws from the stream ``derive_seed(config.seed, key, i)``; ``block``
    makes the episodes of a block of streams together, as arrays."""
    config.validate()
    episodes: list[Episode] = []
    for lo in range(0, config.episodes, GEN_BLOCK):
        ids = np.arange(lo, min(lo + GEN_BLOCK, config.episodes),
                        dtype=np.uint64)
        episodes += block(derive_seed(config.seed, key, ids), config)
    manifest = {
        "format": FORMAT_TAG,
        "generator": name,
        "seed": config.seed,
        "dims": dims,
        "episodes": config.episodes,
        "params": asdict(config),
    }
    return Dataset(episodes=episodes, manifest=manifest)


def gen_pavlov(config: PavlovConfig) -> Dataset:
    """Generate conditioning episodes. Deterministic for a given seed.

    Episode ``i`` draws from the stream ``derive_seed(seed, 0x9A7, i)``;
    a block of episodes draws its streams together as arrays.
    """
    return _generate(config, "pavlov", 0x9A7, {"inputs": 2, "outputs": 1},
                     _pavlov_block)


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


def _pong_block(seeds: np.ndarray, cfg: PongDataConfig) -> list[Episode]:
    """The expert's games drawn from the streams ``seeds``, one each, played
    in lockstep. A game draws, plays and records exactly what ``PongEnv``
    with ``Rng(seed)`` would: its state is one entry of each integer array,
    and a finished game's entries are dropped."""
    env = cfg.env
    half = env.paddle_len // 2
    top = env.height - 1 - half
    rng = RowRng(seeds)
    n = len(seeds)
    live = np.arange(n)
    # PongEnv.reset
    bx = np.full(n, env.width // 2)
    by = 1 + rng.randint(live, env.height - 2).astype(np.int64)
    vx = np.where(rng.chance(live, 0.5), -1, 1)
    vy = np.where(rng.chance(live, 0.5), -1, 1)
    pad = np.full(n, env.height // 2)
    hits = np.zeros(n, dtype=np.int64)
    missed = np.zeros(n, dtype=bool)
    length = np.full(n, env.max_steps)
    # per step: the live games, the five observed fields, the actions
    games, obs, acts = [], ([], [], [], [], []), []
    for t in range(1, env.max_steps + 1):
        # the expert moves toward the ball's row, staying on a tie
        act = np.clip(by - pad, -1, 1)
        if cfg.expert_noise_p > 0.0:
            fire = np.flatnonzero(rng.chance(live, cfg.expert_noise_p))
            act[fire] = rng.randint(live[fire], 3).astype(np.int64) - 1
        # every step makes new state arrays, so the recorded ones stay
        games.append(live)
        for o, a in zip(obs, (bx, by, vx, vy, pad)):
            o.append(a)
        acts.append(act)
        # PongEnv.step
        pad = np.minimum(np.maximum(pad + act, half), top)
        ny = by + vy
        vy = np.where((ny < 0) | (ny > env.height - 1), -vy, vy)
        by = by + vy
        vx = np.where(bx + vx > env.width - 1, -vx, vx)
        bx = bx + vx
        wall = bx == 0
        d = by - pad
        hit = wall & (-half <= d) & (d <= half)
        hits[live[hit]] += 1
        vx = np.where(hit, 1, vx)
        miss = wall ^ hit
        if miss.any():
            missed[live[miss]] = True
            length[live[miss]] = t
            keep = ~miss
            if not keep.any():
                break
            live, bx, by, vx, vy, pad = (a[keep] for a in
                                         (live, bx, by, vx, vy, pad))

    # the records are step-major: game g's step t goes to row starts[g] + t
    # of the block's episode-major arrays; each record is freed once used
    ends = np.cumsum(length)
    starts = ends - length
    rows = np.concatenate([starts[g] + t for t, g in enumerate(games)])
    x = np.empty((ends[-1], 5))
    # the channels of PongEnv.observation
    for j, size in enumerate((env.width, env.height, None, None, env.height)):
        v = np.concatenate(obs[j])
        obs[j].clear()
        x[rows, j] = v if size is None else _unit(v, size)
    act = np.empty(ends[-1], dtype=np.int64)
    act[rows] = np.concatenate(acts)
    del games, acts, rows
    act += 1                        # its index in ACTIONS = (-1, 0, 1)
    onehot = np.eye(len(ACTIONS))
    return [Episode(x=x[lo:hi].copy(), y=onehot[act[lo:hi]], mask=None,
                    meta={"hits": h, "missed": m, "length": hi - lo})
            for lo, hi, h, m in zip(starts.tolist(), ends.tolist(),
                                    hits.tolist(), missed.tolist())]


def gen_pong(config: PongDataConfig) -> Dataset:
    """Record the scripted expert playing. Deterministic for a given seed.

    Episode ``i`` draws from the stream ``derive_seed(seed, 0xB0A, i)``;
    a block of episodes plays its games together as arrays.
    """
    return _generate(config, "pong", 0xB0A, {"inputs": 5, "outputs": 3},
                     _pong_block)


# ---------------------------------------------------------------------------
# serialization


def _blocks(episodes: list[Episode]):
    """The episodes in runs of consecutive ones, each of at most
    ``SAVE_STEPS`` steps (an episode longer than that alone)."""
    block, steps = [], 0
    for ep in episodes:
        if block and steps + ep.length > SAVE_STEPS:
            yield block
            block, steps = [], 0
        block.append(ep)
        steps += ep.length
    if block:
        yield block


def _tables(arrays: list[np.ndarray]) -> list[str]:
    """Each of the equally wide 2-D ``arrays`` as ``json.dumps`` writes its
    ``tolist()`` in float64, with every distinct value encoded once: keyed
    by its bits, so ``-0.0`` stays apart from ``0.0``, and all of them in
    one encoder call, whose text no number's text can split."""
    flat = np.concatenate(arrays, dtype=np.float64)
    bits = flat.view(np.uint64).ravel().tolist()
    distinct = list(dict.fromkeys(bits))
    values = np.array(distinct, dtype=np.uint64).view(np.float64).tolist()
    words = dict(zip(distinct, json.dumps(values)[1:-1].split(", ")))
    cells = map(words.__getitem__, bits)
    # zip of no iterables yields nothing: a zero-width table's rows are ""
    rows = (list(map(", ".join, zip(*[cells] * flat.shape[1])))
            or [""] * len(flat))
    tables, lo = [], 0
    for a in arrays:
        hi = lo + len(a)
        tables.append("[[" + "], [".join(rows[lo:hi]) + "]]" if hi > lo
                      else "[]")
        lo = hi
    return tables


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write ``dataset``: its manifest line, then per episode the line
    ``json.dumps({"x": x.tolist(), "y": y.tolist()[, "mask": ...][,
    "meta": meta]})``, each table in float64. Tables of one key that
    differ in width are refused, as the loader would refuse the file."""
    for key in ("x", "y", "mask"):
        widths = {getattr(ep, key).shape[1] for ep in dataset.episodes
                  if getattr(ep, key) is not None}
        if len(widths) > 1:
            raise ValueError(f"episode {key} tables differ in width: "
                             f"{sorted(widths)}")
    with atomic_write(path) as fh:
        fh.write(json.dumps(dataset.manifest) + "\n")
        for block in _blocks(dataset.episodes):
            xs = _tables([ep.x for ep in block])
            ys = _tables([ep.y for ep in block])
            masked = [ep.mask for ep in block if ep.mask is not None]
            masks = iter(_tables(masked) if masked else ())
            for ep, x, y in zip(block, xs, ys):
                line = '{"x": ' + x + ', "y": ' + y
                if ep.mask is not None:
                    line += ', "mask": ' + next(masks)
                if ep.meta:
                    line += ', "meta": ' + json.dumps(ep.meta)
                fh.write(line + "}\n")


def load_dataset(path: str) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        # only "\n" ends a line: str.splitlines() also splits on U+2028,
        # U+2029 and U+0085, which JSON strings may hold unescaped
        lines = fh.read().split("\n")
    if lines == [""]:
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
        try:
            rec = json.loads(ln)
            unknown = set(rec) - {"x", "y", "mask", "meta"}
            x, y = numbers(rec, "x", 2), numbers(rec, "y", 2)
            mask = numbers(rec, "mask", 2) if "mask" in rec else None
            meta = rec.get("meta", {})
        except Exception:
            # ``malformed`` names the line on the error path only (a
            # context per line costs more than the check itself)
            with malformed(DatasetError,
                           f"line {lineno}: malformed episode"):
                raise
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
