"""Minimal Pong on an integer grid: the closed loop's environment.

The ball moves diagonally one cell per step and reflects off the top,
bottom and far walls. The paddle sits on the near wall (x = 0) and moves
one cell per step. A ball arriving at the near wall either bounces off the
paddle (a hit) or ends the episode (a miss).

Observations are five channels normalized to [-1, 1]: ball x, ball y,
velocity x, velocity y, paddle center y. Actions are {-1, 0, +1} encoded
one-hot over three channels (down, stay, up).

``PongEnv`` plays one game; the closed-loop evaluation steps a network
through a list of them. The scripted expert lives in the imitation-data
generator (``datasets.gen_pong``), which plays whole blocks of games as
arrays with the same rules and the same observation formula, ``_unit``;
a test holds it to ``PongEnv`` game for game.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import Rng

ACTIONS = (-1, 0, 1)


@dataclass(frozen=True)
class PongConfig:
    width: int = 12
    height: int = 12
    paddle_len: int = 3
    max_steps: int = 150

    def validate(self) -> None:
        if self.width < 8 or self.height < 8:
            raise ValueError("grid must be at least 8x8")
        if not 1 <= self.paddle_len < self.height:
            raise ValueError(f"paddle length must be >= 1 and shorter than the "
                             f"grid height, got {self.paddle_len}")
        if self.paddle_len % 2 != 1:
            raise ValueError("paddle length must be odd")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


def _unit(v, size: int):
    """A grid coordinate (an int or an integer array) scaled to [-1, 1]."""
    return 2.0 * v / (size - 1) - 1.0


class PongEnv:
    def __init__(self, config: PongConfig, rng: Rng):
        config.validate()
        self.cfg = config
        self.half = config.paddle_len // 2
        self.rng = rng
        self.reset()

    def reset(self) -> None:
        cfg = self.cfg
        self.ball_x = cfg.width // 2
        self.ball_y = self.rng.randrange(1, cfg.height - 2)
        self.vel_x = -1 if self.rng.chance(0.5) else 1
        self.vel_y = -1 if self.rng.chance(0.5) else 1
        self.paddle = cfg.height // 2
        self.hits = 0
        self.missed = False
        self.done = False
        self.steps = 0

    def observation(self) -> tuple[float, float, float, float, float]:
        """The five channels as plain floats: ``np.array`` of one or of a
        list of them gives the float64 stimuli, with no array per step."""
        cfg = self.cfg
        return (_unit(self.ball_x, cfg.width),
                _unit(self.ball_y, cfg.height),
                float(self.vel_x),
                float(self.vel_y),
                _unit(self.paddle, cfg.height))

    def step(self, action: int) -> None:
        if self.done:
            raise RuntimeError("episode already finished")
        cfg = self.cfg
        self.paddle = min(max(self.paddle + action, self.half),
                          cfg.height - 1 - self.half)
        ny = self.ball_y + self.vel_y
        if ny < 0 or ny > cfg.height - 1:
            self.vel_y = -self.vel_y
            ny = self.ball_y + self.vel_y
        nx = self.ball_x + self.vel_x
        if nx > cfg.width - 1:
            self.vel_x = -self.vel_x
            nx = self.ball_x + self.vel_x
        if nx == 0:
            if abs(ny - self.paddle) <= self.half:
                self.hits += 1
                self.vel_x = 1
            else:
                self.missed = True
                self.done = True
        self.ball_x, self.ball_y = nx, ny
        self.steps += 1
        if self.steps >= cfg.max_steps:
            self.done = True

    @property
    def approaches(self) -> int:
        return self.hits + (1 if self.missed else 0)


def action_from_index(index: int) -> int:
    return ACTIONS[index]
