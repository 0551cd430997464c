"""Flat trainable-parameter vector with a named segment registry.

Segments, in order:

* ``w0``            — initial weight of every edge: each edge's rollout
                      weight starts at it at every episode start, and a
                      static edge's stays there,
* ``self_coeff``    — rate-neuron self-state coefficient, one per non-input
                      rate neuron,
* ``bias``          — rate-neuron bias, aligned with ``self_coeff``,
* ``learn_rate``    — hebbian meta learning rate, one per hebbian edge in
                      topology order (present iff hebbian edges exist),
* ``retention_raw`` — hebbian retention (one shared scalar), stored
                      unconstrained and squashed to (0, 1) with a sigmoid
                      on read.

``self_coeff``, ``bias`` and ``learn_rate`` read as ``(k, 1)`` columns,
which broadcast against a batch's ``(k, B)`` neuron or edge values. LIF
cell constants and the plasticity constants (clip bound, stdp magnitudes,
trace decay) are not trained; they live in the topology and in
``plasticity`` respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plasticity import squash_retention
from .topology import NetworkTopology


@dataclass
class ParameterSet:
    flat: np.ndarray
    registry: dict[str, slice]

    @classmethod
    def from_topology(cls, topology: NetworkTopology,
                      learn_rate_init: float = 0.01,
                      retention_init: float = 0.95) -> "ParameterSet":
        """The topology's initial weights and cell parameters; every
        hebbian learning rate starts at ``learn_rate_init`` and the
        retention at ``retention_init``, in (0, 1)."""
        registry: dict[str, slice] = {}
        chunks: list[np.ndarray] = []
        offset = 0

        def add(name: str, values: np.ndarray) -> None:
            nonlocal offset
            registry[name] = slice(offset, offset + len(values))
            chunks.append(np.asarray(values, dtype=np.float64))
            offset += len(values)

        add("w0", topology.w0)
        rate = topology.rate_ids
        add("self_coeff", np.array(
            [topology.neurons[i].params.self_coeff for i in rate]))
        add("bias", np.array([topology.neurons[i].params.bias for i in rate]))
        if len(topology.hebbian_pos):
            add("learn_rate", np.full(len(topology.hebbian_pos),
                                      learn_rate_init))
            # the inverse of squash_retention
            add("retention_raw", np.array(
                [math.log(retention_init / (1.0 - retention_init))]))
        flat = np.concatenate(chunks) if chunks else np.zeros(0)
        return cls(flat=flat, registry=registry)

    @property
    def count(self) -> int:
        return len(self.flat)

    def segment(self, name: str) -> np.ndarray:
        """View into the flat vector (shared memory)."""
        if name not in self.registry:
            raise KeyError(f"parameter set has no segment {name!r}")
        return self.flat[self.registry[name]]

    def has(self, name: str) -> bool:
        return name in self.registry

    @property
    def w0(self) -> np.ndarray:
        return self.segment("w0")

    @property
    def self_coeff(self) -> np.ndarray:
        return self.segment("self_coeff")[:, None]

    @property
    def bias(self) -> np.ndarray:
        return self.segment("bias")[:, None]

    @property
    def learn_rate(self) -> np.ndarray:
        """Per-hebbian-edge learning rates (none when no hebbian edges)."""
        return self.flat[self.registry.get("learn_rate", slice(0))][:, None]

    @property
    def retention(self) -> float:
        if not self.has("retention_raw"):
            return 1.0
        return squash_retention(float(self.segment("retention_raw")[0]))

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.flat.copy(), dict(self.registry))

    def with_flat(self, flat: np.ndarray) -> "ParameterSet":
        if len(flat) != len(self.flat):
            raise ValueError("flat vector length mismatch")
        return ParameterSet(np.asarray(flat, dtype=np.float64),
                            dict(self.registry))
