"""Shared types: empirical measures, the diagonal-Gaussian reference, and
seeded random streams."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted empirical measure on n atoms in R^d.

    Atoms are stored as an (n, d) array. All estimators downstream treat the
    measure as (1/n) sum_i delta_{x_i}; there are no per-atom weights.
    """

    atoms: np.ndarray  # (n, d)

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 2:
            raise ValueError(f"atoms must have shape (n, d), got ndim={atoms.ndim}")
        if atoms.shape[0] < 1:
            raise ValueError("an empirical measure needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        object.__setattr__(self, "atoms", atoms)

    @property
    def n(self) -> int:
        return self.atoms.shape[0]


@dataclass(frozen=True)
class DiagonalGaussian:
    """Reference distribution N(mean, diag(variances)) on R^d."""

    mean: np.ndarray  # (d,)
    variances: np.ndarray  # (d,)

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        var = np.atleast_1d(np.asarray(self.variances, dtype=float))
        if mean.ndim != 1 or var.shape != mean.shape:
            raise ValueError("mean and variances must be 1-d arrays of equal length")
        if np.any(var <= 0.0) or not np.all(np.isfinite(var)):
            raise ValueError("variances must be positive and finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variances", var)

    @classmethod
    def standard(cls, dim: int) -> "DiagonalGaussian":
        return cls(np.zeros(dim), np.ones(dim))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def log_grad(self, x: np.ndarray) -> np.ndarray:
        """Gradient of the log density, broadcasting over leading axes."""
        return -(np.asarray(x, dtype=float) - self.mean) / self.variances

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mean + np.sqrt(self.variances) * rng.standard_normal((n, self.dim))


def _label_words(label: Any) -> list[int]:
    # Stable across processes: hash the repr bytes, not id-based Python hash.
    digest = hashlib.sha256(repr(label).encode("utf8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def seeded_stream(seed: int, *labels: Any) -> np.random.Generator:
    """Counter-based generator for a (seed, labels...) address.

    Streams for distinct label tuples are statistically independent and do
    not depend on creation order, so per-particle substreams can be drawn
    from in any schedule without changing results. ``seed`` is a
    non-negative int of any size; numpy splits it into 32-bit words.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy: list[int] = [int(seed)]
    for label in labels:
        entropy.extend(_label_words(label))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
