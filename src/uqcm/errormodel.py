"""Fidelity error budget: analytic bound and empirical perturbation sweeps.

The bench's fidelity error has two dominant sources: oscillation of the
per-path relative counts (Delta C_i, four paths of the first replica group)
and the orientation precision of the waveplates and polarizers (Delta
theta). The analytic upper bound combines them as

    Delta F = sum_i Delta C_i + (3/2) Delta theta.

The empirical side perturbs every mounted axis angle of the optical train
independently and reruns the exact pipeline, propagating all jittered
copies of the train as one batch and scoring all of them in one
reconstruction call; samples exceeding a supplied bound are counted rather
than silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import cloner_prep_angles, input_state, optimal_fidelity
from .optics import (
    N_BENCH_PATHS,
    ORIENTED_ELEMENTS,
    _cloner_train_elements,
    _propagate,
    _require_lossless,
)
from .tomography import _click_probabilities, _replica_fidelities

_TARGET_F = optimal_fidelity(1, 2)


@dataclass(frozen=True)
class ErrorBudget:
    """Relative count oscillations per replica-1 path and orientation precision."""

    delta_c: tuple
    delta_theta: float

    def __post_init__(self):
        dc = tuple(float(x) for x in self.delta_c)
        if len(dc) != 4:
            raise ValueError(f"delta_c needs 4 entries, got {len(dc)}")
        if any(x < 0 for x in dc) or self.delta_theta < 0:
            raise ValueError("error budget entries must be nonnegative")
        object.__setattr__(self, "delta_c", dc)


def fidelity_error_bound(budget: ErrorBudget) -> float:
    """Upper bound on |Delta F|: sum of count oscillations plus 1.5 * Delta theta."""
    return float(sum(budget.delta_c) + 1.5 * budget.delta_theta)


@dataclass(frozen=True)
class PerturbationResult:
    """Empirical |Delta F| distribution from an angle-jitter sweep."""

    jitter: float
    delta_c_total: float
    n_samples: int
    seed: int
    deviations: np.ndarray
    fidelities1: np.ndarray
    fidelities2: np.ndarray
    bound: float | None = None

    def __post_init__(self):
        for name in ("deviations", "fidelities1", "fidelities2"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def min_deviation(self) -> float:
        return float(self.deviations.min())

    @property
    def mean_deviation(self) -> float:
        return float(self.deviations.mean())

    @property
    def max_deviation(self) -> float:
        return float(self.deviations.max())

    @property
    def n_exceeding_bound(self):
        if self.bound is None:
            return None
        return int(np.sum(self.deviations > self.bound))


def perturbation_sweep(
    jitter: float,
    n_samples: int,
    seed: int,
    theta: float = 0.0,
    delta: float = 0.0,
    delta_c_total: float = 0.0,
    bound: float | None = None,
) -> PerturbationResult:
    """Rerun the exact optical pipeline under waveplate/polarizer angle jitter.

    Each sample draws an independent uniform(-jitter, +jitter) offset for
    every axis-mounted element of the bench for input (theta, delta), adds
    the optional count-oscillation injection (the four replica-1 path
    weights are scaled by 1 + u_i with sum |u_i| = delta_c_total), and
    records |F - 5/6| of replica 1. Deterministic given the seed: sample i
    draws from its own substream (seed, i). The jittered trains of all
    samples are compiled as one batch, and each is checked unitary. The
    source photon's output columns, regrouped as (samples, 8 paths, 2
    polarizations), give every sample's (8, 4) click probabilities in one
    product, and `_replica_fidelities` scores all samples at once.
    """
    if jitter < 0:
        raise ValueError("jitter must be nonnegative")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if delta_c_total < 0:
        raise ValueError("delta_c_total must be nonnegative")
    elements = _cloner_train_elements(theta, delta, cloner_prep_angles())
    n_oriented = sum(isinstance(e, ORIENTED_ELEMENTS) for e in elements)
    rngs = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        for i in range(n_samples)
    ]
    offsets = np.array([rng.uniform(-jitter, jitter, size=n_oriented) for rng in rngs])
    dim = 2 * N_BENCH_PATHS
    trains = _propagate(elements, np.tile(np.eye(dim, dtype=complex), (n_samples, 1, 1)), offsets)
    _require_lossless(trains)
    # The source photon enters in mode (path 0, H): column 0. Mode 2p + pol
    # is path p's polarization, so the rows regroup as (samples, 8, 2).
    out = trains[:, :, 0]
    out = out / np.linalg.norm(out, axis=1, keepdims=True)
    probs = _click_probabilities(out.reshape(n_samples, N_BENCH_PATHS, 2))
    if delta_c_total > 0.0:
        u = np.array([rng.uniform(-1.0, 1.0, size=4) for rng in rngs])
        norm = np.abs(u).sum(axis=1, keepdims=True)
        probs[:, 0:4] *= (1.0 + u * (delta_c_total / np.where(norm > 0.0, norm, 1.0)))[:, :, None]
    f1s, f2s = _replica_fidelities(probs, input_state(theta, delta)).T
    devs = np.abs(f1s - _TARGET_F)
    return PerturbationResult(
        jitter=jitter,
        delta_c_total=delta_c_total,
        n_samples=n_samples,
        seed=seed,
        deviations=devs,
        fidelities1=f1s,
        fidelities2=f2s,
        bound=bound,
    )
