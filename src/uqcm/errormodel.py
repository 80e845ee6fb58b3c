"""Fidelity error budget: analytic bound and empirical perturbation sweeps.

The bench's fidelity error has two dominant sources: oscillation of the
per-path relative counts (Delta C_i, four paths of the first replica group)
and the orientation precision of the waveplates (Delta theta). The
analytic upper bound combines them as

    Delta F = sum_i Delta C_i + (3/2) Delta theta,

which depends on the Delta C_i only through their total, `delta_c_total`.

The empirical side perturbs the axis angle of every half-wave plate, the
bench's only mounted axes, independently and reruns the exact pipeline.
Only the source photon's column is propagated, for the jittered copies of
the bench at any number of (theta, delta) points at once, in blocks of
TRAIN_BLOCK trains that bound the working set; samples exceeding a
supplied bound are counted rather than silently accepted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .hilbert import _qubit_stokes, _stokes_fidelity
from .network import _input_amplitudes, optimal_fidelity
from .optics import HWP, N_BENCH_PATHS, _body_elements, _input_elements, _propagate
from .streams import streams
from .tomography import _click_probabilities, _replica_stokes, _require_seed

_TARGET_F = optimal_fidelity(1, 2)
# Jittered trains per propagation batch: a block holds TRAIN_BLOCK source
# photon columns (16 amplitudes each) and their axis offsets, whatever the
# grid size or the sample count. An element step costs about the same
# whatever the block holds, so blocks are as large as memory allows: 1024
# makes the default 19 x 4 grid of 25 samples two passes, and the block's
# memory peak, its refit at about 1 kB a train, keeps the tracemalloc peak
# of a 2,000-step perturbed sweep at 1.47 MB (0.94 MB at 512).
TRAIN_BLOCK = 1024


def fidelity_error_bound(delta_c_total: float, delta_theta: float) -> float:
    """Upper bound on |Delta F|: the total count oscillation sum_i Delta C_i
    plus 1.5 * Delta theta, the waveplate orientation precision in radians."""
    for name, value in (("delta_c_total", delta_c_total), ("delta_theta", delta_theta)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    return float(delta_c_total + 1.5 * delta_theta)


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


def _jittered_fidelities(theta, delta, seeds, n_samples: int, jitter: float, delta_c_total: float) -> np.ndarray:
    """(N, n_samples, 2) replica fidelities of jittered benches at N input points.

    `theta`, `delta` and `seeds` have one entry per point. Sample i of point
    k draws from its own stream PCG64(SeedSequence((seeds[k], i))): first one
    uniform(-jitter, +jitter) offset per half-wave plate of the bench, in
    train order, then, if `delta_c_total` > 0, the four count-oscillation
    factors u_i in [-1, 1], which scale the replica-1 path weights by
    1 + u_i delta_c_total / sum |u_i|. The (point, sample) trains are taken
    point-major in blocks of TRAIN_BLOCK. A block's streams are seeded
    together by `streams.streams`; each fills its row of one buffer with
    random(), which is scaled in place as Generator.uniform would scale it.
    Each block then propagates only the source photon's column (mode
    (path 0, H)), a (TRAIN_BLOCK, 16, 1) batch, through its input elements
    and the shared body in one `optics._propagate` call: row arithmetic,
    each half-wave plate as two (trains,) coefficient rows cos 2(a + d) and
    sin 2(a + d), no arithmetic on the rows the photon has not reached,
    and every element checked unitary as it is applied.
    """
    theta, delta = np.asarray(theta, dtype=float), np.asarray(delta, dtype=float)
    bloch = _qubit_stokes(_input_amplitudes(theta, delta))
    body = _body_elements()
    n_oriented = sum(isinstance(e, HWP) for e in _input_elements(0.0, 0.0) + body)
    n_trains = theta.size * n_samples
    n_draws = n_oriented + (4 if delta_c_total > 0.0 else 0)
    # Generator.uniform(low, high) is low + (high - low) * random(): each
    # block's draws are taken raw and scaled in place, column by column.
    low = np.repeat([-jitter, -1.0], [n_oriented, n_draws - n_oriented])
    span = np.repeat([2.0 * jitter, 2.0], [n_oriented, n_draws - n_oriented])
    seeds = np.asarray(seeds)
    fids = np.empty((n_trains, 2))
    for start in range(0, n_trains, TRAIN_BLOCK):
        train = np.arange(start, min(start + TRAIN_BLOCK, n_trains))
        point = train // n_samples
        # Seeded before the buffer exists: the first block's call also loads
        # numpy.random, whose memory then stays below the block's peak.
        rngs = streams(np.column_stack((seeds[point], train % n_samples)))
        draws = np.empty((train.size, n_draws))
        for k, rng in enumerate(rngs):
            rng.random(out=draws[k])
        draws *= span
        draws += low
        u = draws[:, n_oriented:].copy()
        column = np.zeros((train.size, 2 * N_BENCH_PATHS, 1), dtype=complex)
        column[:, 0, 0] = 1.0
        _propagate(_input_elements(theta[point], delta[point]) + body, column, draws[:, :n_oriented])
        del draws
        # Mode 2p + pol is path p's polarization: the rows regroup as (8, 2).
        # The refit takes ratios of clicks, so the photon needs no renormalising.
        probs = _click_probabilities(column[:, :, 0].reshape(train.size, N_BENCH_PATHS, 2))
        # Not needed for the refit, which is the block's memory peak.
        del column
        if delta_c_total > 0.0:
            norm = np.abs(u).sum(axis=1, keepdims=True)
            probs[:, 0:4] *= (1.0 + u * (delta_c_total / np.where(norm > 0.0, norm, 1.0)))[:, :, None]
        fids[start:start + train.size] = _stokes_fidelity(_replica_stokes(probs), bloch[point])
    return fids.reshape(theta.size, n_samples, 2)


def perturbation_sweep(
    jitter: float,
    n_samples: int,
    seed: int,
    theta: float = 0.0,
    delta: float = 0.0,
    delta_c_total: float = 0.0,
    bound: float | None = None,
) -> PerturbationResult:
    """Rerun the exact optical pipeline under waveplate angle jitter.

    Each sample draws an independent uniform(-jitter, +jitter) offset for
    every half-wave plate of the bench for input (theta, delta), adds
    the optional count-oscillation injection (the four replica-1 path
    weights are scaled by 1 + u_i with sum |u_i| = delta_c_total, at most 1
    so that no weight turns negative), and records |F - 5/6| of replica 1.
    Deterministic given the seed: sample i draws from its own substream
    (seed, i). The single-point use of `_jittered_fidelities`, the kernel the
    perturbed sweep runs over its whole grid: the jittered trains propagate
    the source photon's column in blocks of TRAIN_BLOCK, each element checked
    unitary, and every sample is scored from its (8, 4) click probabilities.
    Samples whose |F - 5/6| exceeds a nonnegative `bound` are counted; an
    infinite bound flags none.
    """
    _require_seed(seed)
    if not (math.isfinite(jitter) and jitter >= 0):
        raise ValueError(f"jitter must be finite and nonnegative, got {jitter!r}")
    if not (isinstance(n_samples, numbers.Integral) and n_samples >= 1):
        raise ValueError(f"n_samples must be a positive integer, got {n_samples!r}")
    if not 0 <= delta_c_total <= 1:
        raise ValueError(f"delta_c_total must be finite and in [0, 1], got {delta_c_total!r}")
    if not (bound is None or bound >= 0):
        raise ValueError(f"bound must be None or nonnegative, got {bound!r}")
    f1s, f2s = _jittered_fidelities([theta], [delta], [seed], n_samples, jitter, delta_c_total)[0].T
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
