"""Replica verification: probe qubit, path distributions, photon counting,
and density-matrix reconstruction by linear inversion.

A probe qubit prepared in (|0> + |1>)/sqrt(2) controls a swap of the two
replicas, so the eight detector paths split into two groups: paths 0-3
(probe 0) carry replica 1 on the polarization qubit and paths 4-7 (probe 1)
carry replica 2, swapped onto polarization. Each path's polarization is
measured in the four linearly independent settings

    H = |0>,  V = |1>,  D = (|0> + |1>)/sqrt(2),  R = (|0> + i|1>)/sqrt(2)

and the single-qubit inversion uses, with n = C_H + C_V,

    s_z = (C_H - C_V) / n,   s_x = 2 C_D / n - 1,   s_y = 2 C_R / n - 1,
    rho = (I + s_x X + s_y Y + s_z Z) / 2.

Finite counts can land outside the physical set; the reconstruction then
shortens the Stokes vector to unit length, which for a trace-one qubit
matrix is the same projection as clipping negative eigenvalues to zero and
renormalizing (and is idempotent and trace-preserving).

A replica's Stokes vector S is the H+V-weighted mean of its four paths'
vectors, and its fidelity with a pure input of Bloch vector n is
F = (1 + S . n) / 2; `_replica_stokes` evaluates S over whole count arrays.
The counting pipeline runs over any number of input points at once
(`_montecarlo_fidelities`, the kernel of the montecarlo sweep, of `uqcm
tomo --mode montecarlo` and of `montecarlo_report`), with the bench's one
detector bank (the module constants EFFICIENCY, DARK_RATE, MAX_RATE and
GATE_WINDOW) and N_BOOTSTRAP resamples per point; neither is a parameter.
Each call seeds all its streams, prices every point's clicks and draws every
point's counts in one pass each; only the refits and the bootstrap go in
blocks of MONTECARLO_BLOCK points. Only the
seeded draws stay per stream, in a fixed order: each setting's multinomial
and Poisson draws, capped at the trial count in the same row step, and each
point's bootstrap binomials. The rest is array arithmetic: the (4 N, 9)
multinomial table, the per-path inversion and the replica refits.
`_bootstrap_errors` gives the error bars of both the kernel and
`fidelity_report`, from one binomial call per point with a probability per
cell.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .hilbert import (
    DensityMatrix,
    PureState,
    _Record,
    _qubit_stokes,
    _require_physical_stokes,
    _stokes_fidelity,
    stokes_compose,
    stokes_decompose,
)
from .network import _clone_outputs, _input_amplitudes
from .optics import BENCH_REGISTER, MODE_QUBIT_INDEX, N_BENCH_PATHS
from .streams import streams

# Input points per refit and bootstrap block of the counting pipeline: the
# bootstrap holds MONTECARLO_BLOCK x N_BOOTSTRAP (8, 4) count arrays at once.
# Seeding, click probabilities and count draws run once per kernel call, over
# all its points (at most cli.MONTECARLO_SWEEP_BLOCK in a sweep).
MONTECARLO_BLOCK = 8

# Parametric-bootstrap resamples per point, the standard error's sample size.
N_BOOTSTRAP = 50

# Photons per basis setting: the counts are int64, and numpy's multinomial
# draw takes no larger trial number.
MAX_TRIALS = 2**63 - 1

BASES = ("H", "V", "D", "R")

SWEEP_MODES = ("exact", "montecarlo", "perturbed")
TOMO_MODES = ("exact", "montecarlo")

_SQ2 = 1.0 / math.sqrt(2.0)
BASIS_VECTORS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_SQ2, _SQ2], dtype=complex),
    "R": np.array([_SQ2, 1.0j * _SQ2], dtype=complex),
}
# (2, 4): amplitude rows times this give the basis-state overlaps H, V, D, R.
_BASIS_MATRIX = np.stack([BASIS_VECTORS[b] for b in BASES], axis=1).conj()

# Salt for deriving the bootstrap stream from a record's seed.
_BOOTSTRAP_SALT = 0x626F6F74

# The bench's single-photon counting modules; timing is not simulated.
EFFICIENCY = 0.70       # probability that a photon reaching a detector clicks
DARK_RATE = 50.0        # dark events per second
MAX_RATE = 20000.0      # detection rate cap, events per second
GATE_WINDOW = 5e-9      # gate, seconds: the bench passage time


class ReconstructionError(ValueError):
    """Counts are insufficient to invert a density matrix."""


class CountsRecord(_Record):
    """Simulated detector counts, indexed [path 0..7][basis H, V, D, R], as
    `simulate_counts` returns them; `seed` drives the bootstrap streams."""

    __slots__ = ("counts", "total_trials", "seed")

    def __init__(self, counts: np.ndarray, total_trials: int, seed: int):
        _require_seed(seed)
        raw = np.asarray(counts)
        if raw.shape != (N_BENCH_PATHS, len(BASES)):
            raise ValueError(f"counts must have shape (8, 4), got {raw.shape}")
        if raw.dtype.kind not in "biu" and not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
            raise ValueError("counts must be finite whole numbers")
        _require_trials(total_trials, "total_trials")
        counts = np.asarray(raw, dtype=np.int64)
        if counts.min() < 0 or counts.max() > total_trials:
            raise ValueError("counts must lie in [0, total_trials]")
        counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total_trials", total_trials)
        object.__setattr__(self, "seed", seed)


def _require_seed(seed) -> None:
    """`seed` a nonnegative integer, as the entropy of its streams must be."""
    if not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def _dark_mean(trials) -> float:
    """Expected dark counts per (path, basis) cell for a `trials` run."""
    return DARK_RATE * GATE_WINDOW * trials / MAX_RATE


def _require_trials(trials, name: str = "trials") -> None:
    """`trials` an integer in [1, MAX_TRIALS] (numpy's draws would truncate
    a fraction and overflow on a larger count)."""
    if not isinstance(trials, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"{name} must be positive, got {trials!r}")
    # int(): numpy 1.x compares a uint64 with MAX_TRIALS as float64s, both 2.0**63.
    if int(trials) > MAX_TRIALS:
        raise ValueError(f"{name} must be at most {MAX_TRIALS}, got {trials!r}")


def _aux_cswap(out) -> np.ndarray:
    """(..., 16) amplitudes on (aux, 1, 2, 3) for (..., 8) machine outputs on
    (1, 2, 3), the probe in (|0> + |1>)/sqrt(2) controlling a swap of qubits 1
    and 2: the probe-1 half is the output with those two axes exchanged."""
    out = np.asarray(out)
    qubits = out.reshape(out.shape[:-1] + (2, 2, 2))
    meas = _SQ2 * np.stack([qubits, np.swapaxes(qubits, -3, -2)], axis=-4)
    return meas.reshape(out.shape[:-1] + (16,))


def _path_rows(meas) -> np.ndarray:
    """(..., 8, 2) per-path polarization amplitudes of (..., 16) amplitudes on
    (aux, 1, 2, 3): row p, column pol is the bench's mode 2 * p + pol, read
    through `optics.MODE_QUBIT_INDEX`."""
    meas = np.asarray(meas)
    return meas[..., MODE_QUBIT_INDEX].reshape(meas.shape[:-1] + (N_BENCH_PATHS, 2))


def _click_probabilities(rows: np.ndarray) -> np.ndarray:
    """(..., 8, 4) click probabilities from (..., 8, 2) per-path amplitudes."""
    return (np.abs(rows.reshape(-1, 2) @ _BASIS_MATRIX) ** 2).reshape(rows.shape[:-1] + (4,))


def signal_probabilities(meas: PureState) -> np.ndarray:
    """(8, 4) probability of a click behind the polarizer per (path, basis)
    for a state on (aux, 1, 2, 3), as entering the detectors. The path index
    bits are (probe, q2, q3)."""
    if meas.labels != BENCH_REGISTER:
        raise ValueError(f"expected a state on (aux, 1, 2, 3), got {meas.labels!r}")
    return _click_probabilities(_path_rows(meas.amplitudes))


def _gate_probabilities(amps) -> np.ndarray:
    """(..., 8, 4) gate-tier click probabilities for (..., 2) input amplitudes:
    network image, probe-controlled swap as an axis exchange, polarizers."""
    return _click_probabilities(_path_rows(_aux_cswap(_clone_outputs(amps))))


def simulate_counts(signal_probs: np.ndarray, trials: int, seed: int) -> CountsRecord:
    """Simulate photon counting for all four polarizer settings.

    Per setting, `trials` emitted photons distribute multinomially over the
    eight detectors and an absorbed remainder, so each (path, basis) cell is
    marginally Binomial(trials, p * EFFICIENCY); a single photon can only
    fire one detector, which anticorrelates the path counts. Poisson dark
    counts with mean DARK_RATE * GATE_WINDOW * trials / MAX_RATE are added
    per cell, capped at `trials`. Each basis setting consumes its own
    substream derived from (seed, basis index), so settings may be simulated
    in parallel without changing the result.

    `trials` must be an integer in [1, MAX_TRIALS], and a setting's
    probabilities may sum to at most 1 (within 1e-12): one photon fires one
    detector.
    """
    _require_seed(seed)
    probs = np.asarray(signal_probs, dtype=float)
    if probs.shape != (N_BENCH_PATHS, len(BASES)):
        raise ValueError(f"signal_probs must have shape (8, 4), got {probs.shape}")
    _require_trials(trials)
    counts = _draw_counts(probs[None], trials, streams(_count_entropy([seed])))[0]
    return CountsRecord(counts=counts, total_trials=trials, seed=seed)


def _count_entropy(seeds) -> list:
    return [(seed, b) for seed in seeds for b in range(len(BASES))]


def _bootstrap_entropy(seeds) -> list:
    return [(seed, _BOOTSTRAP_SALT) for seed in seeds]


def _draw_counts(probs: np.ndarray, trials: int, rngs) -> np.ndarray:
    """(N, 8, 4) counts for (N, 8, 4) signal probabilities, drawn as in
    `simulate_counts`: basis b of point k takes generator 4 k + b of `rngs`,
    the streams of `_count_entropy(seeds)`; exactly 4 N are taken. Row 4 k + b
    of the multinomial table is contiguous, so it sums as one setting's array."""
    if not (probs.min() >= -1e-12 and probs.max() <= 1.0 + 1e-12):
        raise ValueError("signal probabilities must lie in [0, 1]")
    settings = np.ascontiguousarray(np.swapaxes(np.clip(probs, 0.0, 1.0), -1, -2)).reshape(-1, N_BENCH_PATHS)
    if settings.sum(axis=-1).max() > 1.0 + 1e-12:
        raise ValueError("signal probabilities of a setting must sum to at most 1: a photon fires one detector")
    detect = settings * EFFICIENCY
    pvals = np.concatenate([detect, np.maximum(0.0, 1.0 - detect.sum(axis=-1))[:, None]], axis=-1)
    pvals /= pvals.sum(axis=-1, keepdims=True)
    dark_mean = _dark_mean(trials)
    counts = np.empty(detect.shape, dtype=np.int64)
    for row, rng in zip(range(len(pvals)), rngs):
        signal, dark = rng.multinomial(trials, pvals[row])[:N_BENCH_PATHS], rng.poisson(dark_mean, size=N_BENCH_PATHS)
        counts[row] = np.minimum(signal, int(trials) - dark) + dark
    return np.swapaxes(counts.reshape(probs.shape[:-2] + (len(BASES), N_BENCH_PATHS)), -1, -2).copy()


def _path_stokes(counts: np.ndarray) -> np.ndarray:
    """(..., 3) per-path inversion of (..., 4) H, V, D, R counts, shortened to
    the unit ball; zero where a path has no H/V counts."""
    c_h, c_v, c_d, c_r = counts[..., 0], counts[..., 1], counts[..., 2], counts[..., 3]
    total = c_h + c_v
    n = np.where(total > 0, total, 1.0)
    sx, sy, sz = 2 * c_d / n - 1.0, 2 * c_r / n - 1.0, (c_h - c_v) / n
    # Stacked in C order: the refit's einsum sums in an order set by its operands' layout.
    s = np.stack([sx, sy, sz], axis=-1) / np.maximum(np.sqrt(sx * sx + sy * sy + sz * sz), 1.0)[..., None]
    return np.where((total > 0)[..., None], s, 0.0)


def _replica_stokes(counts, replicas=(1, 2)) -> np.ndarray:
    """(..., len(replicas), 3) replica Stokes vectors from (..., 8, 4) counts.

    Accepts a CountsRecord, counts or exact probabilities. Raises
    ReconstructionError for a replica whose path group has no H/V counts,
    and ValueError if an eigenvalue (1 - |S|) / 2 is below the positivity
    floor.
    """
    arr = np.asarray(counts.counts if isinstance(counts, CountsRecord) else counts, dtype=float)
    if arr.shape[-2:] != (N_BENCH_PATHS, len(BASES)):
        raise ValueError(f"counts must have shape (..., 8, 4), got {arr.shape}")
    pick = slice(None) if tuple(replicas) == (1, 2) else [r - 1 for r in replicas]
    groups = arr.reshape(arr.shape[:-2] + (2, 4, len(BASES)))[..., pick, :, :]
    weights = groups[..., 0] + groups[..., 1]
    totals = weights.sum(axis=-1)
    for i, r in enumerate(replicas):
        if np.any(totals[..., i] <= 0):
            raise ReconstructionError(f"replica {r}: no counts in its path group")
    stokes = np.einsum("...p,...pk->...k", weights / totals[..., None], _path_stokes(groups))
    _require_physical_stokes(stokes)
    return stokes


def _bootstrap_errors(counts: np.ndarray, trials: int, rngs, bloch: np.ndarray) -> np.ndarray:
    """(N, 2) parametric-bootstrap standard errors of the replica fidelities
    of (N, 8, 4) counts against (N, 3) input Bloch vectors. Point k draws
    (N_BOOTSTRAP, 8, 4) resamples, every cell Binomial(trials, observed
    fraction), from generator k of `rngs`, the streams of
    `_bootstrap_entropy(seeds)`; exactly N are taken. All resamples are
    refitted in one `_replica_stokes` call, and a point's error is the sample
    standard deviation of its refitted fidelities. A resample that does not
    reconstruct means too few trials for error bars."""
    draws = np.empty((len(counts), N_BOOTSTRAP) + counts.shape[1:], dtype=np.int64)
    for k, rng in zip(range(len(counts)), rngs):
        draws[k] = rng.binomial(trials, counts[k] / trials, size=draws.shape[1:])
    try:
        stokes = _replica_stokes(draws)
    except ReconstructionError as exc:
        too_few = f"{trials} trials per setting are too few for error bars"
        raise ReconstructionError(f"bootstrap resample: {exc}; {too_few}") from exc
    return np.std(_stokes_fidelity(stokes, bloch[:, None]), axis=1, ddof=1)


def reconstruct_replica(counts, which: int) -> DensityMatrix:
    """Weighted per-path reconstruction of one replica.

    Replica 1 uses paths 0-3 (probe 0), replica 2 uses paths 4-7 (probe 1);
    only that group needs counts. Path weights are the relative H+V counts,
    the per-setting totals that estimate each path's photon flux; D and R
    re-measure the same flux and would bias the weights. The result is
    `stokes_compose` of the weighted mean of the per-path Stokes vectors.
    """
    if which not in (1, 2):
        raise ValueError(f"replica selector must be 1 or 2, got {which!r}")
    stokes = _replica_stokes(counts, (which,))
    if stokes.shape != (1, 3):
        raise ValueError("reconstruct_replica takes one (8, 4) count array, not a batch")
    return stokes_compose(*stokes[0])


def _require_report_values(fids, errs) -> None:
    """Every fidelity in [0, 1] (within 1e-12) and every standard error finite
    and nonnegative, for arrays of any shape."""
    fids, errs = np.asarray(fids, dtype=float), np.asarray(errs, dtype=float)
    in_range = (fids >= -1e-12) & (fids <= 1.0 + 1e-12)
    if not np.all(in_range):
        raise ValueError(f"fidelity {float(fids[~in_range][0])!r} outside [0, 1]")
    if not np.all(np.isfinite(errs) & (errs >= 0)):
        raise ValueError(f"standard errors must be finite and nonnegative, got {errs.ravel().tolist()!r}")


class FidelityReport(_Record):
    """Replica fidelities against the input state, with count statistics."""

    __slots__ = ("fidelity1", "fidelity2", "stderr1", "stderr2", "theta", "delta", "mode")

    def __init__(self, fidelity1: float, fidelity2: float, stderr1: float, stderr2: float,
                 theta: float, delta: float, mode: str):
        _require_report_values((fidelity1, fidelity2), (stderr1, stderr2))
        if mode not in SWEEP_MODES:
            raise ValueError(f"unknown mode {mode!r}")
        object.__setattr__(self, "fidelity1", fidelity1)
        object.__setattr__(self, "fidelity2", fidelity2)
        object.__setattr__(self, "stderr1", stderr1)
        object.__setattr__(self, "stderr2", stderr2)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "mode", mode)


def fidelity_report(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    theta: float,
    delta: float,
    mode: str = "exact",
    counts: CountsRecord | None = None,
) -> FidelityReport:
    """Fidelities of both replicas against the (theta, delta) input state.

    The point estimates come from the single-qubit matrices `rho1`, `rho2`
    (any qubit label). When a CountsRecord is supplied, statistical error
    bars are estimated by a parametric bootstrap from the record's own
    stream (`_bootstrap_errors`, as the montecarlo kernel estimates them).
    """
    bloch = _qubit_stokes(_input_amplitudes(theta, delta))
    f1, f2 = _stokes_fidelity([stokes_decompose(rho1), stokes_decompose(rho2)], bloch)
    err1 = err2 = 0.0
    if counts is not None:
        rngs = streams(_bootstrap_entropy([counts.seed]))
        err1, err2 = _bootstrap_errors(counts.counts[None], counts.total_trials, rngs, bloch[None])[0]
    return FidelityReport(float(f1), float(f2), float(err1), float(err2), theta, delta, mode=mode)


def exact_report(theta: float, delta: float) -> FidelityReport:
    """Noise-free pipeline: exact probabilities through the full reconstruction,
    a single-point use of the gate-tier kernels."""
    amps = _input_amplitudes(theta, delta)
    f1, f2 = _stokes_fidelity(_replica_stokes(_gate_probabilities(amps)), _qubit_stokes(amps)).tolist()
    return FidelityReport(f1, f2, 0.0, 0.0, theta, delta, mode="exact")


def _montecarlo_fidelities(theta, delta, seeds, trials: int) -> tuple:
    """(N, 2) replica fidelities, (N, 2) bootstrap standard errors and
    (N, 2, 3) replica Stokes vectors of the counting pipeline at N input
    points, point k seeded by seeds[k], counted by the bench's detectors.

    One `streams.streams` call seeds every stream of the call, the 4 N
    counting streams and then the N bootstrap streams; one
    `_gate_probabilities` pass gives the (N, 8, 4) click probabilities and
    one `_draw_counts` call draws all counts from each point's own streams
    (as `simulate_counts` draws them). Then, per block of MONTECARLO_BLOCK
    points in order, the block's counts are refitted to S, F = (1 + S . n) / 2,
    and its standard errors estimated by `_bootstrap_errors` from the next
    bootstrap streams (as `fidelity_report` estimates them). Refitting block
    by block keeps the first ReconstructionError of a sparse run that of the
    first failing block.
    """
    _require_trials(trials)
    amps = _input_amplitudes(theta, delta)
    bloch = _qubit_stokes(amps)
    fids = np.empty((len(amps), 2))
    errs = np.empty((len(amps), 2))
    stokes = np.empty((len(amps), 2, 3))
    rngs = streams(_count_entropy(seeds) + _bootstrap_entropy(seeds))
    counts = _draw_counts(_gate_probabilities(amps), trials, rngs)
    for start in range(0, len(amps), MONTECARLO_BLOCK):
        block = slice(start, start + MONTECARLO_BLOCK)
        stokes[block] = _replica_stokes(counts[block])
        fids[block] = _stokes_fidelity(stokes[block], bloch[block])
        errs[block] = _bootstrap_errors(counts[block], trials, rngs, bloch[block])
    _require_report_values(fids, errs)
    return fids, errs, stokes


def montecarlo_report(theta: float, delta: float, trials: int, seed: int) -> FidelityReport:
    """Counting-statistics pipeline: simulate counts, reconstruct, bootstrap errors.

    The single-point use of `_montecarlo_fidelities`, the kernel the
    montecarlo sweep runs over its whole grid.
    """
    _require_seed(seed)
    fids, errs, _ = _montecarlo_fidelities([theta], [delta], [seed], trials)
    (f1, f2), (err1, err2) = fids[0].tolist(), errs[0].tolist()
    return FidelityReport(f1, f2, err1, err2, theta, delta, mode="montecarlo")
