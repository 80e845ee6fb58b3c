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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .gates import CSWAP, Circuit, apply_circuit
from .hilbert import (
    AUX,
    DensityMatrix,
    PureState,
    _qubit_stokes,
    _require_physical_stokes,
    _stokes_fidelity,
    stokes_compose,
    stokes_decompose,
    tensor_product,
)
from .network import _clone_outputs, _input_amplitudes, input_state

BASES = ("H", "V", "D", "R")

_SQ2 = 1.0 / math.sqrt(2.0)
BASIS_VECTORS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_SQ2, _SQ2], dtype=complex),
    "R": np.array([_SQ2, 1.0j * _SQ2], dtype=complex),
}
# (2, 4): amplitude rows times this give the basis-state overlaps H, V, D, R.
_BASIS_MATRIX = np.stack([BASIS_VECTORS[b] for b in BASES], axis=1).conj()
# (4, 3): (H, V, D, R) counts times this give (2 C_D, 2 C_R, C_H - C_V).
_INVERSION = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])

N_PATHS = 8

# Salt for deriving the bootstrap stream from a record's seed.
_BOOTSTRAP_SALT = 0x626F6F74

# Header fields of the CountsRecord text format.
_HEADER_FIELDS = ("trials", "seed", "efficiency", "dark_rate", "max_rate", "gate_window")


class ReconstructionError(ValueError):
    """Counts are insufficient to invert a density matrix."""


@dataclass(frozen=True)
class DetectorModel:
    """Single-photon counting module parameters.

    Defaults follow the bench hardware: 70% efficiency, 50 dark events per
    second, detection rates capped at 20000 per second, and a 5 ns gate
    (the bench passage time). The rate cap is carried as metadata; timing
    is not simulated.
    """

    efficiency: float = 0.70
    dark_rate: float = 50.0
    max_rate: float = 20000.0
    gate_window: float = 5e-9

    def __post_init__(self):
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValueError(f"efficiency {self.efficiency!r} outside [0, 1]")
        if self.dark_rate < 0 or self.max_rate <= 0 or self.gate_window < 0:
            raise ValueError("rates and gate window must be nonnegative (max_rate positive)")

    def dark_mean(self, trials: int) -> float:
        """Expected dark counts per (path, basis) cell for a `trials` run."""
        return self.dark_rate * self.gate_window * trials / self.max_rate


@dataclass(frozen=True)
class CountsRecord:
    """Simulated detector counts, indexed [path 0..7][basis H, V, D, R]."""

    counts: np.ndarray
    total_trials: int
    seed: int
    model: DetectorModel = DetectorModel()

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (N_PATHS, len(BASES)):
            raise ValueError(f"counts must have shape (8, 4), got {counts.shape}")
        if counts.min() < 0 or counts.max() > self.total_trials:
            raise ValueError("counts must lie in [0, total_trials]")
        counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def to_text(self) -> str:
        m = self.model
        header = (
            f"# trials={self.total_trials} seed={self.seed} "
            f"efficiency={m.efficiency!r} dark_rate={m.dark_rate!r} "
            f"max_rate={m.max_rate!r} gate_window={m.gate_window!r}"
        )
        lines = [header]
        for path in range(N_PATHS):
            for b, basis in enumerate(BASES):
                lines.append(f"{path} {basis} {int(self.counts[path, b])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CountsRecord":
        """Parse the `to_text` format.

        Raises ValueError unless the header carries every field and each of
        the 32 (path, basis) cells appears exactly once.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("#"):
            raise ValueError("missing counts header line")
        fields = {}
        for item in lines[0][1:].split():
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"malformed counts header item {item!r}")
            fields[key] = value
        missing = [name for name in _HEADER_FIELDS if name not in fields]
        if missing:
            raise ValueError(f"counts header lacks fields: {', '.join(missing)}")
        counts = np.zeros((N_PATHS, len(BASES)), dtype=np.int64)
        seen = set()
        for ln in lines[1:]:
            try:
                path, basis, value = ln.split()
                cell = (int(path), BASES.index(basis))
                count = int(value)
            except ValueError:
                raise ValueError(f"malformed counts line {ln!r}") from None
            if not (0 <= cell[0] < N_PATHS):
                raise ValueError(f"malformed counts line {ln!r}: no path {cell[0]}")
            if cell in seen:
                raise ValueError(f"duplicate counts cell {ln!r}")
            seen.add(cell)
            counts[cell] = count
        if len(seen) != counts.size:
            raise ValueError(f"counts record has {len(seen)} of {counts.size} (path, basis) cells")
        model = DetectorModel(
            efficiency=float(fields["efficiency"]),
            dark_rate=float(fields["dark_rate"]),
            max_rate=float(fields["max_rate"]),
            gate_window=float(fields["gate_window"]),
        )
        return cls(
            counts=counts,
            total_trials=int(fields["trials"]),
            seed=int(fields["seed"]),
            model=model,
        )


def attach_aux_cswap(out3: PureState) -> PureState:
    """Attach the probe qubit and apply the probe-controlled replica swap.

    Maps the three-qubit machine output to
    (|0>_aux |psi_123> + |1>_aux |psi_213>) / sqrt(2).
    """
    if out3.labels != (1, 2, 3):
        raise ValueError(f"expected a state on qubits (1, 2, 3), got {out3.labels!r}")
    probe = PureState([AUX], [_SQ2, _SQ2])
    joint = tensor_product(probe, out3)
    return apply_circuit(Circuit((1, 2, 3, AUX), (CSWAP(AUX, 1, 2),)), joint)


def measurement_state(theta: float, delta: float) -> PureState:
    """Gate-tier four-qubit state entering the detectors.

    The machine output comes from the compiled network image
    (`network._clone_outputs`); no replica matrices are formed.
    """
    return attach_aux_cswap(PureState((1, 2, 3), _clone_outputs(_input_amplitudes(theta, delta))))


def per_path_amplitudes(meas: PureState) -> np.ndarray:
    """(8, 2) array of unnormalized polarization amplitudes per detector path.

    The path index bits are (probe, q2, q3); column 0 is H, column 1 is V.
    """
    if meas.labels != (AUX, 1, 2, 3):
        raise ValueError(f"expected a state on (aux, 1, 2, 3), got {meas.labels!r}")
    # Canonical amplitude index is probe*8 + q1*4 + q2*2 + q3; regroup so the
    # polarization bit becomes the trailing axis.
    return meas.amplitudes.reshape(2, 2, 4).transpose(0, 2, 1).reshape(8, 2)


def path_distribution(meas: PureState, basis: str) -> np.ndarray:
    """(8, 2) outcome probabilities for one polarizer setting.

    Column 0 projects onto the basis state, column 1 onto its orthogonal
    complement; the 16 entries sum to one.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")
    b0, b1 = BASIS_VECTORS[basis]
    # Column 1 is the conjugate of (-conj(b1), conj(b0)), orthogonal to b.
    projections = np.array([[b0.conjugate(), -b1], [b1.conjugate(), b0]])
    return np.abs(per_path_amplitudes(meas) @ projections) ** 2


def _click_probabilities(rows: np.ndarray) -> np.ndarray:
    """(..., 8, 4) click probabilities from (..., 8, 2) per-path amplitudes."""
    return np.abs(rows @ _BASIS_MATRIX) ** 2


def signal_probabilities(meas: PureState) -> np.ndarray:
    """(8, 4) probability of a click behind the polarizer per (path, basis)."""
    return _click_probabilities(per_path_amplitudes(meas))


def simulate_counts(
    signal_probs: np.ndarray,
    model: DetectorModel,
    trials: int,
    seed: int,
) -> CountsRecord:
    """Simulate photon counting for all four polarizer settings.

    Per setting, `trials` emitted photons distribute multinomially over the
    eight detectors and an absorbed remainder, so each (path, basis) cell is
    marginally Binomial(trials, p * efficiency); a single photon can only
    fire one detector, which anticorrelates the path counts. Poisson dark
    counts with mean dark_rate * gate_window * trials / max_rate are added
    per cell, capped at `trials`. Each basis setting consumes its own
    substream derived from (seed, basis index), so settings may be simulated
    in parallel without changing the result.
    """
    probs = np.asarray(signal_probs, dtype=float)
    if probs.shape != (N_PATHS, len(BASES)):
        raise ValueError(f"signal_probs must have shape (8, 4), got {probs.shape}")
    if probs.min() < -1e-12 or probs.max() > 1.0 + 1e-12:
        raise ValueError("signal probabilities must lie in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be positive")
    probs = np.clip(probs, 0.0, 1.0)
    dark_mean = model.dark_mean(trials)
    counts = np.zeros((N_PATHS, len(BASES)), dtype=np.int64)
    for b in range(len(BASES)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, b))))
        detect = probs[:, b] * model.efficiency
        pvals = np.append(detect, max(0.0, 1.0 - float(detect.sum())))
        signal = rng.multinomial(trials, pvals / pvals.sum())[:N_PATHS]
        dark = rng.poisson(dark_mean, size=N_PATHS)
        counts[:, b] = np.minimum(signal + dark, trials)
    return CountsRecord(counts=counts, total_trials=trials, seed=seed, model=model)


def _path_stokes(counts: np.ndarray) -> np.ndarray:
    """(..., 3) per-path inversion of (..., 4) H, V, D, R counts, shortened to
    the unit ball; zero where a path has no H/V counts."""
    total = counts[..., 0] + counts[..., 1]
    # einsum, not a float matmul: verify's scalar calls would otherwise page in BLAS code.
    s = np.einsum("...i,ij->...j", counts, _INVERSION)
    s = s / np.where(total > 0, total, 1.0)[..., None] - (1.0, 1.0, 0.0)
    s = s / np.maximum(np.linalg.norm(s, axis=-1, keepdims=True), 1.0)
    return np.where((total > 0)[..., None], s, 0.0)


def _replica_stokes(counts, replicas=(1, 2)) -> np.ndarray:
    """(..., len(replicas), 3) replica Stokes vectors from (..., 8, 4) counts.

    Accepts a CountsRecord, counts or exact probabilities. Raises
    ReconstructionError for a replica whose path group has no H/V counts,
    and ValueError if an eigenvalue (1 - |S|) / 2 is below the positivity
    floor.
    """
    arr = np.asarray(counts.counts if isinstance(counts, CountsRecord) else counts, dtype=float)
    if arr.shape[-2:] != (N_PATHS, len(BASES)):
        raise ValueError(f"counts must have shape (..., 8, 4), got {arr.shape}")
    groups = arr.reshape(arr.shape[:-2] + (2, 4, len(BASES)))[..., [r - 1 for r in replicas], :, :]
    weights = groups[..., 0] + groups[..., 1]
    totals = weights.sum(axis=-1)
    for i, r in enumerate(replicas):
        if np.any(totals[..., i] <= 0):
            raise ReconstructionError(f"replica {r}: no counts in its path group")
    stokes = np.einsum("...p,...pk->...k", weights / totals[..., None], _path_stokes(groups))
    _require_physical_stokes(stokes)
    return stokes


def _replica_fidelities(counts, psi: PureState) -> np.ndarray:
    """(..., 2) fidelities of both replicas with `psi`, from (..., 8, 4) counts."""
    return _stokes_fidelity(_replica_stokes(counts), _qubit_stokes(psi.amplitudes))


def reconstruct_single_qubit(c_h, c_v, c_d, c_r, label=1) -> DensityMatrix:
    """Linear-inversion reconstruction from one path's four settings.

    Accepts integer counts or exact (float) probabilities; the formulas are
    scale-invariant as long as all four share one scale.
    """
    if c_h + c_v <= 0:
        raise ReconstructionError("no H/V counts: cannot normalize the inversion")
    return stokes_compose(*_path_stokes(np.array([c_h, c_v, c_d, c_r], dtype=float)), label=label)


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


def replicas_from_state(meas: PureState) -> tuple:
    """Exact-probability reconstruction of both replicas (the noise-free pipeline)."""
    probs = signal_probabilities(meas)
    return reconstruct_replica(probs, 1), reconstruct_replica(probs, 2)


@dataclass(frozen=True)
class FidelityReport:
    """Replica fidelities against the input state, with count statistics."""

    fidelity1: float
    fidelity2: float
    stderr1: float
    stderr2: float
    theta: float
    delta: float
    mode: str

    def __post_init__(self):
        for name in ("fidelity1", "fidelity2"):
            f = getattr(self, name)
            if not (-1e-12 <= f <= 1.0 + 1e-12):
                raise ValueError(f"{name}={f!r} outside [0, 1]")
        if not all(math.isfinite(e) and e >= 0 for e in (self.stderr1, self.stderr2)):
            raise ValueError(
                f"standard errors must be finite and nonnegative, got {self.stderr1!r}, {self.stderr2!r}"
            )
        if self.mode not in ("exact", "montecarlo", "perturbed"):
            raise ValueError(f"unknown mode {self.mode!r}")


def fidelity_report(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    theta: float,
    delta: float,
    mode: str = "exact",
    counts: Union[CountsRecord, None] = None,
    n_bootstrap: int = 50,
) -> FidelityReport:
    """Fidelities of both replicas against the (theta, delta) input state.

    The point estimates come from the single-qubit matrices `rho1`, `rho2`
    (any qubit label). When a CountsRecord is supplied, statistical error
    bars are estimated by a parametric bootstrap: all cells are resampled at
    once as Binomial(trials, observed fraction), an (n_bootstrap, 8, 4)
    draw, every draw is refitted in one `_replica_fidelities` call, and the
    sample standard deviation of the refitted fidelities is reported; that
    needs `n_bootstrap` >= 2.
    """
    if counts is not None and n_bootstrap < 2:
        raise ValueError(f"n_bootstrap must be >= 2 to estimate a standard error, got {n_bootstrap!r}")
    psi = input_state(theta, delta)
    f1, f2 = _stokes_fidelity([stokes_decompose(rho1), stokes_decompose(rho2)], _qubit_stokes(psi.amplitudes))
    err1 = err2 = 0.0
    if counts is not None:
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((counts.seed, _BOOTSTRAP_SALT)))
        )
        fractions = counts.counts / counts.total_trials
        draws = rng.binomial(counts.total_trials, fractions, size=(n_bootstrap,) + fractions.shape)
        err1, err2 = np.std(_replica_fidelities(draws, psi), axis=0, ddof=1)
    return FidelityReport(
        fidelity1=float(f1),
        fidelity2=float(f2),
        stderr1=float(err1),
        stderr2=float(err2),
        theta=theta,
        delta=delta,
        mode=mode,
    )


def exact_report(theta: float, delta: float) -> FidelityReport:
    """Noise-free pipeline: exact probabilities through the full reconstruction."""
    rho1, rho2 = replicas_from_state(measurement_state(theta, delta))
    return fidelity_report(rho1, rho2, theta, delta, mode="exact")


def montecarlo_report(
    theta: float,
    delta: float,
    trials: int,
    seed: int,
    model: DetectorModel = DetectorModel(),
    n_bootstrap: int = 50,
) -> FidelityReport:
    """Counting-statistics pipeline: simulate counts, reconstruct, bootstrap errors."""
    record = simulate_counts(
        signal_probabilities(measurement_state(theta, delta)), model, trials, seed
    )
    rho1, rho2 = reconstruct_replica(record, 1), reconstruct_replica(record, 2)
    return fidelity_report(
        rho1, rho2, theta, delta, mode="montecarlo", counts=record, n_bootstrap=n_bootstrap
    )
