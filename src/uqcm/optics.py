"""Single-photon mode-space simulation of the optical cloning bench.

A single photon carries one polarization qubit and up to three path qubits.
On n_paths paths it is a plain (2 n_paths,) complex amplitude vector over
the modes (path index) x (polarization in {H, V}): mode (path, pol) is
index 2 * path + pol with H = 0, V = 1. `OpticalTrain` takes the path
count, and `modes_to_qubits` reads such a vector as a qubit register.

Every element is lossless. Element conventions (fixed once, compensating
phase plates absorb the rest):

* HWP(path, angle): Jones matrix [[cos 2a, sin 2a], [sin 2a, -cos 2a]] in
  the H/V basis, a measured from horizontal. Determinant -1 is fine for a
  passive plate.
* AJWP(path, retardance): adjustable waveplate (Pockels cell), diag(1, e^(i d))
  in the H/V frame; the retardance is driven directly.
* PBS(a, b): H transmits (path kept), V reflects (paths exchanged), no extra
  phase. Equivalently an exact CNOT with polarization control and path target.
* BS(a, b): symmetric 50-50 splitter, (1/sqrt 2) [[1, i], [i, 1]] on the two
  path amplitudes of each polarization.
* PhaseShift(path, phase): e^(i phase) on both polarizations of one path.

Apart from the PBS, an exact row swap, each element is four coefficients
(a, b, c, d) from `_coefficients` that turn each of its row pairs x, y into
a x + b y, c x + d y; propagation, `element_matrix` and the one unitarity
check, `_coefficient_dev` (`_hwp_dev` for an HWP), all read them.

The compiled cloner train lives on 8 paths: path bits are (probe, q2, q3)
with the probe ("aux") as the most significant bit. Fragments placed before
the probe-spreading splitters are duplicated across the upper four paths so
that every fragment implements its gate on the full space (the upper paths
are simply dark until the splitters populate them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .angles import PrepAngles
from .gates import Circuit, circuit_unitary
from .hilbert import AUX, PureState, _require_isometry, _require_isometry_dev
from .network import _input_amplitudes, cloner_prep_angles

POL_H, POL_V = 0, 1


class LossyTrainError(ValueError):
    """A lossless state was required but the train absorbed amplitude."""


@dataclass(frozen=True)
class HWP:
    path: int
    angle: float


@dataclass(frozen=True)
class AJWP:
    path: int
    retardance: float


@dataclass(frozen=True)
class PBS:
    path_a: int
    path_b: int

    def __post_init__(self):
        if self.path_a == self.path_b:
            raise ValueError("PBS needs two distinct paths")


@dataclass(frozen=True)
class BS:
    path_a: int
    path_b: int

    def __post_init__(self):
        if self.path_a == self.path_b:
            raise ValueError("BS needs two distinct paths")


@dataclass(frozen=True)
class PhaseShift:
    path: int
    phase: float


OpticalElement = Union[HWP, AJWP, PBS, BS, PhaseShift]

_BS_COUPLING = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / math.sqrt(2.0)


def _coefficients(element: OpticalElement, angle=None) -> tuple:
    """(a, b, c, d): the element turns each of its row pairs x, y into
    a x + b y, c x + d y, i.e. applies J = [[a, b], [c, d]].

    `angle`, a scalar or an array, replaces an HWP's axis angle; an array
    angle, or an AJWP's array retardance, gives coefficients of its shape,
    one J per entry. The BS entries are read from `_BS_COUPLING` at call
    time. A PBS has none: it is an exact row swap.
    """
    if isinstance(element, HWP):
        a2 = 2 * np.asarray(element.angle if angle is None else angle, dtype=float)
        c, s = np.cos(a2), np.sin(a2)
        return c, s, s, -c
    if isinstance(element, AJWP):
        return 1.0, 0.0, 0.0, np.exp(1j * np.asarray(element.retardance, dtype=float))
    if isinstance(element, PhaseShift):
        phase = np.exp(1j * element.phase)
        return phase, 0.0, 0.0, phase
    if isinstance(element, BS):
        return tuple(_BS_COUPLING.ravel())
    raise TypeError(f"{element!r} has no row coefficients")


def _abs2(z):
    """|z|^2 as (z conj z).real, the Gram product itself; a real array (an
    HWP's coefficient rows) takes z * z, the same value bit for bit in one
    multiply."""
    if isinstance(z, np.ndarray) and z.dtype.kind == "f":
        return z * z
    return (z * z.conjugate()).real


def _coefficient_dev(a, b, c, d) -> float:
    """max |J^H J - I| for J = [[a, b], [c, d]], the maximum over all entries.

    Exact for the coefficients of every element kind: conj(a) b + conj(c) d
    is identically 0, so J^H J is diagonal and only the squared column
    norms |a|^2 + |c|^2 and |b|^2 + |d|^2 can deviate from 1. NaN stays NaN.
    """
    col1 = abs(_abs2(a) + _abs2(c) - 1.0)
    col2 = abs(_abs2(b) + _abs2(d) - 1.0)
    # np.maximum, not max(): NaN must win. Its result is always a numpy value.
    return float(np.maximum(col1, col2).max())


def _hwp_dev(c, s) -> float:
    """`_coefficient_dev(c, s, s, -c)` bit for bit from one column: an HWP's
    second column norm s s + c c equals its first, c c + s s."""
    return float(abs(_abs2(c) + _abs2(s) - 1.0).max())


def _check_paths(element: OpticalElement, n_paths: int) -> None:
    paths = (element.path_a, element.path_b) if isinstance(element, (PBS, BS)) else (element.path,)
    for p in paths:
        if not (0 <= p < n_paths):
            raise ValueError(f"element {element!r} references path {p} outside the {n_paths} paths")


def _row_pairs(element: OpticalElement) -> list:
    """The mode-row pairs an element acts on, mode 2 * path + pol: a PBS's
    two V rows, a BS's two pairs of same-polarization rows, or any other
    element's H and V rows of its path."""
    if isinstance(element, PBS):
        return [(2 * element.path_a + POL_V, 2 * element.path_b + POL_V)]
    if isinstance(element, BS):
        return [(2 * element.path_a + pol, 2 * element.path_b + pol) for pol in (POL_H, POL_V)]
    return [(2 * element.path + POL_H, 2 * element.path + POL_V)]


def element_matrix(element: OpticalElement, n_paths: int) -> np.ndarray:
    """Full (2 n_paths, 2 n_paths) matrix of one element on n_paths paths
    (identity outside its modes).

    Propagation never builds these; they are the dense reference for the
    row-update kernel, with rows placed by the kernel's own `_row_pairs`
    and blocks filled from `_coefficients` (a PBS's block is the swap).
    """
    _check_paths(element, n_paths)
    mat = np.eye(2 * n_paths, dtype=complex)
    if isinstance(element, PBS):
        block = [[0.0, 1.0], [1.0, 0.0]]
    else:
        a, b, c, d = _coefficients(element)
        block = [[a, b], [c, d]]
    for idx in _row_pairs(element):
        mat[np.ix_(idx, idx)] = block
    return mat


def _mix_rows(rows: np.ndarray, i: int, j: int, a, b, c, d) -> None:
    """Rows x = rows[i], y = rows[j] become a x + b y, c x + d y in place; the
    coefficients are scalars or arrays of the batch shape of rows (dim, k, ...)."""
    x, y = rows[i], rows[j]
    rows[i], rows[j] = a * x + b * y, c * x + d * y


def _apply_element(element: OpticalElement, rows: np.ndarray, angle=None, what=None, lit=None) -> None:
    """Apply one element in place to mode rows `rows`, shape (dim, k, ...).

    Only the element's `_row_pairs` change: a PBS exchanges its pair, and
    every other element mixes each pair by its `_coefficients`. `angle` (a
    scalar or an array of the batch shape) replaces an HWP's axis angle.
    With `what` given, the coefficients are first checked unitary within
    1e-10 by `_coefficient_dev`, over every batch entry, and IsometryError
    names the element `what`. `lit` holds one flag per row, False while the
    row is exactly zero in every entry (dark; by default every row is lit):
    a pair of dark rows is left as it is, since mixing zeros gives zeros,
    and the flags follow the element: a PBS swaps its two, a mixed pair is
    lit.
    """
    if lit is None:
        lit = [True] * len(rows)
    pairs = _row_pairs(element)
    if isinstance(element, PBS):
        ((av, bv),) = pairs
        if lit[av] or lit[bv]:
            rows[[av, bv]] = rows[[bv, av]]
            lit[av], lit[bv] = lit[bv], lit[av]
        return
    coeffs = _coefficients(element, angle)
    if what is not None:
        _require_isometry_dev(_hwp_dev(*coeffs[:2]) if isinstance(element, HWP) else _coefficient_dev(*coeffs), what)
    for i, j in pairs:
        if lit[i] or lit[j]:
            _mix_rows(rows, i, j, *coeffs)
            lit[i] = lit[j] = True


def _propagate(elements, m: np.ndarray, offsets=None) -> np.ndarray:
    """Apply `elements` in order to `m` (shape (..., dim, k)) in place; returns `m`.

    The one propagation kernel: `_apply_element` on a copy laid out as
    (dim, k, ...), so that each mode row is contiguous and broadcasts
    against coefficients of the batch shape (...). Only the light does
    arithmetic: the rows of `m` that are exactly zero in every entry are
    noted on entry, and an element whose rows are all still dark only
    swaps its flags (a PBS) or is skipped (in the cloner train from the
    source photon's column, 65 of the 129 elements). With `offsets` of shape
    (B, n_hwp), `m` has a leading batch axis of length B and the j-th HWP
    of batch entry b is turned by offsets[b, j] (jittered copies of one
    train): it applies the (B,) coefficient rows c = cos 2(a + offsets[:, j])
    and s = sin 2(a + offsets[:, j]). The copies' composite matrices are
    never formed, so each is checked unitary element by element by the one
    closed form `_coefficient_dev`, within 1e-10: every single-path element,
    dark or not, the BS coupling once per call, and a PBS is an exact row
    swap. A product of unitaries is unitary, so this is at least as strong
    as checking the composite. A failure raises IsometryError naming the
    element by its index in the list. Without offsets nothing is checked
    here: the caller checks the composite.
    """
    if offsets is not None:
        _require_isometry_dev(_coefficient_dev(*_BS_COUPLING.ravel()), "BS coupling")
    rows = np.moveaxis(m, (-2, -1), (0, 1)).copy()
    lit = rows.reshape(len(rows), -1).any(axis=1).tolist()
    j = 0
    for k, e in enumerate(elements):
        angle = what = None
        if offsets is not None and not isinstance(e, (PBS, BS)):
            what = f"Jones matrix of element {k} ({type(e).__name__} on path {e.path})"
            if isinstance(e, HWP):
                angle = e.angle + offsets[:, j]
                j += 1
        _apply_element(e, rows, angle, what, lit)
    m[...] = np.moveaxis(rows, (0, 1), (-2, -1))
    return m


class OpticalTrain:
    """Ordered optical elements on `n_paths` paths (a positive integer),
    acting on the 2 n_paths mode amplitudes, mode 2 * path + pol.

    The composite matrix is compiled at construction by propagating the
    identity through the elements (each touches only its own rows); it must
    be unitary within 1e-10. The measurement pipeline does not build trains:
    it uses the compiled body isometry (`optical_measurement_state`) or a
    batch of jittered copies (`errormodel.perturbation_sweep`).
    """

    def __init__(self, n_paths: int, elements):
        if int(n_paths) != n_paths or n_paths < 1:
            raise ValueError(f"n_paths must be a positive integer, got {n_paths!r}")
        n_paths, elements = int(n_paths), tuple(elements)
        for e in elements:
            _check_paths(e, n_paths)
        composite = _propagate(elements, np.eye(2 * n_paths, dtype=complex))
        _require_isometry(composite, "lossless train composite")
        composite.flags.writeable = False
        self.n_paths = n_paths
        self._elements = elements
        self._composite = composite

    @property
    def elements(self) -> tuple:
        return self._elements

    def unitary(self) -> np.ndarray:
        """Composite (2 n_paths, 2 n_paths) mode matrix."""
        return self._composite

    def describe(self) -> str:
        """One element per line: kind, paths, parameters (radians, 6 decimals)."""
        lines = []
        for e in self._elements:
            if isinstance(e, (PBS, BS)):
                lines.append(f"{type(e).__name__} {e.path_a} {e.path_b}")
            elif isinstance(e, AJWP):
                lines.append(f"AJWP {e.path} {e.retardance:.6f}")
            elif isinstance(e, PhaseShift):
                lines.append(f"PhaseShift {e.path} {e.phase:.6f}")
            else:
                lines.append(f"HWP {e.path} {e.angle:.6f}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"OpticalTrain(n_paths={self.n_paths}, n_elements={len(self._elements)})"


def mode_qubit_labels(n_paths: int) -> tuple:
    """Qubit labels carried by a photon on n_paths paths (canonical order)."""
    k = int(round(math.log2(n_paths)))
    if 2 ** k != n_paths:
        raise ValueError(f"n_paths must be a power of two, got {n_paths}")
    if k > 3:
        raise ValueError("at most 8 paths (three path qubits) are supported")
    if k == 0:
        return (1,)
    if k == 1:
        return (1, 2)
    if k == 2:
        return (1, 2, 3)
    return (AUX, 1, 2, 3)


def _mode_to_qubit_permutation(n_paths: int) -> np.ndarray:
    """qubit basis index for each mode index (2 * path + pol)."""
    k = int(round(math.log2(n_paths)))
    perm = np.empty(2 * n_paths, dtype=int)
    for p in range(n_paths):
        for s in (POL_H, POL_V):
            if k == 3:
                q = (p >> 2) * 8 + s * 4 + (p & 3)
            else:
                q = s * n_paths + p
            perm[2 * p + s] = q
    return perm


def _unit_norms(amps: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Norms of (..., dim) photon amplitude vectors; LossyTrainError unless
    every one is 1 within `tol` (post-selection on no loss)."""
    nrm = np.linalg.norm(amps, axis=-1)
    lossy = ~(np.abs(nrm - 1.0) <= tol)
    if np.any(lossy):
        raise LossyTrainError(f"photon norm {float(nrm[lossy][0])!r} is not 1 within {tol:g}")
    return nrm


def modes_to_qubits(amplitudes, tol: float = 1e-9) -> PureState:
    """Relabel a photon's 1-D vector of 2, 4, 8 or 16 mode amplitudes, mode
    2 * path + pol, as qubits (ValueError for any other shape): polarization
    is qubit 1 (H=0, V=1), path bits are qubits 2, 3 (and the probe qubit
    for 8 paths).

    Requires unit norm within `tol` (post-selection on no loss);
    renormalizes the residual rounding before constructing the state.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 1 or amps.size not in (2, 4, 8, 16):
        raise ValueError(f"expected 2 n_paths amplitudes, n_paths a power of two up to 8, got shape {amps.shape}")
    nrm = _unit_norms(amps, tol)
    perm = _mode_to_qubit_permutation(amps.size // 2)
    qamps = np.empty(amps.size, dtype=complex)
    qamps[perm] = amps
    return PureState(mode_qubit_labels(amps.size // 2), qamps / nrm)


# ---------------------------------------------------------------------------
# Fragment builders
# ---------------------------------------------------------------------------

def _pol_rotation(paths, angle: float) -> list:
    """True polarization rotation by `angle` in each path (two HWPs each)."""
    els = []
    for p in paths:
        els += [HWP(p, math.pi / 4), HWP(p, math.pi / 4 + angle / 2.0)]
    return els


def _path_rotation(pair, angle: float) -> list:
    """True rotation of one path-qubit pair: a phase-compensated interferometer.

    Splitter, internal phase pi - 2*angle, splitter; trim phases make the
    composite exactly [[cos a, -sin a], [sin a, cos a]] on (low, high).
    """
    i, j = pair
    phi = math.pi - 2.0 * angle
    trim = angle - math.pi
    return [
        PhaseShift(j, math.pi),
        BS(i, j),
        PhaseShift(i, phi),
        BS(i, j),
        PhaseShift(i, trim),
        PhaseShift(j, trim),
    ]


def _path_crossing(pair) -> list:
    """Swap two whole paths (both polarizations), built from PBS and HWPs."""
    i, j = pair
    layer = [HWP(i, math.pi / 4), HWP(j, math.pi / 4), PBS(i, j)]
    return layer + layer


def _swap_pol_with_path(pbs_pairs, flip_paths) -> list:
    """SWAP between the polarization qubit and one path bit.

    Standard three-CNOT decomposition: PBS layer (pol controls path),
    HWPs at 45 degrees in the bit=1 paths (path controls pol), PBS layer.
    """
    pbs_layer = [PBS(a, b) for a, b in pbs_pairs]
    hwp_layer = [HWP(p, math.pi / 4) for p in flip_paths]
    return pbs_layer + hwp_layer + pbs_layer


# Path pair groups of the 8-path bench; path bits are (probe, q2, q3).
N_BENCH_PATHS = 8
_Q3_PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7))
_Q2_PAIRS = ((0, 2), (1, 3), (4, 6), (5, 7))
_PROBE_PAIRS = ((0, 4), (1, 5), (2, 6), (3, 7))
_Q2_ONE = (2, 3, 6, 7)
_Q3_ONE = (1, 3, 5, 7)


def _input_elements(theta, delta) -> list:
    """Input preparation on the source path: polarization rotation by theta
    (HWP pair) and the adjustable plate driving the relative phase delta.

    Array-valued theta and delta (one shape) give elements whose
    coefficients are arrays, one per (theta, delta) entry.
    """
    return _pol_rotation([0], theta) + [AJWP(0, delta)]


def _body_elements(prep: PrepAngles) -> list:
    """Everything after the input preparation; independent of (theta, delta)."""
    t1, t2, t3 = prep.as_tuple()
    # State swap: move the input from polarization onto path bit q2, leaving
    # a definite H polarization behind.
    els = _swap_pol_with_path(_Q2_PAIRS, _Q2_ONE)
    # Preparation stage, now acting on (polarization, q3).
    els += _pol_rotation(range(8), t1)
    els += [PBS(a, b) for a, b in _Q3_PAIRS]
    for pair in _Q3_PAIRS:
        els += _path_rotation(pair, t2)
    els += [HWP(p, math.pi / 4) for p in _Q3_ONE]
    els += _pol_rotation(range(8), t3)
    # Cloning stage (relabeled by the input swap):
    # CNOT q2->pol, CNOT q2->q3, CNOT pol->q2, CNOT q3->q2.
    els += [HWP(p, math.pi / 4) for p in _Q2_ONE]
    for pair in ((2, 3), (6, 7)):
        els += _path_crossing(pair)
    els += [PBS(a, b) for a, b in _Q2_PAIRS]
    for pair in ((1, 3), (5, 7)):
        els += _path_crossing(pair)
    # Probe introduction: four 50-50 splitters (phase-trimmed so the probe
    # qubit sees the plain rotation by pi/4), one per lower/upper path pair.
    els += [PhaseShift(p, math.pi / 2) for p in (4, 5, 6, 7)]
    els += [BS(a, b) for a, b in _PROBE_PAIRS]
    els += [PhaseShift(p, -math.pi / 2) for p in (4, 5, 6, 7)]
    # Probe-controlled swap of the replicas: acts in the upper paths only.
    els += _swap_pol_with_path([(4, 6), (5, 7)], [6, 7])
    return els


def _cloner_train_elements(theta: float, delta: float, prep: PrepAngles) -> tuple:
    """Element list of the 8-path bench: input preparation, then the body."""
    return tuple(_input_elements(theta, delta) + _body_elements(prep))


@lru_cache(maxsize=4)
def _body_isometry(prep: PrepAngles) -> np.ndarray:
    """16 x 2 read-only image of the source path's H and V modes under the body.

    The input preparation acts on the source path alone, so the photon
    enters the body in modes (0, H) and (0, V); these two columns of the
    body's unitary are all the measurement pipeline needs.
    """
    iso = _propagate(_body_elements(prep), np.eye(2 * N_BENCH_PATHS, 2, dtype=complex))
    _require_isometry(iso, "bench body")
    iso.flags.writeable = False
    return iso


def build_cloner_train(theta: float = 0.0, delta: float = 0.0) -> OpticalTrain:
    """The full 8-path cloning bench for input angles (theta, delta).

    Covers input preparation, the polarization/path state swap, the
    entanglement preparation of (polarization, q3), the cloning stage, the
    probe splitters, and the probe-controlled replica swap. At the default
    (0, 0) input the preparation elements are neutral and the extracted
    unitary matches the gate-tier measurement circuit up to global phase.
    Each call compiles a new train. Rejects theta outside (-pi/2, pi/2] and
    delta outside [0, 2 pi) with ValueError, as `network.clone` does.
    """
    _input_amplitudes(theta, delta)
    return OpticalTrain(N_BENCH_PATHS, _cloner_train_elements(float(theta), float(delta), cloner_prep_angles()))


def _bench_modes(theta, delta) -> np.ndarray:
    """(..., 16) mode amplitudes of the source photon behind the bench, for
    theta and delta of one shape (...).

    Only the three input-preparation elements depend on (theta, delta), and
    they act on the source path alone: they turn the source photon's
    polarization, one (..., 2) batch, and one product with the body's 16 x 2
    isometry, compiled once per prep angles on first use, carries every
    polarization to the detectors.
    """
    theta, delta = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(delta, dtype=float))
    pol = np.zeros(theta.shape + (2, 1), dtype=complex)
    pol[..., 0, 0] = 1.0
    _propagate(_input_elements(theta, delta), pol)
    return pol[..., 0] @ _body_isometry(cloner_prep_angles()).T


def _bench_path_amplitudes(theta, delta) -> np.ndarray:
    """(..., 8, 2) unit-norm polarization amplitudes per detector path.

    Mode 2 p + s is row p, column s, the layout of
    `tomography.per_path_amplitudes(optical_measurement_state(theta, delta))`;
    every photon must arrive unabsorbed (norm 1 within 1e-9).
    """
    modes = _bench_modes(theta, delta)
    rows = modes / _unit_norms(modes)[..., None]
    return rows.reshape(modes.shape[:-1] + (N_BENCH_PATHS, 2))


def optical_measurement_state(theta: float, delta: float) -> PureState:
    """Send the source photon through the bench and read the result as qubits.

    Equals column 0 of `build_cloner_train(theta, delta).unitary()`, read
    through `modes_to_qubits`; the single-point use of `_bench_modes`, with
    the same angle-domain check as `build_cloner_train`.
    """
    _input_amplitudes(theta, delta)
    return modes_to_qubits(_bench_modes(theta, delta))


@dataclass(frozen=True)
class EquivalenceReport:
    max_deviation: float
    phase: float
    tol: float
    passed: bool

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: max |U_train - e^(i phi) U_circuit| = "
            f"{self.max_deviation:.3e} (tol {self.tol:.1e}, phi {self.phase:+.6f})"
        )


def verify_equivalence(train: OpticalTrain, circuit: Circuit, tol: float = 1e-9) -> EquivalenceReport:
    """Compare a train against a circuit as unitaries, up to global phase.

    The train's composite matrix is conjugated into the qubit basis via the
    mode relabeling; the reported deviation is the elementwise maximum after
    removing the trace-optimal global phase.
    """
    labels = mode_qubit_labels(train.n_paths)
    if labels != circuit.register:
        raise ValueError(
            f"dimension mismatch: train carries qubits {labels!r}, "
            f"circuit register is {circuit.register!r}"
        )
    perm = _mode_to_qubit_permutation(train.n_paths)
    dim = 2 * train.n_paths
    u_train = np.zeros((dim, dim), dtype=complex)
    mode_u = train.unitary()
    u_train[np.ix_(perm, perm)] = mode_u
    u_circ = circuit_unitary(circuit)
    overlap = complex(np.trace(u_circ.conj().T @ u_train))
    phase = float(np.angle(overlap)) if abs(overlap) > 0 else 0.0
    dev = float(np.max(np.abs(u_train - np.exp(1j * phase) * u_circ)))
    return EquivalenceReport(max_deviation=dev, phase=phase, tol=tol, passed=dev <= tol)
