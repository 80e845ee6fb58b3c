"""Single-photon mode-space simulation of the optical cloning bench.

A single photon carries one polarization qubit and up to three path qubits;
the mode space is (path index) x (polarization in {H, V}) and a mode's
amplitude index is 2 * path + pol with H = 0, V = 1.

Element conventions (fixed once, compensating phase plates absorb the rest):

* HWP(path, angle): Jones matrix [[cos 2a, sin 2a], [sin 2a, -cos 2a]] in
  the H/V basis, a measured from horizontal. Determinant -1 is fine for a
  passive plate.
* QWP(path, angle): diag(1, i) in the plate's axis frame, i.e.
  R(a) diag(1, i) R(-a).
* AJWP(path, retardance): adjustable waveplate (Pockels cell), diag(1, e^(i d))
  in the H/V frame; the retardance is driven directly.
* PBS(a, b): H transmits (path kept), V reflects (paths exchanged), no extra
  phase. Equivalently an exact CNOT with polarization control and path target.
* BS(a, b): symmetric 50-50 splitter, (1/sqrt 2) [[1, i], [i, 1]] on the two
  path amplitudes of each polarization.
* Polarizer(path, angle): projector onto the axis; the only lossy element.
  Loss shows up as norm deficit and the measurement tier renormalizes by
  relative counts (post-selection).
* PhaseShift(path, phase): e^(i phase) on both polarizations of one path.

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
from .hilbert import AUX, PureState, _require_isometry
from .network import cloner_prep_angles

POL_H, POL_V = 0, 1
_POL_NAMES = ("H", "V")


class LossyTrainError(ValueError):
    """A lossless state was required but the train absorbed amplitude."""


class ModeSpace:
    """(path, polarization) mode labels for a fixed number of paths."""

    def __init__(self, n_paths: int):
        if int(n_paths) != n_paths or n_paths < 1:
            raise ValueError(f"n_paths must be a positive integer, got {n_paths!r}")
        self._n_paths = int(n_paths)

    @property
    def n_paths(self) -> int:
        return self._n_paths

    @property
    def dim(self) -> int:
        return 2 * self._n_paths

    @property
    def modes(self) -> tuple:
        return tuple((p, s) for p in range(self._n_paths) for s in _POL_NAMES)

    def index(self, path: int, pol) -> int:
        if pol in _POL_NAMES:
            pol = _POL_NAMES.index(pol)
        if not (0 <= path < self._n_paths) or pol not in (POL_H, POL_V):
            raise ValueError(f"no mode (path={path!r}, pol={pol!r}) in this space")
        return 2 * path + pol

    def __eq__(self, other):
        return isinstance(other, ModeSpace) and other._n_paths == self._n_paths

    def __hash__(self):
        return hash(("ModeSpace", self._n_paths))

    def __repr__(self):
        return f"ModeSpace(n_paths={self._n_paths})"


class PhotonState:
    """Photon amplitude vector over the modes of a ModeSpace.

    The norm may be below one after lossy elements; it never exceeds one.
    """

    def __init__(self, space: ModeSpace, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size != space.dim:
            raise ValueError(f"expected {space.dim} amplitudes, got {amps.size}")
        nrm = float(np.linalg.norm(amps))
        if nrm > 1.0 + 1e-12:
            raise ValueError(f"photon norm {nrm!r} exceeds one")
        amps = amps.copy()
        amps.flags.writeable = False
        self.space = space
        self._amps = amps

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    def norm(self) -> float:
        return float(np.linalg.norm(self._amps))

    def __repr__(self):
        return f"PhotonState(space={self.space!r}, amplitudes={self._amps!r})"


def source_photon(space: ModeSpace, path: int = 0, pol="H") -> PhotonState:
    """Photon definitely in one (path, polarization) mode."""
    amps = np.zeros(space.dim, dtype=complex)
    amps[space.index(path, pol)] = 1.0
    return PhotonState(space, amps)


@dataclass(frozen=True)
class HWP:
    path: int
    angle: float


@dataclass(frozen=True)
class QWP:
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
class Polarizer:
    path: int
    angle: float


@dataclass(frozen=True)
class PhaseShift:
    path: int
    phase: float


OpticalElement = Union[HWP, QWP, AJWP, PBS, BS, Polarizer, PhaseShift]

# Elements owning a mechanical axis-orientation angle (jitter targets).
ORIENTED_ELEMENTS = (HWP, QWP, Polarizer)

_BS_COUPLING = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / math.sqrt(2.0)


def element_paths(element: OpticalElement) -> tuple:
    if isinstance(element, (PBS, BS)):
        return (element.path_a, element.path_b)
    return (element.path,)


def _jones(element: OpticalElement, angle=None) -> np.ndarray:
    """2x2 polarization action of a single-path element.

    An array-valued parameter gives a (..., 2, 2) stack, one Jones matrix
    per entry: `angle` of shape (B,) replaces an oriented element's axis
    angle, and an AJWP may carry an array retardance.
    """
    if isinstance(element, AJWP):
        phase = np.exp(1j * np.asarray(element.retardance, dtype=float))
        jones = np.zeros(phase.shape + (2, 2), dtype=complex)
        jones[..., 0, 0] = 1.0
        jones[..., 1, 1] = phase
        return jones
    if isinstance(element, PhaseShift):
        return np.exp(1j * element.phase) * np.eye(2, dtype=complex)
    if not isinstance(element, ORIENTED_ELEMENTS):
        raise TypeError(f"{element!r} has no single-path Jones matrix")
    a = np.asarray(element.angle if angle is None else angle, dtype=float)
    if isinstance(element, HWP):
        c, s = np.cos(2 * a), np.sin(2 * a)
        rows = [[c, s], [s, -c]]
    else:
        c, s = np.cos(a), np.sin(a)
        if isinstance(element, QWP):
            # R(a) diag(1, i) R(-a)
            rows = [[c * c + 1j * s * s, (1 - 1j) * c * s], [(1 - 1j) * c * s, s * s + 1j * c * c]]
        else:
            rows = [[c * c, c * s], [c * s, s * s]]
    return np.moveaxis(np.array(rows, dtype=complex), (0, 1), (-2, -1))


def _check_paths(element: OpticalElement, space: ModeSpace) -> None:
    for p in element_paths(element):
        if not (0 <= p < space.n_paths):
            raise ValueError(f"element {element!r} references path {p} outside {space!r}")


def element_matrix(element: OpticalElement, space: ModeSpace) -> np.ndarray:
    """Full mode-space matrix of one element (identity outside its modes).

    Propagation never builds these; they are the dense reference for the
    row-update kernel.
    """
    _check_paths(element, space)
    mat = np.eye(space.dim, dtype=complex)
    if isinstance(element, PBS):
        av = space.index(element.path_a, POL_V)
        bv = space.index(element.path_b, POL_V)
        mat[av, av] = mat[bv, bv] = 0.0
        mat[av, bv] = mat[bv, av] = 1.0
    elif isinstance(element, BS):
        for pol in (POL_H, POL_V):
            idx = [space.index(element.path_a, pol), space.index(element.path_b, pol)]
            mat[np.ix_(idx, idx)] = _BS_COUPLING
    else:
        idx = [space.index(element.path, POL_H), space.index(element.path, POL_V)]
        mat[np.ix_(idx, idx)] = _jones(element)
    return mat


def _apply_element(element: OpticalElement, m: np.ndarray, jones=None) -> None:
    """Apply one element in place to the mode rows of `m`, shape (..., dim, k).

    Only the element's rows change: the two polarization rows of its path
    (Jones matrix), the two pairs of same-polarization rows of a BS, or the
    two V rows a PBS exchanges. `jones` replaces a single-path element's
    Jones matrix; with a leading batch axis ((B, 2, 2) for `m` of shape
    (B, dim, k)) each batch entry gets its own matrix.
    """
    if isinstance(element, PBS):
        av, bv = 2 * element.path_a + POL_V, 2 * element.path_b + POL_V
        m[..., [av, bv], :] = m[..., [bv, av], :]
    elif isinstance(element, BS):
        for pol in (POL_H, POL_V):
            rows = [2 * element.path_a + pol, 2 * element.path_b + pol]
            m[..., rows, :] = _BS_COUPLING @ m[..., rows, :]
    else:
        rows = slice(2 * element.path, 2 * element.path + 2)
        m[..., rows, :] = (_jones(element) if jones is None else jones) @ m[..., rows, :]


def _propagate(elements, m: np.ndarray, offsets=None) -> np.ndarray:
    """Apply `elements` in order to `m` (shape (..., dim, k)) in place; returns `m`.

    With `offsets` of shape (B, n_oriented), `m` has a leading batch axis of
    length B and the j-th oriented element of batch entry b is turned by
    offsets[b, j] (jittered copies of one train, propagated together).
    """
    j = 0
    for e in elements:
        jones = None
        if offsets is not None and isinstance(e, ORIENTED_ELEMENTS):
            jones = _jones(e, e.angle + offsets[:, j])
            j += 1
        _apply_element(e, m, jones)
    return m


class OpticalTrain:
    """Ordered optical elements on a fixed mode space.

    The composite matrix is compiled at construction by propagating the
    identity through the elements (each touches only its own rows); it must
    be unitary (within 1e-10) whenever no Polarizer is present. The
    measurement pipeline does not build trains: it uses the compiled body
    isometry (`optical_measurement_state`) or a batch of jittered copies
    (`errormodel.perturbation_sweep`).
    """

    def __init__(self, space: ModeSpace, elements):
        elements = tuple(elements)
        for e in elements:
            _check_paths(e, space)
        composite = _propagate(elements, np.eye(space.dim, dtype=complex))
        lossy = any(isinstance(e, Polarizer) for e in elements)
        if not lossy:
            _require_isometry(composite, "lossless train composite")
        composite.flags.writeable = False
        self.space = space
        self._elements = elements
        self._composite = composite
        self._lossy = lossy

    @property
    def elements(self) -> tuple:
        return self._elements

    @property
    def has_loss(self) -> bool:
        return self._lossy

    def unitary(self) -> np.ndarray:
        """Composite mode-space matrix (non-unitary only for lossy trains)."""
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
                lines.append(f"{type(e).__name__} {e.path} {e.angle:.6f}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"OpticalTrain(space={self.space!r}, n_elements={len(self._elements)})"


def apply_train(train: OpticalTrain, state: PhotonState) -> PhotonState:
    """Apply the elements one by one; norm is non-increasing."""
    if state.space != train.space:
        raise ValueError(f"state lives on {state.space!r}, train on {train.space!r}")
    amps = _propagate(train.elements, state.amplitudes.reshape(-1, 1).copy())
    return PhotonState(train.space, amps)


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
    lossy = np.abs(nrm - 1.0) > tol
    if np.any(lossy):
        raise LossyTrainError(f"photon norm {float(nrm[lossy][0])!r} is not 1 within {tol:g}")
    return nrm


def modes_to_qubits(state: PhotonState, tol: float = 1e-9) -> PureState:
    """Relabel photon modes as qubits: polarization is qubit 1 (H=0, V=1),
    path bits are qubits 2, 3 (and the probe qubit for 8 paths).

    Requires unit norm within `tol` (post-selection on no loss);
    renormalizes the residual rounding before constructing the state.
    """
    n_paths = state.space.n_paths
    labels = mode_qubit_labels(n_paths)
    nrm = _unit_norms(state.amplitudes, tol)
    perm = _mode_to_qubit_permutation(n_paths)
    qamps = np.empty(state.space.dim, dtype=complex)
    qamps[perm] = state.amplitudes
    return PureState(labels, qamps / nrm)


def qubits_to_modes(psi: PureState, space: ModeSpace) -> PhotonState:
    """Inverse of modes_to_qubits."""
    if psi.labels != mode_qubit_labels(space.n_paths):
        raise ValueError(
            f"state labels {psi.labels!r} do not match a photon on {space.n_paths} paths"
        )
    perm = _mode_to_qubit_permutation(space.n_paths)
    return PhotonState(space, psi.amplitudes[perm])


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


def crot_path_controls_polarization(space: ModeSpace, control_path: int, angle: float) -> OpticalTrain:
    """Waveplate fragment applying a path-controlled polarization flip family.

    The conditional operation is P+ + e^(2 i angle) P- in the diagonal
    polarization eigenbasis: identity at angle 0 and an exact polarization
    flip (CNOT, path controls polarization) at angle pi/2.
    """
    els = [
        HWP(control_path, math.pi / 8),
        AJWP(control_path, 2.0 * angle),
        HWP(control_path, math.pi / 8),
    ]
    return OpticalTrain(space, els)


def crot_polarization_controls_path(
    space: ModeSpace, path_a: int, path_b: int, angle: float
) -> OpticalTrain:
    """PBS + HWP fragment: polarization-controlled rotation of a path qubit.

    Conjugates the path-controlled polarization fragment by an exact
    polarization/path swap, yielding identity at angle 0 and an exact CNOT
    (polarization controls path) at angle pi/2, so three such fragments in
    the alternating CNOT pattern compose to a polarization/path SWAP.
    """
    swap = _swap_pol_with_path([(path_a, path_b)], [path_b])
    middle = list(crot_path_controls_polarization(space, path_b, angle).elements)
    return OpticalTrain(space, swap + middle + swap)


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

    Array-valued theta and delta (one shape) give elements whose Jones
    matrices are stacks, one per (theta, delta) entry.
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


def build_cloner_train(
    theta: float = 0.0, delta: float = 0.0, prep_angles: PrepAngles | None = None
) -> OpticalTrain:
    """The full 8-path cloning bench for input angles (theta, delta).

    Covers input preparation, the polarization/path state swap, the
    entanglement preparation of (polarization, q3), the cloning stage, the
    probe splitters, and the probe-controlled replica swap. At the default
    (0, 0) input the preparation elements are neutral and the extracted
    unitary matches the gate-tier measurement circuit up to global phase.
    Each call compiles a new train.
    """
    if prep_angles is None:
        prep_angles = cloner_prep_angles()
    return OpticalTrain(
        ModeSpace(N_BENCH_PATHS), _cloner_train_elements(float(theta), float(delta), prep_angles)
    )


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
    through `modes_to_qubits`; the single-point use of `_bench_modes`.
    """
    return modes_to_qubits(PhotonState(ModeSpace(N_BENCH_PATHS), _bench_modes(theta, delta)))


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
    labels = mode_qubit_labels(train.space.n_paths)
    if labels != circuit.register:
        raise ValueError(
            f"dimension mismatch: train carries qubits {labels!r}, "
            f"circuit register is {circuit.register!r}"
        )
    perm = _mode_to_qubit_permutation(train.space.n_paths)
    dim = train.space.dim
    u_train = np.zeros((dim, dim), dtype=complex)
    mode_u = train.unitary()
    u_train[np.ix_(perm, perm)] = mode_u
    u_circ = circuit_unitary(circuit)
    overlap = complex(np.trace(u_circ.conj().T @ u_train))
    phase = float(np.angle(overlap)) if abs(overlap) > 0 else 0.0
    dev = float(np.max(np.abs(u_train - np.exp(1j * phase) * u_circ)))
    return EquivalenceReport(max_deviation=dev, phase=phase, tol=tol, passed=dev <= tol)
