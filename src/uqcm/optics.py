"""Single-photon mode-space simulation of the optical cloning bench.

The bench encodes four qubits in one photon: its N_BENCH_PATHS = 8 paths
carry the probe ("aux"), q2 and q3 as path bits (probe most significant),
and its polarization carries q1. Its state is a (16,) complex amplitude
vector over the modes (path) x (polarization in {H, V}): mode (path, pol)
is index 2 * path + pol with H = 0, V = 1. `MODE_QUBIT_INDEX` gives each
mode's basis index on the register `BENCH_REGISTER` = (aux, 1, 2, 3), the
one place this layout is written; `modes_to_qubits`, `verify_equivalence`
and `tomography._path_rows` read it.

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

Fragments of the compiled cloner train placed before the probe-spreading
splitters are duplicated across the upper four paths so that every
fragment implements its gate on the full space (the upper paths are simply
dark until the splitters populate them).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Union

import numpy as np

from .gates import Circuit, circuit_unitary
from .hilbert import AUX, PureState, _Record, _phase_deviation, _require_isometry, _require_isometry_dev
from .network import _input_amplitudes, cloner_prep_angles

POL_H, POL_V = 0, 1
N_BENCH_PATHS = 8
BENCH_REGISTER = (AUX, 1, 2, 3)
# Basis index on BENCH_REGISTER of each mode 2 * path + pol, path bits
# (probe, q2, q3): probe * 8 + pol * 4 + q2 * 2 + q3.
MODE_QUBIT_INDEX = np.array([(p >> 2) * 8 + s * 4 + (p & 3) for p in range(N_BENCH_PATHS) for s in (POL_H, POL_V)])
MODE_QUBIT_INDEX.flags.writeable = False
NORM_TOL = 1e-9  # largest |norm - 1| of a photon that arrives unabsorbed
EQUIVALENCE_TOL = 1e-9  # largest |U_train - e^(i phi) U_circuit| of a train that matches


class LossyTrainError(ValueError):
    """A lossless state was required but the train absorbed amplitude."""


class HWP(_Record):
    __slots__ = ("path", "angle")

    def __init__(self, path: int, angle: float):
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "angle", angle)


class AJWP(_Record):
    __slots__ = ("path", "retardance")

    def __init__(self, path: int, retardance: float):
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "retardance", retardance)


class PBS(_Record):
    __slots__ = ("path_a", "path_b")

    def __init__(self, path_a: int, path_b: int):
        if path_a == path_b:
            raise ValueError("PBS needs two distinct paths")
        object.__setattr__(self, "path_a", path_a)
        object.__setattr__(self, "path_b", path_b)


class BS(_Record):
    __slots__ = ("path_a", "path_b")

    def __init__(self, path_a: int, path_b: int):
        if path_a == path_b:
            raise ValueError("BS needs two distinct paths")
        object.__setattr__(self, "path_a", path_a)
        object.__setattr__(self, "path_b", path_b)


class PhaseShift(_Record):
    __slots__ = ("path", "phase")

    def __init__(self, path: int, phase: float):
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "phase", phase)


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


def _check_paths(element: OpticalElement) -> None:
    paths = (element.path_a, element.path_b) if isinstance(element, (PBS, BS)) else (element.path,)
    for p in paths:
        if not (0 <= p < N_BENCH_PATHS):
            raise ValueError(f"element {element!r} references path {p} outside the {N_BENCH_PATHS} paths")


def _row_pairs(element: OpticalElement) -> list:
    """The mode-row pairs an element acts on, mode 2 * path + pol: a PBS's
    two V rows, a BS's two pairs of same-polarization rows, or any other
    element's H and V rows of its path."""
    if isinstance(element, PBS):
        return [(2 * element.path_a + POL_V, 2 * element.path_b + POL_V)]
    if isinstance(element, BS):
        return [(2 * element.path_a + pol, 2 * element.path_b + pol) for pol in (POL_H, POL_V)]
    return [(2 * element.path + POL_H, 2 * element.path + POL_V)]


def element_matrix(element: OpticalElement) -> np.ndarray:
    """Full 16 x 16 matrix of one element on the bench's modes (identity
    outside its own).

    Propagation never builds these; they are the dense reference for the
    row-update kernel, with rows placed by the kernel's own `_row_pairs`
    and blocks filled from `_coefficients` (a PBS's block is the swap).
    """
    _check_paths(element)
    mat = np.eye(2 * N_BENCH_PATHS, dtype=complex)
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
    """Ordered optical elements on the bench's N_BENCH_PATHS paths, acting
    on its 16 mode amplitudes, mode 2 * path + pol.

    The composite matrix is compiled at construction by propagating the
    identity through the elements (each touches only its own rows); it must
    be unitary within 1e-10. The measurement pipeline does not build trains:
    it uses the compiled body isometry (`optical_measurement_state`) or a
    batch of jittered copies (`errormodel.perturbation_sweep`).
    """

    def __init__(self, elements):
        elements = tuple(elements)
        for e in elements:
            _check_paths(e)
        composite = _propagate(elements, np.eye(2 * N_BENCH_PATHS, dtype=complex))
        _require_isometry(composite, "lossless train composite")
        composite.flags.writeable = False
        self._elements = elements
        self._composite = composite

    @property
    def elements(self) -> tuple:
        return self._elements

    def unitary(self) -> np.ndarray:
        """Composite 16 x 16 mode matrix."""
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
        return f"OpticalTrain(n_elements={len(self._elements)})"


def _unit_norms(amps: np.ndarray) -> np.ndarray:
    """Norms of (..., dim) photon amplitude vectors; LossyTrainError unless
    every one is 1 within NORM_TOL."""
    nrm = np.linalg.norm(amps, axis=-1)
    lossy = ~(np.abs(nrm - 1.0) <= NORM_TOL)
    if np.any(lossy):
        raise LossyTrainError(f"photon norm {float(nrm[lossy][0])!r} is not 1 within {NORM_TOL:g}")
    return nrm


def modes_to_qubits(amplitudes) -> PureState:
    """Relabel the bench photon's (16,) mode amplitudes, mode 2 * path + pol,
    as a state on BENCH_REGISTER (ValueError for any other shape):
    polarization is qubit 1 (H=0, V=1), the path bits are the probe, q2 and q3.

    Requires unit norm within NORM_TOL (post-selection on no loss);
    renormalizes the residual rounding before constructing the state.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != MODE_QUBIT_INDEX.shape:
        raise ValueError(f"expected {2 * N_BENCH_PATHS} mode amplitudes, got shape {amps.shape}")
    nrm = _unit_norms(amps)
    qamps = np.empty(amps.size, dtype=complex)
    qamps[MODE_QUBIT_INDEX] = amps
    return PureState(BENCH_REGISTER, qamps / nrm)


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


def _body_elements() -> list:
    """Everything after the input preparation; independent of (theta, delta)."""
    t1, t2, t3 = cloner_prep_angles().as_tuple()
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


def _cloner_train_elements(theta: float, delta: float) -> tuple:
    """Element list of the 8-path bench: input preparation, then the body."""
    return tuple(_input_elements(theta, delta) + _body_elements())


@lru_cache(maxsize=None)
def _body_isometry() -> np.ndarray:
    """16 x 2 read-only image of the source path's H and V modes under the body.

    The input preparation acts on the source path alone, so the photon
    enters the body in modes (0, H) and (0, V); these two columns of the
    body's unitary are all the measurement pipeline needs.
    """
    iso = _propagate(_body_elements(), np.eye(2 * N_BENCH_PATHS, 2, dtype=complex))
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
    return OpticalTrain(_cloner_train_elements(float(theta), float(delta)))


def _bench_modes(theta, delta) -> np.ndarray:
    """(..., 16) mode amplitudes of the source photon behind the bench, for
    theta and delta of one shape (...).

    Only the three input-preparation elements depend on (theta, delta), and
    they act on the source path alone: they turn the source photon's
    polarization, one (..., 2) batch, and one product with the body's 16 x 2
    isometry carries every polarization to the detectors.
    """
    theta, delta = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(delta, dtype=float))
    pol = np.zeros(theta.shape + (2, 1), dtype=complex)
    pol[..., 0, 0] = 1.0
    _propagate(_input_elements(theta, delta), pol)
    return pol[..., 0] @ _body_isometry().T


def _bench_path_amplitudes(theta, delta) -> np.ndarray:
    """(..., 8, 2) unit-norm polarization amplitudes per detector path.

    Mode 2 p + s is row p, column s, the layout of
    `tomography._path_rows(optical_measurement_state(theta, delta).amplitudes)`;
    every photon must arrive unabsorbed (norm 1 within NORM_TOL).
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


def verify_equivalence(train: OpticalTrain, circuit: Circuit) -> float:
    """max |U_train - e^(i phi) U_circuit|: how far a train is from a circuit
    on BENCH_REGISTER as a unitary, up to global phase.

    The train's composite matrix is conjugated into the qubit basis by
    MODE_QUBIT_INDEX, and phi = arg tr(U_circuit^H U_train), the aligning
    phase of `hilbert._phase_deviation`. A train matches at EQUIVALENCE_TOL
    or below.
    """
    if circuit.register != BENCH_REGISTER:
        raise ValueError(
            f"dimension mismatch: train carries qubits {BENCH_REGISTER!r}, "
            f"circuit register is {circuit.register!r}"
        )
    u_train = np.empty((2 * N_BENCH_PATHS, 2 * N_BENCH_PATHS), dtype=complex)
    u_train[np.ix_(MODE_QUBIT_INDEX, MODE_QUBIT_INDEX)] = train.unitary()
    return _phase_deviation(u_train, circuit_unitary(circuit))
