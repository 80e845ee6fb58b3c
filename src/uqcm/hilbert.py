"""Complex linear algebra over labeled multi-qubit registers.

States and density matrices carry explicit qubit labels instead of bare
positions, given in the one basis order: the auxiliary qubit ("aux"), when
present, is the most significant bit of the basis index, followed by the
numbered qubits in ascending order (smallest label = most significant
remaining bit). A constructor rejects labels in any other order rather than
permuting the amplitudes. All values are immutable after construction and
every operation is a pure function.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

AUX = "aux"

# Default absolute tolerance for equality checks (norm, trace, Hermiticity).
ATOL = 1e-12
# Eigenvalue floor for positivity checks; absorbs floating-point roundoff.
PSD_FLOOR = -1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


class _Record:
    """Frozen record base: each subclass names its fields in `__slots__`, in
    constructor order, and sets them in `__init__` with `object.__setattr__`.

    Equality, hash, repr, immutability and pickling are those of a frozen
    dataclass, without generating code at import.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # `_values`, the field tuple, read by one C getter per class.
        cls._values = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self.__slots__, self._values)])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values


class LabelError(ValueError):
    """Unknown, duplicate, or overlapping qubit labels."""


class IsometryError(ValueError):
    """A compiled map or an optical element failed its isometry check."""


def label_key(label):
    """Sort key placing "aux" first (most significant), then numbered qubits."""
    if label == AUX:
        return (0, 0)
    return (1, int(label))


def canonical_labels(labels) -> tuple:
    """Validate labels and return them in canonical (basis) order."""
    seq = tuple(labels)
    if not seq:
        raise LabelError("register needs at least one qubit label")
    if len(set(seq)) != len(seq):
        raise LabelError(f"duplicate qubit labels: {seq!r}")
    for lab in seq:
        if lab != AUX and not isinstance(lab, (int, np.integer)):
            raise LabelError(f"invalid qubit label: {lab!r}")
    return tuple(sorted(seq, key=label_key))


def _basis_labels(labels) -> tuple:
    """Validated labels, which must already be in canonical (basis) order."""
    given = tuple(labels)
    canon = canonical_labels(given)
    if given != canon:
        raise LabelError(f"labels {given!r} are not in basis order {canon!r}: aux first, then qubits ascending")
    return canon


class PureState:
    """Normalized pure state over labeled qubits.

    `labels` come in basis order and `amplitudes` are indexed in that order.
    """

    def __init__(self, labels, amplitudes):
        canon = _basis_labels(labels)
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2 ** len(canon):
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {2 ** len(canon)}"
            )
        nrm2 = float(np.sum(np.abs(amps) ** 2))
        if not abs(nrm2 - 1.0) <= ATOL:
            raise ValueError(f"state is not normalized: sum |a|^2 = {nrm2!r}")
        amps = amps.copy()
        amps.flags.writeable = False
        self._labels = canon
        self._amps = amps

    @property
    def labels(self) -> tuple:
        return self._labels

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    @property
    def n_qubits(self) -> int:
        return len(self._labels)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self._labels, np.outer(self._amps, self._amps.conj()))

    def __repr__(self):
        return f"PureState(labels={self._labels!r}, amplitudes={self._amps!r})"


class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one matrix over labeled qubits
    given in basis order."""

    def __init__(self, labels, matrix):
        canon = _basis_labels(labels)
        mat = np.asarray(matrix, dtype=complex)
        d = 2 ** len(canon)
        if mat.shape != (d, d):
            raise ValueError(f"matrix has shape {mat.shape}, expected {(d, d)}")
        # Every check is "not within": NaN fails each of them.
        if not np.max(np.abs(mat - mat.conj().T)) <= ATOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= ATOL:
            raise ValueError(f"matrix trace is {tr!r}, expected 1")
        if not float(np.min(np.linalg.eigvalsh(mat))) >= PSD_FLOOR:
            raise ValueError("matrix has an eigenvalue below the positivity floor")
        mat = mat.copy()
        mat.flags.writeable = False
        self._labels = canon
        self._matrix = mat

    @property
    def labels(self) -> tuple:
        return self._labels

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def n_qubits(self) -> int:
        return len(self._labels)

    def __repr__(self):
        return f"DensityMatrix(labels={self._labels!r}, matrix={self._matrix!r})"


def partial_trace(rho, keep) -> DensityMatrix:
    """Reduced density matrix on the `keep` labels.

    Accepts a DensityMatrix or a PureState (converted internally).
    """
    if isinstance(rho, PureState):
        rho = rho.density()
    keep = (keep,) if isinstance(keep, (int, np.integer, str)) else tuple(keep)
    keep_canon = canonical_labels(keep)
    missing = set(keep_canon) - set(rho.labels)
    if missing:
        raise LabelError(f"labels not in register: {sorted(map(str, missing))}")
    n = rho.n_qubits
    if keep_canon == rho.labels:
        return DensityMatrix(rho.labels, rho.matrix)
    keep_pos = [rho.labels.index(lab) for lab in keep_canon]
    trace_pos = [p for p in range(n) if p not in keep_pos]
    k, t = len(keep_pos), len(trace_pos)
    tensor = rho.matrix.reshape((2,) * (2 * n))
    order = keep_pos + trace_pos + [p + n for p in keep_pos] + [p + n for p in trace_pos]
    tensor = tensor.transpose(order).reshape(2 ** k, 2 ** t, 2 ** k, 2 ** t)
    reduced = np.einsum("imjm->ij", tensor)
    return DensityMatrix(keep_canon, reduced)


def fidelity(psi: PureState, rho: DensityMatrix) -> float:
    """Overlap <psi|rho|psi> of a pure state with a density matrix."""
    if psi.labels != rho.labels:
        raise LabelError(f"register mismatch: {psi.labels!r} vs {rho.labels!r}")
    value = complex(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes)
    if abs(value.imag) > ATOL:
        raise ValueError(f"fidelity has a nonreal value: {value!r}")
    return float(value.real)


def stokes_decompose(rho: DensityMatrix) -> tuple:
    """Stokes components (s_x, s_y, s_z) of a single-qubit density matrix.

    Defined by rho = (I + s_x X + s_y Y + s_z Z) / 2.
    """
    if rho.n_qubits != 1:
        raise ValueError(f"expected a single-qubit matrix, got {rho.n_qubits} qubits")
    m = rho.matrix
    sx = float(np.real(np.trace(m @ PAULI_X)))
    sy = float(np.real(np.trace(m @ PAULI_Y)))
    sz = float(np.real(np.trace(m @ PAULI_Z)))
    return sx, sy, sz


def _qubit_stokes(amps, position: int = 0) -> np.ndarray:
    """(..., 3) Stokes vectors of one qubit of (..., 2^n) pure-state amplitudes.

    `position` is the qubit's place in canonical basis order (0 = most
    significant). S_k = <psi| sigma_k on that qubit |psi>, the Stokes vector of
    its reduced matrix; for a single qubit, the Bloch vector of the state.
    """
    amps = np.asarray(amps)
    split = amps.reshape(amps.shape[:-1] + (1 << position, 2, -1))
    return np.einsum("...aib,kij,...ajb->...k", split.conj(), _PAULIS, split).real


def _require_physical_stokes(stokes) -> None:
    """Eigenvalues (1 +- |S|) / 2 of every (..., 3) Stokes vector above PSD_FLOOR (NaN fails)."""
    if not np.all(np.linalg.norm(stokes, axis=-1) <= 1.0 - 2.0 * PSD_FLOOR):
        raise ValueError("replica matrix has an eigenvalue below the positivity floor")


def _stokes_fidelity(stokes, bloch) -> np.ndarray:
    """(..., R) overlaps <psi|rho|psi> = (1 + S . n) / 2.

    `stokes` (..., R, 3) holds R single-qubit matrices rho = (I + S . sigma) / 2,
    `bloch` (..., 3) the Bloch vector n of each pure input psi.
    """
    return 0.5 * (1.0 + np.einsum("...rk,...k->...r", stokes, bloch))


def _require_isometry(m: np.ndarray, what: str) -> None:
    """Columns of `m` (shape (..., dim, k)) orthonormal within 1e-10, for every batch entry."""
    gram = m.conj().swapaxes(-1, -2) @ m
    _require_isometry_dev(np.max(np.abs(gram - np.eye(m.shape[-1]))), what)


def _require_isometry_dev(dev, what: str) -> None:
    """IsometryError unless dev = max |M^H M - I| is at most 1e-10 (NaN fails)."""
    dev = float(dev)
    if not dev <= 1e-10:
        raise IsometryError(f"{what} is not an isometry (dev {dev:.3e})")


def _phase_deviation(a, b) -> float:
    """max |a - e^(i phi) b| over two arrays of one shape, phi = arg <b, a>
    the global phase that best aligns b with a."""
    return float(np.max(np.abs(a - np.exp(1j * np.angle(np.vdot(b, a))) * b)))


def _stokes_density(stokes) -> np.ndarray:
    """(..., 2, 2) matrices (I + S . sigma) / 2 of (..., 3) Stokes vectors."""
    return 0.5 * (np.eye(2) + np.einsum("...k,kij->...ij", np.asarray(stokes, dtype=float), _PAULIS))


def stokes_compose(sx: float, sy: float, sz: float, label=1) -> DensityMatrix:
    """Single-qubit density matrix with the given Stokes components."""
    return DensityMatrix([label], _stokes_density((sx, sy, sz)))

