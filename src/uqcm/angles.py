"""Solver for the two-qubit preparation sequence rotation angles.

The preparation sequence acts on a blank two-qubit register (a, b) as

    R_a(t1) -> CNOT(a->b) -> R_b(t2) -> CNOT(b->a) -> R_a(t3)

and the solver finds (t1, t2, t3) mapping |00> to a requested target state
with real nonnegative amplitudes. The search is deterministic: a coarse
grid with step pi/180 over each angle, taking the first maximizer in
lexicographic (t1, t2, t3) order, followed by Gauss-Newton refinement of
the amplitude residual.

The coarse search does not visit all 360^3 grid points. The overlap at
(t1, t2, t3) = (g_i, g_j, g_k) is cos(g_i) P[j, k] + sin(g_i) Q[j, k], so by
Cauchy-Schwarz every value in the (j, k) column over all t1 is at most
hypot(P[j, k], Q[j, k]). The exact maximum of the column with the largest
bound is a lower bound L on the grid maximum, and a column whose bound stays
below L (with a 1e-12 relative slack for rounding) holds no maximizer. Every
column that holds one, so every tied maximizer, is evaluated with the same
elementwise expression as the full grid, and the first of them in (i, j, k)
order is the first lexicographic maximizer of the full grid, bit for bit.
Of the 129,600 columns, 8 survive for the cloner target and 16 for the
triplicator; targets reached by a one-parameter family of angles, such as
(|01> + |10>)/sqrt(2), keep 720.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gates import CNOT, Circuit, Rotation
from .hilbert import PureState

GRID_STEP = math.pi / 180.0
# Relative slack on the per-column bound, far above the few-ulp rounding of
# both the bound and the overlaps it must cover.
_BOUND_MARGIN = 1e-12

_TWO_PI = 2.0 * math.pi


class SolverError(RuntimeError):
    """No angle assignment reached the requested residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _wrap_angle(x: float) -> float:
    w = (x + math.pi) % _TWO_PI - math.pi
    return math.pi if w == -math.pi else w


@dataclass(frozen=True)
class PrepAngles:
    """Rotation angles of the preparation sequence, each in (-pi, pi]."""

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            if not (-math.pi < v <= math.pi):
                raise ValueError(f"{name}={v!r} outside (-pi, pi]")

    def as_tuple(self) -> tuple:
        return (self.theta1, self.theta2, self.theta3)


def prep_circuit(angles: PrepAngles, qubit_a=2, qubit_b=3) -> Circuit:
    """The preparation sequence as a circuit on (qubit_a, qubit_b)."""
    return Circuit(
        (qubit_a, qubit_b),
        (
            Rotation(qubit_a, angles.theta1),
            CNOT(qubit_a, qubit_b),
            Rotation(qubit_b, angles.theta2),
            CNOT(qubit_b, qubit_a),
            Rotation(qubit_a, angles.theta3),
        ),
    )


def sequence_amplitudes(t1: float, t2: float, t3: float) -> np.ndarray:
    """Closed-form image of |00> under the preparation sequence.

    Basis order (a, b) with `a` the most significant bit. Obtained by
    composing the five steps by hand; used by the solver, while tests
    validate solved angles through the generic circuit machinery.
    """
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    c3, s3 = math.cos(t3), math.sin(t3)
    return np.array(
        [
            c3 * c1 * c2 + s3 * s1 * s2,
            c3 * s1 * c2 - s3 * c1 * s2,
            s3 * c1 * c2 - c3 * s1 * s2,
            s3 * s1 * c2 + c3 * c1 * s2,
        ]
    )


def _coarse_grid_start(target: np.ndarray) -> tuple:
    """First lexicographic maximizer of |<target|sequence>| on the coarse grid.

    Evaluates only the (t2, t3) columns whose bound hypot(P, Q) can reach the
    exact maximum of one column (see the module docstring).
    """
    g = -math.pi + GRID_STEP * np.arange(1, 361)
    c, s = np.cos(g), np.sin(g)
    o_cc = np.outer(c, c)
    o_ss = np.outer(s, s)
    o_cs = np.outer(c, s)
    o_sc = np.outer(s, c)
    t0, t1, t2, t3 = target
    # Overlap at (i, j, k) factors as cos(g_i) * P[j, k] + sin(g_i) * Q[j, k].
    p = (t0 * o_cc - t1 * o_ss + t2 * o_cs + t3 * o_sc).reshape(-1)
    q = (t0 * o_ss + t1 * o_cc - t2 * o_sc + t3 * o_cs).reshape(-1)
    bound = np.hypot(p, q)
    top = int(np.argmax(bound))
    lower = float(np.max(np.abs(c * p[top] + s * q[top])))
    # Flat (j, k) indices in ascending order, so a row-major argmax over
    # (i, column) is the first maximizer in (i, j, k) order.
    cols = np.flatnonzero(bound * (1.0 + _BOUND_MARGIN) >= lower)
    vals = np.abs(c[:, None] * p[cols] + s[:, None] * q[cols])
    i, m = divmod(int(np.argmax(vals)), cols.size)
    j, k = divmod(int(cols[m]), g.size)
    return (float(g[i]), float(g[j]), float(g[k]))


def _refine(target: np.ndarray, start: tuple, max_iter: int = 60) -> np.ndarray:
    """Gauss-Newton iteration on the amplitude residual from a grid start."""
    x = np.array(start, dtype=float)
    sign = 1.0 if float(sequence_amplitudes(*x) @ target) >= 0.0 else -1.0
    h = 1e-7
    for _ in range(max_iter):
        f = sign * sequence_amplitudes(*x)
        r = f - target
        jac = np.empty((4, 3))
        for k in range(3):
            xp = x.copy()
            xp[k] += h
            jac[:, k] = (sign * sequence_amplitudes(*xp) - f) / h
        dx, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        x = x + dx
        if float(np.linalg.norm(dx)) < 1e-12:
            break
    return x


def solve_prep_angles(target, tol: float = 1e-10) -> PrepAngles:
    """Angles whose preparation sequence reproduces `target` from |00>.

    `target` is a PureState on two qubits or a length-4 amplitude vector,
    normalized with real nonnegative entries. Raises SolverError with the
    best residual when no assignment reaches 1 - tol overlap.
    """
    if isinstance(target, PureState):
        if target.n_qubits != 2:
            raise ValueError("target must live on exactly two qubits")
        amps = target.amplitudes
    else:
        amps = np.asarray(target, dtype=complex).reshape(-1)
        if amps.size != 4:
            raise ValueError("target must have 4 amplitudes")
    if np.max(np.abs(amps.imag)) > 1e-12 or np.min(amps.real) < -1e-12:
        raise ValueError("target amplitudes must be real and nonnegative")
    t = np.clip(amps.real, 0.0, None)
    if abs(float(t @ t) - 1.0) > 1e-10:
        raise ValueError("target state must be normalized")
    return _solve(t.tobytes(), float(tol))


@lru_cache(maxsize=8)
def _solve(target_bytes: bytes, tol: float) -> PrepAngles:
    """Grid start and refinement for a validated float64 target, memoised
    per (target, tol); a SolverError is raised again on every call."""
    t = np.frombuffer(target_bytes)
    x = _refine(t, _coarse_grid_start(t))
    overlap = float(sequence_amplitudes(*x) @ t)
    residual = max(0.0, 1.0 - abs(overlap))
    if not (residual <= tol):
        raise SolverError(
            f"prep-angle search failed: best residual {residual:.3e} exceeds tol {tol:.1e}",
            residual=residual,
        )
    if overlap < 0.0:
        # A half turn of the first rotation flips the global sign of the
        # prepared state, so the sequence lands on +target rather than -target.
        x[0] += math.pi
    return PrepAngles(*(_wrap_angle(v) for v in x))
