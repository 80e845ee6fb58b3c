"""Solver for the two-qubit preparation sequence rotation angles.

The preparation sequence acts on a blank two-qubit register (a, b) as

    R_a(t1) -> CNOT(a->b) -> R_b(t2) -> CNOT(b->a) -> R_a(t3)

and the solver finds (t1, t2, t3) mapping |00> to a requested target state
with real nonnegative amplitudes. The search is deterministic: a coarse
grid with step pi/180 over each angle, taking the first maximizer in
lexicographic (t1, t2, t3) order, followed by Gauss-Newton refinement of
the amplitude residual.

The coarse search visits neither all 360^3 grid points nor all 360^2
(t2, t3) columns. The overlap at (t1, t2, t3) = (g_i, g_j, g_k) is
c_i P + s_i Q (c = cos g, s = sin g), and the column (P, Q) = M_k^T (c_j, s_j)
with M_k = [[a, b], [e, f]], where

    a = t0 c_k + t2 s_k,   b = t1 c_k + t3 s_k,
    e = t3 c_k - t1 s_k,   f = t0 s_k - t2 c_k

for target amplitudes (t0, t1, t2, t3). By Cauchy-Schwarz every overlap in
column (j, k) is at most hypot(P, Q), and every column of the t3 row k has
hypot(P, Q) <= sigma_k, the larger singular value of M_k. It is computed as
(hypot(a + f, b - e) + hypot(a - f, b + e)) / 2, which equals
sqrt((F + sqrt(F^2 - 4 det^2)) / 2) (F the squared Frobenius norm, det the
determinant) without its cancellation where the two singular values meet.

The exact maximum over t1 of one column (the column with the largest
hypot(P, Q) in the row with the largest sigma) is a lower bound L on the
grid maximum. A row whose sigma, or a column whose hypot(P, Q), stays below
L holds no maximizer; both tests allow a 1e-12 relative slack, far above the
few-ulp rounding of the bounds and of the overlaps they cover. Every column
that holds a maximizer therefore survives both tests, and its overlaps are
evaluated with the elementwise expression of the full grid. The survivors
are kept in ascending flat (j, k) order, so the first maximizer in (i, j, k)
order is the first lexicographic maximizer of the full grid, bit for bit.
For the cloner target 4 of the 360 rows and 8 of the 129,600 columns
survive, for the triplicator 8 rows and 16 columns. Targets reached by a
one-parameter family of angles, such as (|01> + |10>)/sqrt(2), have
det = 0 and sigma = 1 in every row, so all 360 rows and 720 columns
survive through the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gates import CNOT, Circuit, Rotation
from .hilbert import PureState

GRID_STEP = math.pi / 180.0
# Relative slack on the per-row and per-column bounds, far above the few-ulp
# rounding of both the bounds and the overlaps they must cover.
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

    Evaluates only the (t2, t3) columns of the t3 rows whose bounds can reach
    the exact maximum of one column (see the module docstring).
    """
    g = -math.pi + GRID_STEP * np.arange(1, 361)
    c, s = np.cos(g), np.sin(g)
    t0, t1, t2, t3 = target
    # M_k = [[a, b], [e, f]] for every t3 row k, and its larger singular value.
    a, b = t0 * c + t2 * s, t1 * c + t3 * s
    e, f = t3 * c - t1 * s, t0 * s - t2 * c
    sigma = 0.5 * (np.hypot(a + f, b - e) + np.hypot(a - f, b + e))

    def columns(rows):
        # (360, rows.size) P and Q in the full grid's elementwise expression.
        ck, sk = c[rows], s[rows]
        o_cc, o_ss = c[:, None] * ck, s[:, None] * sk
        o_cs, o_sc = c[:, None] * sk, s[:, None] * ck
        p = t0 * o_cc - t1 * o_ss + t2 * o_cs + t3 * o_sc
        q = t0 * o_ss + t1 * o_cc - t2 * o_sc + t3 * o_cs
        return p, q

    p, q = columns(np.array([int(np.argmax(sigma))]))
    top = int(np.argmax(np.hypot(p, q)))
    lower = float(np.max(np.abs(c * p[top, 0] + s * q[top, 0])))
    rows = np.flatnonzero(sigma * (1.0 + _BOUND_MARGIN) >= lower)
    p, q = columns(rows)
    # Boolean indexing is row-major, so the kept columns stay in ascending
    # flat (j, k) order and a row-major argmax over (i, column) is the first
    # maximizer in (i, j, k) order.
    keep = np.hypot(p, q) * (1.0 + _BOUND_MARGIN) >= lower
    j_idx, r_idx = np.nonzero(keep)
    vals = np.abs(c[:, None] * p[keep] + s[:, None] * q[keep])
    i, m = divmod(int(np.argmax(vals)), j_idx.size)
    return (float(g[i]), float(g[j_idx[m]]), float(g[rows[r_idx[m]]]))


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
