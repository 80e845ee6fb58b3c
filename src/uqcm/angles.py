"""Solver for the two-qubit preparation sequence rotation angles.

The preparation sequence acts on a blank two-qubit register (a, b) as

    R_a(t1) -> CNOT(a->b) -> R_b(t2) -> CNOT(b->a) -> R_a(t3)

and the solver finds (t1, t2, t3) mapping |00> to a requested target state
with real nonnegative amplitudes (a0, a1, a2, a3). Composing the five steps
by hand, with ck = cos tk and sk = sin tk, gives the image of |00> in basis
order (a the most significant bit)

    (c3 c1 c2 + s3 s1 s2,  c3 s1 c2 - s3 c1 s2,  s3 c1 c2 - c3 s1 s2,  s3 s1 c2 + c3 c1 s2),

whose sums and differences read

    (a0 + a3, a2 - a1) = (c2 + s2) (cos, sin)(t3 - t1)
    (a0 - a3, a2 + a1) = (c2 - s2) (cos, sin)(t3 + t1)

so the polar forms (p, u) and (q, v) of the two left-hand vectors give
t3 - t1 = u, t3 + t1 = v and (c2, s2) = ((p + q) / 2, (p - q) / 2), a unit
vector since p^2 + q^2 = 2 for a unit target. With p, q >= 0 the solver
returns t1 = (v - u) / 2, t2 = atan2(p - q, p + q) in [-pi/4, pi/4] and
t3 = (u + v) / 2, and the sequence lands on +target itself. Where p or q is
0, on (|00> + |11>)/sqrt(2) and (|01> + |10>)/sqrt(2), which a one-parameter
family of angles reaches, atan2(0, 0) = 0 picks one member of the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gates import CNOT, Circuit, Rotation, _apply_gates

_TWO_PI = 2.0 * math.pi
# Largest 1 - overlap of the prepared state with the target that a solve accepts.
PREP_TOL = 1e-10


class SolverError(RuntimeError):
    """The solved angles missed the requested residual tolerance."""

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


def prep_circuit(angles: PrepAngles) -> Circuit:
    """The preparation sequence as a circuit on qubits (2, 3)."""
    return Circuit(
        (2, 3),
        (
            Rotation(2, angles.theta1),
            CNOT(2, 3),
            Rotation(3, angles.theta2),
            CNOT(3, 2),
            Rotation(2, angles.theta3),
        ),
    )


def _prep_residual(angles: PrepAngles, target) -> float:
    """1 - |<target|psi>| for psi the image of |00> under `prep_circuit(angles)`,
    the gate sequence the network runs; `target` real, as the solver takes it."""
    return 1.0 - abs(complex(_apply_gates(prep_circuit(angles), np.eye(4)[0]) @ target))


def solve_prep_angles(target) -> PrepAngles:
    """Angles whose preparation sequence reproduces `target` from |00>.

    `target` is the length-4 amplitude vector on qubits (2, 3) in basis
    order, normalized with real nonnegative entries. Returns the closed-form
    branch of the module docstring, t2 in [-pi/4, pi/4]; raises SolverError
    with the residual when the image of |00> under `prep_circuit` of those
    angles misses 1 - PREP_TOL overlap.
    """
    amps = np.asarray(target, dtype=complex).reshape(-1)
    if amps.size != 4:
        raise ValueError("target must have 4 amplitudes")
    if not np.all(np.isfinite(amps)):
        raise ValueError("target amplitudes must be finite")
    if np.max(np.abs(amps.imag)) > 1e-12 or np.min(amps.real) < -1e-12:
        raise ValueError("target amplitudes must be real and nonnegative")
    t = np.clip(amps.real, 0.0, None)
    if abs(float(t @ t) - 1.0) > 1e-10:
        raise ValueError("target state must be normalized")
    a0, a1, a2, a3 = t.tolist()
    p, q = math.hypot(a0 + a3, a2 - a1), math.hypot(a0 - a3, a2 + a1)
    u, v = math.atan2(a2 - a1, a0 + a3), math.atan2(a2 + a1, a0 - a3)
    # Every raw angle is already in (-pi, pi]; the wrap still rounds some last
    # bits, and the pinned cloner angles, so every CSV, depend on those bits.
    angles = PrepAngles(*(_wrap_angle(w) for w in ((v - u) / 2.0, math.atan2(p - q, p + q), (u + v) / 2.0)))
    residual = _prep_residual(angles, t)
    if not residual <= PREP_TOL:
        residual = max(0.0, residual)
        raise SolverError(
            f"prep-angle solve failed: residual {residual:.3e} exceeds tol {PREP_TOL:.1e}",
            residual=residual,
        )
    return angles
