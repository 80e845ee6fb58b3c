#!/usr/bin/env python3
"""Derive the frozen triplicator preparation state in closed form.

Only the two-qubit state prepared for the fixed cloning stage picks the
machine. The triplicator's state gives three replicas that coincide for every
real input, with a fidelity that does not depend on it, and the highest such
fidelity. Both constraints are quadratic identities in the prepared
amplitudes d = (d0, d1, d2, d3) = (p00, p11, p01, p10), with |d| = 1:

    d1^2 = d2^2 = d3^2,
    q1 = q2 = q3, where q1 = d0 d1 + d2 d3, q2 = d0 d2 + d1 d3, q3 = d0 d3 + d1 d2,
    2 |d|^2 - 4 (d0^2 + d1^2) + 4 q1 = 0.

The script reads the constraints off the cloning unitary as quadratic forms
in d and checks that they span the same 5-dimensional space as the
identities. The first identity gives d_k = s_k x (k = 1, 2, 3) with s_k = +-1
and x > 0, since x = 0 leaves -2 d0^2 = 0. With d0 = r x the last one reads
r^2 - 2 s1 r - (1 + 2 s2 s3) = 0, so r = s1 +- sqrt(2 + 2 s2 s3) and
x = 1 / sqrt(r^2 + 3). Ten of those candidates meet q1 = q2 = q3: up to
global sign, five states in the package order (p00, p01, p10, p11),

    (sqrt(3)/2, 1/(2 sqrt 3), 1/(2 sqrt 3), 1/(2 sqrt 3))                at F = 5/6,
    (1, -1, -1, -1)/2, (1, 1, 1, -1)/2, (1, 1, -1, 1)/2, (1, -1, 1, 1)/2  at F = 1/2.

Each state is run through the literal machine, and the best one must match
TRIPLICATOR_PREP_TARGET and TRIPLICATOR_FIDELITY to 1e-12. Exits nonzero on
any mismatch.

Run:  PYTHONPATH=src python scripts/derive_triplicator.py
"""

import itertools
import math
import sys

import numpy as np

from uqcm.angles import prep_circuit, solve_prep_angles
from uqcm.gates import apply_circuit, circuit_unitary
from uqcm.hilbert import PureState
from uqcm.network import TRIPLICATOR_FIDELITY, TRIPLICATOR_PREP_TARGET, build_cloning_circuit

CLONING_UNITARY = circuit_unitary(build_cloning_circuit())
INPUT_GRID = np.linspace(-1.3, 1.3, 5)
P_OF_D = [0, 2, 3, 1]  # (p00, p01, p10, p11) = d[P_OF_D]


def run_machine(prep, theta):
    """Reduced outputs and replica-1 fidelity for input (cos t, sin t)."""
    amp_in = np.array([math.cos(theta), math.sin(theta)])
    state = CLONING_UNITARY @ np.kron(amp_in, prep).astype(complex)
    tensor = np.outer(state, state.conj()).reshape((2,) * 6)
    rhos = [np.einsum(trace, tensor) for trace in ("iabjab->ij", "aibajb->ij", "abiabj->ij")]
    return rhos, float(np.real(amp_in @ rhos[0] @ amp_in))


def constraint_values(d):
    """rho1 - rho2, rho1 - rho3 and F - F(first input) over the input grid.

    Each value is quadratic in d. A reduced entry is a quadratic form in the
    input (c, s) and F a quartic one, so their values at the grid's five
    input directions fix every coefficient: all vanish exactly when d meets
    both constraints for every real input.
    """
    runs = [run_machine(d[P_OF_D], theta) for theta in INPUT_GRID]
    f_first = runs[0][1]
    return np.concatenate([np.append(np.ravel([r1 - r2, r1 - r3]), f - f_first) for (r1, r2, r3), f in runs])


def identities(d):
    """The five identities in d; all vanish on a constrained state."""
    d0, d1, d2, d3 = d
    q1, q2, q3 = d0 * d1 + d2 * d3, d0 * d2 + d1 * d3, d0 * d3 + d1 * d2
    return np.array([d1**2 - d2**2, d1**2 - d3**2, q1 - q2, q1 - q3, 2 * (d @ d) - 4 * (d0**2 + d1**2) + 4 * q1])


def quadratic_forms(values):
    """Real rows of 16 matrix entries, one per value's quadratic form in d (by polarization)."""
    e = np.eye(4)
    forms = np.array([[(values(e[i] + e[j]) - values(e[i]) - values(e[j])) / 2 for j in range(4)] for i in range(4)])
    return np.concatenate([forms.real, forms.imag], axis=2).reshape(16, -1).T


def constrained_states():
    """Raw solution count, and each state once as d with d0 > 0."""
    found = []
    for s1, s2, s3 in itertools.product((1, -1), repeat=3):
        w = math.sqrt(2 + 2 * s2 * s3)
        for r in (s1 + w, s1 - w) if w else (s1,):
            v = np.array([r, s1, s2, s3], dtype=float)  # d / x has integer entries: exact test
            if not identities(v).any():
                found.append(v / math.sqrt(r * r + 3))
    return len(found), [np.array(d) for d in sorted({tuple(np.sign(d[0]) * d) for d in found}, reverse=True)]


def main():
    machine, hand = quadratic_forms(constraint_values), quadratic_forms(identities)
    ranks = tuple(int(np.linalg.matrix_rank(m)) for m in (machine, hand, np.concatenate([machine, hand])))
    print("rank of the machine's forms %d, of the identities %d, joint %d" % ranks)
    if ranks != (5, 5, 5):
        print("MISMATCH: the identities do not express the machine's constraints")
        return 1

    n_raw, states = constrained_states()
    print(f"{n_raw} solutions, {len(states)} constrained preparation states up to global sign:")
    scored = []
    for d in states:
        residual = float(np.max(np.abs(constraint_values(d))))
        fidelity = run_machine(d[P_OF_D], INPUT_GRID[0])[1]
        print(f"    prep = {d[P_OF_D]}  common fidelity = {fidelity:.9f}  [constraint residual {residual:.1e}]")
        if not residual < 1e-13:
            print("MISMATCH: this state fails the constraints on the literal machine")
            return 1
        scored.append((fidelity, d[P_OF_D]))
    best_f, best = max(scored, key=lambda fp: fp[0])
    angles = solve_prep_angles(best)
    prepared = apply_circuit(prep_circuit(angles), PureState((2, 3), [1, 0, 0, 0])).amplitudes
    angle_dev = float(np.max(np.abs(prepared - best)))
    prep_dev = float(np.max(np.abs(best - TRIPLICATOR_PREP_TARGET)))
    f_dev = abs(best_f - TRIPLICATOR_FIDELITY)

    print()
    print(f"selected triplicator prep state: {best}, common fidelity {best_f:.12f}")
    print(f"prep angles {angles.as_tuple()} reproduce it to {angle_dev:.1e}")
    print(f"deviation from TRIPLICATOR_PREP_TARGET {prep_dev:.1e}, from TRIPLICATOR_FIDELITY {f_dev:.1e}")
    if not (prep_dev <= 1e-12 and f_dev <= 1e-12 and angle_dev <= 1e-12):
        print("MISMATCH with the frozen constants")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
