"""Fixed reference job that times the machine, not ``uqcm``.

The benchmark runs on shared machines whose CPU speed drifts by 10-40% over
seconds to minutes. Each timed child therefore runs this job right before and
right after the workload, in the same process, and the end-to-end run metric
is the workload's wall time divided by the mean of the two reference times.
Both see the same machine speed, so the drift cancels; only a change in the
program moves the ratio.

The job mixes the same kinds of work as ``uqcm``: Python-level loops that
build small complex matrices (2x2 plates embedded in 16x16 mode spaces),
matrix products, outer products and traces, a small Hermitian eigensolve,
multinomial sampling and dict/list bookkeeping. It never imports ``uqcm``,
so no change to the program can move it. Changing it changes every
``run_rel`` value: record a new trajectory entry if it is ever edited.
"""

from __future__ import annotations

import math

import numpy as np

ITERATIONS = 10000


def reference_job(iterations: int = ITERATIONS) -> float:
    """Run the fixed job and return a checksum (so no step can be skipped)."""
    rng = np.random.default_rng(20011)
    state = np.zeros(16, dtype=complex)
    state[0] = 1.0
    probs = np.full(6, 1.0 / 6.0)
    table: dict = {}
    checksum = 0.0
    for k in range(iterations):
        angle = 0.001 * k
        c, s = math.cos(2 * angle), math.sin(2 * angle)
        plate = np.array([[c, s], [s, -c]], dtype=complex)
        full = np.eye(16, dtype=complex)
        path = 2 * (k % 8)
        full[path:path + 2, path:path + 2] = plate
        phase = np.exp(1j * angle) * np.eye(16, dtype=complex)
        state = phase @ (full @ state)
        rho = np.outer(state, state.conj())
        block = rho[:4, :4] + rho[4:8, 4:8]
        evals = np.linalg.eigvalsh(block + block.conj().T)
        counts = rng.multinomial(200, probs)
        checksum += float(np.trace(rho).real) + float(evals[-1]) + float(counts[k % 6])
        table[(k % 97, path)] = [round(checksum, 6), int(counts.sum())]
    return checksum + len(table)
