"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import math
import time

import numpy as np

from uqcm.angles import prep_circuit, solve_prep_angles
from uqcm.cli import main
from uqcm.errormodel import fidelity_error_bound, perturbation_sweep
from uqcm.gates import apply_circuit, circuit_unitary
from uqcm.hilbert import DensityMatrix, PureState, fidelity, partial_trace
from uqcm.network import (
    CLONER_PREP_TARGET,
    TRIPLICATOR_FIDELITY,
    build_cloning_network,
    clone,
    optimal_fidelity,
    triplicate,
)
from uqcm.optics import optical_measurement_state
from uqcm.tomography import (
    measurement_state,
    reconstruct_replica,
    signal_probabilities,
    simulate_counts,
)

from reference import (
    input_state,
    random_pure_state,
    reconstruct_single_qubit,
    reference_clone_output,
    replicas_from_state,
    tensor_product,
)

F_OPT = 5.0 / 6.0

THETA_GRID = np.linspace(-math.pi / 2 + math.pi / 36, math.pi / 2, 19)
DELTA_GRID = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)


def _report(num, desc, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}{detail}")
    assert ok, f"criterion {num} failed: {desc}{detail}"


def test_criterion_1_exact_universality_both_tiers():
    """76 grid points reach F1 = F2 = 5/6 within 1e-9 via gates and optics, < 1 s."""
    start = time.perf_counter()
    worst = 0.0
    for delta in DELTA_GRID:
        for theta in THETA_GRID:
            res = clone(theta, delta)
            worst = max(worst, abs(res.fidelity1 - F_OPT), abs(res.fidelity2 - F_OPT))
            psi = input_state(theta, delta)
            rho1, rho2 = replicas_from_state(optical_measurement_state(theta, delta))
            for rho in (rho1, rho2):
                f = fidelity(psi, DensityMatrix([1], rho.matrix))
                worst = max(worst, abs(f - F_OPT))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, "exact universality on the 19 x 4 grid (gate + optics tiers)", ok,
            f" [max dev {worst:.2e}, {elapsed:.2f} s]")


def test_criterion_2_reference_oracle_equivalence():
    """Gate network equals the closed-form transform for 1000 random inputs, < 1 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    u = circuit_unitary(build_cloning_network())
    raw = rng.normal(size=(2, 1000)) + 1j * rng.normal(size=(2, 1000))
    raw /= np.linalg.norm(raw, axis=0, keepdims=True)
    inputs = np.zeros((8, 1000), dtype=complex)
    inputs[0b000] = raw[0]   # |0>_1 |00>_23
    inputs[0b100] = raw[1]   # |1>_1 |00>_23
    outs = u @ inputs
    v0 = reference_clone_output(PureState([1], [1, 0])).amplitudes
    v1 = reference_clone_output(PureState([1], [0, 1])).amplitudes
    refs = np.outer(v0, raw[0]) + np.outer(v1, raw[1])
    overlaps = np.sum(refs.conj() * outs, axis=0)
    phases = overlaps / np.abs(overlaps)
    worst = float(np.max(np.abs(outs - refs * phases)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(2, "gate network matches the closed-form oracle (1000 random inputs)", ok,
            f" [max dev {worst:.2e}, {elapsed:.2f} s]")


def test_criterion_3_optimal_fidelity_formula():
    """F(1,2) = 5/6 exactly, F(M,M) = 1, F(1,3) = 7/9, monotone decreasing in N."""
    ok = optimal_fidelity(1, 2) == 5.0 / 6.0
    ok = ok and all(optimal_fidelity(m, m) == 1.0 for m in (1, 2, 5))
    ok = ok and abs(optimal_fidelity(1, 3) - 7.0 / 9.0) < 1e-15
    for m in (1, 2, 4):
        vals = [optimal_fidelity(m, n) for n in range(m, m + 40)]
        ok = ok and all(a > b for a, b in zip(vals, vals[1:]))
    _report(3, "M-to-N optimal fidelity formula values and monotonicity", ok)


def test_criterion_4_prep_angle_solver():
    """Solved angles drive the preparation sequence onto the target state."""
    angles = solve_prep_angles(CLONER_PREP_TARGET)
    blank = PureState((2, 3), [1, 0, 0, 0])
    prepared = apply_circuit(prep_circuit(angles), blank)
    overlap = abs(complex(np.vdot(CLONER_PREP_TARGET.astype(complex), prepared.amplitudes)))
    ok = overlap >= 1 - 1e-10
    _report(4, "preparation-angle solver reproduces the target state", ok,
            f" [1 - overlap = {max(0.0, 1 - overlap):.2e}]")


def test_criterion_5_tomography_round_trip():
    """Exact inversion recovers 100 random states at 1e-12; pipeline F at 1e-10."""
    rng = np.random.default_rng(55)
    worst_state = 0.0
    for _ in range(100):
        s = rng.normal(size=3)
        s *= rng.uniform(0, 1) ** (1 / 3) / np.linalg.norm(s)
        rho = 0.5 * (
            np.eye(2)
            + s[0] * np.array([[0, 1], [1, 0]])
            + s[1] * np.array([[0, -1j], [1j, 0]])
            + s[2] * np.diag([1, -1])
        )
        d = np.array([1, 1]) / math.sqrt(2)
        r = np.array([1, 1j]) / math.sqrt(2)
        rec = reconstruct_single_qubit(
            float(np.real(rho[0, 0])),
            float(np.real(rho[1, 1])),
            float(np.real(d.conj() @ rho @ d)),
            float(np.real(r.conj() @ rho @ r)),
        )
        worst_state = max(worst_state, float(np.max(np.abs(rec.matrix - rho))))
    worst_f = 0.0
    for theta, delta in ((0.0, 0.0), (0.5, 0.8), (math.pi / 4, math.pi / 2), (-1.2, 4.4)):
        rho1, rho2 = replicas_from_state(measurement_state(theta, delta))
        psi = input_state(theta, delta)
        for rho in (rho1, rho2):
            worst_f = max(worst_f, abs(fidelity(psi, DensityMatrix([1], rho.matrix)) - F_OPT))
    ok = worst_state <= 1e-12 and worst_f <= 1e-10
    _report(5, "tomography round-trip (100 states) and 8-path pipeline fidelity", ok,
            f" [state dev {worst_state:.2e}, F dev {worst_f:.2e}]")


def test_criterion_6_monte_carlo_realism():
    """At 20000 photons per setting, F within 0.01 of 5/6 in >= 95/100 seeds, < 30 s."""
    start = time.perf_counter()
    probs = signal_probabilities(measurement_state(0.0, 0.0))
    psi = input_state(0.0, 0.0)
    hits = 0
    for seed in range(100):
        rec = simulate_counts(probs, 20000, seed)
        f1 = fidelity(psi, DensityMatrix([1], reconstruct_replica(rec, 1).matrix))
        f2 = fidelity(psi, DensityMatrix([1], reconstruct_replica(rec, 2).matrix))
        if abs(f1 - F_OPT) <= 0.01 and abs(f2 - F_OPT) <= 0.01:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 95 and elapsed < 30.0
    _report(6, "counting statistics at the bench rate scale", ok,
            f" [{hits}/100 runs within +/-0.01, {elapsed:.1f} s]")


def test_criterion_7_error_model():
    """Analytic bound arithmetic plus empirical jitter sweep under 0.005."""
    bound_value = fidelity_error_bound(0.002, 0.0018)
    arithmetic_ok = abs(bound_value - 0.0047) < 1e-12
    sweep = perturbation_sweep(
        jitter=0.0018, n_samples=500, seed=2026, delta_c_total=0.002, bound=0.005
    )
    empirical_ok = sweep.mean_deviation <= 0.005
    ok = arithmetic_ok and empirical_ok
    _report(7, "error bound 0.0047 and perturbation sweep below 0.005", ok,
            f" [mean |dF| = {sweep.mean_deviation:.5f}, {sweep.n_exceeding_bound} samples flagged]")


def test_criterion_8_symmetry_and_triplicator():
    """rho1 = rho2 at 1e-12, shrunk-input form at 1e-10, triplicator equal copies."""
    rng = np.random.default_rng(88)
    network = build_cloning_network()
    blank = PureState((2, 3), [1, 0, 0, 0])
    worst_sym = 0.0
    worst_shrink = 0.0
    for _ in range(100):
        psi = random_pure_state([1], rng)
        out = apply_circuit(network, tensor_product(psi, blank))
        rho1 = partial_trace(out, [1]).matrix
        rho2 = partial_trace(out, [2]).matrix
        worst_sym = max(worst_sym, float(np.max(np.abs(rho1 - rho2))))
        shrunk = (2 / 3) * np.outer(psi.amplitudes, psi.amplitudes.conj()) + np.eye(2) / 6
        worst_shrink = max(worst_shrink, float(np.max(np.abs(rho1 - shrunk))))
    worst_equal = 0.0
    values = []
    for theta in np.linspace(-1.4, 1.4, 9):
        r1, r2, r3 = triplicate(theta)
        worst_equal = max(
            worst_equal,
            float(np.max(np.abs(r1.matrix - r2.matrix))),
            float(np.max(np.abs(r1.matrix - r3.matrix))),
        )
        values.append(fidelity(input_state(theta, 0.0), DensityMatrix([1], r1.matrix)))
    spread = max(values) - min(values)
    recorded_gap = abs(values[0] - TRIPLICATOR_FIDELITY)
    ok = (
        worst_sym <= 1e-12
        and worst_shrink <= 1e-10
        and worst_equal <= 1e-10
        and spread <= 1e-9
    )
    _report(8, "replica symmetry, shrunk-input form, triplicator equal copies", ok,
            f" [sym {worst_sym:.1e}, shrink {worst_shrink:.1e}, triplicator spread {spread:.1e}, "
            f"recorded-value gap {recorded_gap:.1e}]")


def test_criterion_9_reproducible_csv(tmp_path):
    """Identical (config, seed) produce byte-identical CSV on consecutive runs."""
    out1, out2 = str(tmp_path / "run1.csv"), str(tmp_path / "run2.csv")
    code1 = main(["sweep", "--mode", "montecarlo", "--trials", "20000", "--seed", "42", "--out", out1])
    code2 = main(["sweep", "--mode", "montecarlo", "--trials", "20000", "--seed", "42", "--out", out2])
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        identical = f1.read() == f2.read()
    ok = code1 == 0 and code2 == 0 and identical
    _report(9, "byte-identical CSV for identical (config, seed)", ok)
