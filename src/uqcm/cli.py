"""Command-line experiment harness.

Subcommands:

* ``sweep``  - sweep the input-state grid (19 theta points x 4 delta values
  by default), run the selected pipeline (exact, montecarlo, perturbed) and
  write one CSV row per (delta, theta, replica) plus a summary against the
  5/6 reference.
* ``verify`` - run the full invariant suite (oracle equivalence, optics vs
  gates, tomography round-trip, prep-angle solver, replica symmetry) and
  report machine-readable pass/fail lines.
* ``tomo``   - single-state tomography run printing the reconstructed
  replica density matrices.

Exit codes: 0 success, 2 configuration/usage error, 3 verification failure,
4 I/O failure. CSV output is byte-identical for identical (config, seed):
all randomness comes from explicitly seeded PCG64 streams and all numbers
are printed with fixed 9-decimal formatting.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .gates import apply_circuit
from .hilbert import (
    PureState,
    _qubit_stokes,
    _stokes_fidelity,
    partial_trace,
    random_pure_state,
    stokes_compose,
    tensor_product,
)
from .angles import SolverError, prep_circuit, solve_prep_angles
from .errormodel import ErrorBudget, fidelity_error_bound, perturbation_sweep
from .network import (
    CLONER_PREP_TARGET,
    TRIPLICATOR_PREP_TARGET,
    _clone_outputs,
    _input_amplitudes,
    _replica_stokes_of_outputs,
    build_cloning_network,
    build_measurement_circuit,
    optimal_fidelity,
    reference_clone_output,
)
from .optics import HWP, OpticalTrain, _bench_path_amplitudes, build_cloner_train, verify_equivalence
from .tomography import (
    BASES,
    BASIS_VECTORS,
    DetectorModel,
    _click_probabilities,
    _replica_stokes,
    exact_report,
    fidelity_report,
    measurement_state,
    montecarlo_report,
    reconstruct_replica,
    reconstruct_single_qubit,
    signal_probabilities,
    simulate_counts,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_IO = 4

TARGET_F = optimal_fidelity(1, 2)
EXACT_TOL = 1e-9
# Grid points per array pass of the exact sweep.
EXACT_BLOCK = 128
PERTURBED_BOUND = 0.005

CSV_HEADER = "mode,delta_rad,theta_rad,replica,fidelity,stderr,seed"

_DEFAULT_DELTAS = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)


class UsageError(Exception):
    """Invalid configuration or flags."""


def _check_theta(theta: float) -> None:
    if not (-math.pi / 2 < theta <= math.pi / 2):
        raise UsageError(f"theta value {theta!r} outside (-pi/2, pi/2]")


def _check_delta(delta: float) -> None:
    if not (0.0 <= delta < 2.0 * math.pi):
        raise UsageError(f"delta value {delta!r} outside [0, 2*pi)")


@dataclass(frozen=True)
class SweepConfig:
    mode: str = "exact"
    theta_start: float = -math.pi / 2 + math.pi / 36
    theta_end: float = math.pi / 2
    theta_steps: int = 19
    delta_list: tuple = _DEFAULT_DELTAS
    trials: int = 20000
    seed: int = 42
    jitter_deg: float = 0.1
    delta_c: float = 0.002
    samples: int = 25
    out: str = "fidelity_sweep.csv"

    def __post_init__(self):
        if self.mode not in ("exact", "montecarlo", "perturbed"):
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.theta_steps < 1:
            raise UsageError("theta_steps must be >= 1")
        for th in (self.theta_start, self.theta_end):
            _check_theta(th)
        if self.theta_end < self.theta_start:
            raise UsageError("theta_end must be >= theta_start")
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        if self.samples < 1:
            raise UsageError("samples must be >= 1")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if not (math.isfinite(self.jitter_deg) and math.isfinite(self.delta_c)):
            raise UsageError("jitter_deg and delta_c must be finite")
        if self.jitter_deg < 0 or self.delta_c < 0:
            raise UsageError("jitter_deg and delta_c must be nonnegative")
        deltas = tuple(sorted(float(d) for d in self.delta_list))
        if not deltas:
            raise UsageError("delta_list must not be empty")
        for d in deltas:
            _check_delta(d)
        object.__setattr__(self, "delta_list", deltas)

    def theta_grid(self) -> np.ndarray:
        if self.theta_steps == 1:
            return np.array([self.theta_start])
        return np.linspace(self.theta_start, self.theta_end, self.theta_steps)


_CONFIG_PARSERS = {
    "mode": str,
    "theta_start": float,
    "theta_end": float,
    "theta_steps": int,
    "delta_list": lambda v: tuple(float(x) for x in v.split(",") if x.strip()),
    "trials": int,
    "seed": int,
    "jitter_deg": float,
    "delta_c": float,
    "samples": int,
    "out": str,
}


def load_config_file(path: str) -> dict:
    """Parse a plain-text ``key = value`` configuration file."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        parser = _CONFIG_PARSERS.get(key)
        if parser is None:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def build_sweep_config(args: argparse.Namespace) -> SweepConfig:
    """Config file first, then explicit flags override."""
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in ("mode", "trials", "seed", "jitter_deg", "out"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        return SweepConfig(**values)
    except TypeError as exc:
        raise UsageError(str(exc)) from exc


def _point_seed(seed: int, i_delta: int, i_theta: int) -> int:
    """Stable per-grid-point seed; points are independent and order-free."""
    return int(np.random.SeedSequence((seed, i_delta, i_theta)).generate_state(1)[0])


def format_row(mode, delta, theta, replica, fid, stderr, seed) -> str:
    return f"{mode},{delta:.9f},{theta:.9f},{replica},{fid:.9f},{stderr:.9f},{seed}"


def _exact_fidelities(theta: np.ndarray, delta: np.ndarray) -> tuple:
    """(N, 2) replica fidelities of the gate tier and of the optics tier for
    N input points: one product with the compiled network image, one with
    the bench's body isometry, and (1 + S . n) / 2 for both."""
    amps = _input_amplitudes(theta, delta)
    bloch = _qubit_stokes(amps)
    f_gate = _stokes_fidelity(_replica_stokes_of_outputs(_clone_outputs(amps)), bloch)
    probs = _click_probabilities(_bench_path_amplitudes(theta, delta))
    return f_gate, _stokes_fidelity(_replica_stokes(probs), bloch)


def compute_sweep(config: SweepConfig):
    """Run the sweep; returns (csv_rows, summary_lines, exit_code)."""
    rows = []
    summary = []
    exit_code = EXIT_OK
    thetas = config.theta_grid()

    if config.mode == "exact":
        # The whole (delta, theta) grid, delta-major, as array arithmetic in
        # fixed-size blocks of points, which bound the working set.
        grid_delta = np.repeat(config.delta_list, len(thetas))
        grid_theta = np.tile(thetas, len(config.delta_list))
        blocks = [
            _exact_fidelities(grid_theta[i:i + EXACT_BLOCK], grid_delta[i:i + EXACT_BLOCK])
            for i in range(0, grid_theta.size, EXACT_BLOCK)
        ]
        f_gate, f_opt = (np.concatenate(tier) for tier in zip(*blocks))
        rows = [
            (delta, theta, replica, fid, 0.0, config.seed)
            for delta, theta, fids in zip(grid_delta.tolist(), grid_theta.tolist(), f_gate.tolist())
            for replica, fid in enumerate(fids, start=1)
        ]
        max_dev_gate = float(np.max(np.abs(f_gate - TARGET_F)))
        max_dev_optics = float(np.max(np.abs(f_opt - TARGET_F)))
        summary.append(f"exact sweep: {len(rows)} rows over {len(config.delta_list)} delta x {len(thetas)} theta")
        summary.append(f"max |F - 5/6| gate tier:   {max_dev_gate:.3e}")
        summary.append(f"max |F - 5/6| optics tier: {max_dev_optics:.3e}")
        if max_dev_gate > EXACT_TOL or max_dev_optics > EXACT_TOL:
            summary.append(f"FAIL: exact-mode deviation exceeds {EXACT_TOL:.1e}")
            exit_code = EXIT_VERIFY
        else:
            summary.append(f"PASS: all fidelities within {EXACT_TOL:.1e} of 5/6")

    elif config.mode == "montecarlo":
        max_dev = 0.0
        max_err = 0.0
        for i_d, delta in enumerate(config.delta_list):
            for i_t, theta in enumerate(thetas):
                seed = _point_seed(config.seed, i_d, i_t)
                rep = montecarlo_report(theta, delta, config.trials, seed)
                for replica, fid, err in (
                    (1, rep.fidelity1, rep.stderr1),
                    (2, rep.fidelity2, rep.stderr2),
                ):
                    rows.append((delta, theta, replica, fid, err, seed))
                    max_dev = max(max_dev, abs(fid - TARGET_F))
                    max_err = max(max_err, err)
        summary.append(
            f"montecarlo sweep: trials={config.trials} per basis setting, base seed={config.seed}"
        )
        summary.append(f"max |F - 5/6| = {max_dev:.6f}, max bootstrap stderr = {max_err:.6f}")

    else:  # perturbed
        jitter = math.radians(config.jitter_deg)
        budget = ErrorBudget(delta_c=(config.delta_c / 4.0,) * 4, delta_theta=jitter)
        analytic = fidelity_error_bound(budget)
        max_mean_dev = 0.0
        n_exceed = 0
        for i_d, delta in enumerate(config.delta_list):
            for i_t, theta in enumerate(thetas):
                seed = _point_seed(config.seed, i_d, i_t)
                res = perturbation_sweep(
                    jitter,
                    config.samples,
                    seed,
                    theta=theta,
                    delta=delta,
                    delta_c_total=config.delta_c,
                    bound=PERTURBED_BOUND,
                )
                for replica, fs in ((1, res.fidelities1), (2, res.fidelities2)):
                    rows.append(
                        (delta, theta, replica, float(np.mean(fs)), float(np.std(fs, ddof=1)) if len(fs) > 1 else 0.0, seed)
                    )
                max_mean_dev = max(max_mean_dev, res.mean_deviation)
                n_exceed += res.n_exceeding_bound
        summary.append(
            f"perturbed sweep: jitter={config.jitter_deg} deg, delta_c={config.delta_c}, "
            f"samples={config.samples} per point"
        )
        summary.append(f"analytic bound sum(dC) + 1.5*dtheta = {analytic:.4f}")
        summary.append(f"max mean |F - 5/6| over grid = {max_mean_dev:.6f} (reference bound {PERTURBED_BOUND})")
        summary.append(f"samples exceeding bound: {n_exceed} (flagged, not fatal)")

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    csv_rows = [format_row(config.mode, *row) for row in rows]
    return csv_rows, summary, exit_code


def write_csv(path: str, csv_rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in csv_rows:
            fh.write(row + "\n")


def run_sweep(config: SweepConfig, stdout=None) -> int:
    stdout = stdout or sys.stdout
    csv_rows, summary, exit_code = compute_sweep(config)
    try:
        write_csv(config.out, csv_rows)
    except OSError as exc:
        print(f"I/O error writing {config.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(csv_rows)} rows to {config.out}", file=stdout)
    for line in summary:
        print(line, file=stdout)
    return exit_code


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float
    tol: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}\t{status}\tdeviation={self.deviation:.3e}\ttol={self.tol:.1e}"


def _check_reference_oracle(n_random: int = 1000, seed: int = 1905) -> CheckResult:
    """Gate network output equals the closed-form oracle up to global phase."""
    rng = np.random.default_rng(seed)
    network = build_cloning_network()
    blank = PureState((2, 3), [1, 0, 0, 0])
    worst = 0.0
    for _ in range(n_random):
        psi = random_pure_state([1], rng)
        out = apply_circuit(network, tensor_product(psi, blank))
        ref = reference_clone_output(psi)
        phase = np.exp(1j * np.angle(out.inner(ref)))
        worst = max(worst, float(np.max(np.abs(out.amplitudes - phase * ref.amplitudes))))
    return CheckResult("reference_oracle", worst <= 1e-10, worst, 1e-10)


def _check_optics_equivalence(hwp_offset_rad: float = 0.0) -> CheckResult:
    """Compiled train matches the measurement circuit as a unitary."""
    train = build_cloner_train()
    if hwp_offset_rad:
        elements = list(train.elements)
        for i, e in enumerate(elements):
            if isinstance(e, HWP):
                elements[i] = replace(e, angle=e.angle + hwp_offset_rad)
                break
        train = OpticalTrain(train.space, elements)
    report = verify_equivalence(train, build_measurement_circuit(), tol=1e-9)
    return CheckResult("optics_equivalence", report.passed, report.max_deviation, report.tol)


def _check_prep_solver(tol: float = 1e-10) -> CheckResult:
    """Solved angles reproduce both preparation targets through the circuit."""
    worst = 0.0
    for target in (CLONER_PREP_TARGET, TRIPLICATOR_PREP_TARGET):
        try:
            angles = solve_prep_angles(target, tol=tol)
        except SolverError as exc:
            return CheckResult("prep_solver", False, exc.residual, 1e-10)
        blank = PureState((2, 3), [1, 0, 0, 0])
        prepared = apply_circuit(prep_circuit(angles), blank)
        overlap = abs(complex(np.vdot(np.asarray(target, dtype=complex), prepared.amplitudes)))
        worst = max(worst, 1.0 - overlap)
    return CheckResult("prep_solver", worst <= 1e-10, worst, 1e-10)


def _check_tomography_roundtrip(n_random: int = 100, seed: int = 406) -> CheckResult:
    """Exact-probability inversion recovers random single-qubit states."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_random):
        s = rng.normal(size=3)
        s *= rng.uniform(0.0, 1.0) ** (1.0 / 3.0) / np.linalg.norm(s)
        rho = stokes_compose(*s)
        probs = [float(np.real(BASIS_VECTORS[b].conj() @ rho.matrix @ BASIS_VECTORS[b])) for b in BASES]
        rec = reconstruct_single_qubit(*probs)
        worst = max(worst, float(np.max(np.abs(rec.matrix - rho.matrix))))
    return CheckResult("tomography_roundtrip", worst <= 1e-12, worst, 1e-12)


def _check_pipeline_fidelity() -> CheckResult:
    """Full 8-path exact pipeline returns F = 5/6 for both replicas."""
    worst = 0.0
    for theta, delta in ((0.0, 0.0), (0.6, 2.0), (math.pi / 4, math.pi / 2)):
        rep = exact_report(theta, delta)
        worst = max(worst, abs(rep.fidelity1 - TARGET_F), abs(rep.fidelity2 - TARGET_F))
    return CheckResult("pipeline_fidelity", worst <= 1e-10, worst, 1e-10)


def _check_replica_symmetry(n_random: int = 100, seed: int = 515) -> CheckResult:
    """rho1 = rho2 and both match the shrunk-input form (2/3)|psi><psi| + I/6."""
    rng = np.random.default_rng(seed)
    network = build_cloning_network()
    blank = PureState((2, 3), [1, 0, 0, 0])
    worst = 0.0
    for _ in range(n_random):
        psi = random_pure_state([1], rng)
        out = apply_circuit(network, tensor_product(psi, blank))
        rho1 = partial_trace(out, [1]).matrix
        rho2 = partial_trace(out, [2]).matrix
        worst = max(worst, float(np.max(np.abs(rho1 - rho2))))
        shrunk = (2.0 / 3.0) * np.outer(psi.amplitudes, psi.amplitudes.conj()) + np.eye(2) / 6.0
        worst = max(worst, float(np.max(np.abs(rho1 - shrunk))))
    return CheckResult("replica_symmetry", worst <= 1e-10, worst, 1e-10)


def run_verify(hwp_offset_rad: float = 0.0, prep_tol: float = 1e-10, stdout=None) -> int:
    stdout = stdout or sys.stdout
    checks = [
        _check_reference_oracle(),
        _check_optics_equivalence(hwp_offset_rad),
        _check_prep_solver(prep_tol),
        _check_tomography_roundtrip(),
        _check_pipeline_fidelity(),
        _check_replica_symmetry(),
    ]
    for check in checks:
        print(check.line(), file=stdout)
    passed = all(c.passed for c in checks)
    print(f"verify: {'all checks passed' if passed else 'CHECKS FAILED'}", file=stdout)
    return EXIT_OK if passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# tomo
# ---------------------------------------------------------------------------

def run_tomo(theta: float, delta: float, mode: str, trials: int, seed: int, stdout=None) -> int:
    stdout = stdout or sys.stdout
    if mode not in ("exact", "montecarlo"):
        raise UsageError(f"tomo supports modes 'exact' and 'montecarlo', got {mode!r}")
    _check_theta(theta)
    _check_delta(delta)
    if trials < 1:
        raise UsageError("trials must be >= 1")
    if seed < 0:
        raise UsageError("seed must be >= 0")
    probs = signal_probabilities(measurement_state(theta, delta))
    record = None if mode == "exact" else simulate_counts(probs, DetectorModel(), trials, seed)
    source = probs if record is None else record
    rho1, rho2 = reconstruct_replica(source, 1), reconstruct_replica(source, 2)
    rep = fidelity_report(rho1, rho2, theta, delta, mode=mode, counts=record)
    print(f"input: theta={theta:.9f} delta={delta:.9f} mode={mode}", file=stdout)
    for name, rho, fid, err in (
        ("replica 1", rho1, rep.fidelity1, rep.stderr1),
        ("replica 2", rho2, rep.fidelity2, rep.stderr2),
    ):
        print(f"{name}: F = {fid:.9f} +/- {err:.9f} (reference 5/6 = {TARGET_F:.9f})", file=stdout)
        print(_format_matrix(rho.matrix), file=stdout)
    return EXIT_OK


def _format_matrix(matrix: np.ndarray) -> str:
    """Fixed-point printout at 6 decimals; parts that round to zero print as
    0., never as -0. or as rounding residue in scientific notation."""
    m = np.array(matrix, dtype=complex)
    for part in (m.real, m.imag):
        part[np.abs(part) < 5e-7] = 0.0
    return np.array2string(m, precision=6, suppress_small=True)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqcm",
        description="Universal 1-to-2 qubit cloning machine simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="sweep the input-state grid and write CSV")
    sweep.add_argument("--mode", choices=("exact", "montecarlo", "perturbed"), default=None)
    sweep.add_argument("--trials", type=int, default=None, help="photons per basis setting")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--jitter-deg", dest="jitter_deg", type=float, default=None)
    sweep.add_argument("--out", type=str, default=None)
    sweep.add_argument("--config", type=str, default=None, help="key = value config file")

    verify = sub.add_parser("verify", help="run the invariant suite")
    verify.add_argument(
        "--inject-hwp-offset-deg",
        dest="hwp_offset_deg",
        type=float,
        default=0.0,
        help="fault-injection hook: offset the first waveplate by this angle",
    )
    verify.add_argument("--prep-tol", dest="prep_tol", type=float, default=1e-10)

    tomo = sub.add_parser("tomo", help="single-state tomography run")
    tomo.add_argument("--theta", type=float, default=0.0, help="input angle in radians")
    tomo.add_argument("--delta", type=float, default=0.0, help="input phase in radians")
    tomo.add_argument("--mode", choices=("exact", "montecarlo"), default="exact")
    tomo.add_argument("--trials", type=int, default=20000)
    tomo.add_argument("--seed", type=int, default=42)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching EXIT_USAGE
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.command == "sweep":
            return run_sweep(build_sweep_config(args))
        if args.command == "verify":
            return run_verify(
                hwp_offset_rad=math.radians(args.hwp_offset_deg), prep_tol=args.prep_tol
            )
        if args.command == "tomo":
            return run_tomo(args.theta, args.delta, args.mode, args.trials, args.seed)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
