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
  replica density matrices, through the sweep's kernels.

Flags: each subcommand's flags and their types or choices are one table,
`_COMMANDS`. A flag's value is the text after its `=` (``--seed=-2e0``), or
else the next token, whatever it looks like (``--seed -2e0``); a missing
next token, or one starting with ``--``, is an error. A unique prefix names
its flag (``--jit`` is ``--jitter-deg``), an ambiguous one is an error, and
a flag given twice takes its last value. ``-h`` or ``--help`` prints the
usage lines and exits 0. A usage error prints the usage lines, then
``uqcm <cmd>: error: ...``, on stderr and exits 2.

Exit codes: 0 success, 2 configuration/usage error (counts too sparse to
reconstruct included), 3 verification failure, 4 I/O failure. CSV output is
byte-identical for identical (config, seed): all randomness comes from
explicitly seeded PCG64 streams and all numbers are printed with fixed
9-decimal formatting.
"""

from __future__ import annotations

import math
import numbers
import re
import sys

import numpy as np

from .hilbert import (
    IsometryError,
    _Record,
    _phase_deviation,
    _qubit_stokes,
    _require_physical_stokes,
    _stokes_density,
    _stokes_fidelity,
)
from .angles import PREP_TOL, SolverError, _prep_residual, solve_prep_angles
from .errormodel import TRAIN_BLOCK, _jittered_fidelities, _require_budget, fidelity_error_bound
from .network import (
    CLONER_PREP_TARGET,
    TRIPLICATOR_PREP_TARGET,
    _clone_outputs,
    _input_amplitudes,
    _network_outputs,
    _reference_outputs,
    _replica_stokes_of_outputs,
    build_measurement_circuit,
    optimal_fidelity,
)
from .optics import EQUIVALENCE_TOL, _bench_path_amplitudes, build_cloner_train, verify_equivalence
from .streams import seed_words
from .sweepcsv import format_block, write_csv
from .tomography import (
    _BASIS_MATRIX,
    MONTECARLO_BLOCK,
    SWEEP_MODES,
    TOMO_MODES,
    ReconstructionError,
    _click_probabilities,
    _gate_probabilities,
    _montecarlo_fidelities,
    _path_stokes,
    _replica_stokes,
    _require_report_values,
    _require_seed,
    _require_trials,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_IO = 4

TARGET_F = optimal_fidelity(1, 2)
EXACT_TOL = 1e-9
# Grid points per block of the exact and the montecarlo sweep.
EXACT_BLOCK = 256
MONTECARLO_SWEEP_BLOCK = 32 * MONTECARLO_BLOCK
PERTURBED_BOUND = 0.005
# Theta steps and samples per point: the theta grid is float64 and a
# perturbed point's fidelities are (2, samples) float64, and numpy describes
# no array of 2**63 bytes or more (it raises ValueError, not MemoryError).
MAX_GRID_AXIS = np.iinfo(np.intp).max // 16
# Least spacing of two values of one grid axis: twice the CSV's 1e-9
# resolution, so that no two of them print alike.
MIN_GRID_SPACING = 2e-9

_DEFAULT_DELTAS = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)


class UsageError(Exception):
    """Invalid configuration or flags."""


def _check_count(name: str, value, limit: int) -> None:
    if not isinstance(value, numbers.Integral):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if not 1 <= value <= limit:
        raise UsageError(f"{name} must be >= 1 and <= {limit}")


def _usage(check, *args) -> None:
    """`check(*args)`, the library's rule for an input, its ValueError a usage error."""
    try:
        check(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _sorted_deltas(values) -> tuple:
    """`values` as sorted floats; ValueError naming a value given twice,
    which would sweep its points twice, or two that print alike."""
    deltas = tuple(sorted(float(d) for d in values))
    for a, b in zip(deltas, deltas[1:]):
        if a == b:
            raise ValueError(f"delta value {a!r} given twice")
        if b - a < MIN_GRID_SPACING:
            raise ValueError(f"delta values {a!r} and {b!r} lie closer than {MIN_GRID_SPACING!r}")
    return deltas


class SweepConfig(_Record):
    __slots__ = ("mode", "theta_start", "theta_end", "theta_steps", "delta_list", "trials", "seed",
                 "jitter_deg", "delta_c", "samples", "out")

    def __init__(self, mode: str = "exact", theta_start: float = -math.pi / 2 + math.pi / 36,
                 theta_end: float = math.pi / 2, theta_steps: int = 19, delta_list: tuple = _DEFAULT_DELTAS,
                 trials: int = 20000, seed: int = 42, jitter_deg: float = 0.1, delta_c: float = 0.002,
                 samples: int = 25, out: str = "fidelity_sweep.csv"):
        # Counts and the seed first: integers, as the config parsers and the
        # flags give them; the kernels would fail on any other value partway
        # through the CSV.
        _check_count("theta_steps", theta_steps, MAX_GRID_AXIS)
        _check_count("samples", samples, MAX_GRID_AXIS)
        _usage(_require_trials, trials)
        _usage(_require_seed, seed)
        if mode not in SWEEP_MODES:
            raise UsageError(f"unknown mode {mode!r}")
        _usage(_input_amplitudes, (theta_start, theta_end), 0.0)
        if theta_end < theta_start:
            raise UsageError("theta_end must be >= theta_start")
        if theta_end == theta_start and theta_steps > 1:
            raise UsageError(f"theta_end equals theta_start, so theta_steps must be 1, got {theta_steps}")
        if theta_steps > 1 and (theta_end - theta_start) / (theta_steps - 1) < MIN_GRID_SPACING:
            raise UsageError(f"theta_start {theta_start!r} and theta_end {theta_end!r} over "
                             f"{theta_steps} steps give thetas closer than {MIN_GRID_SPACING!r}")
        _usage(_require_budget, "jitter_deg", jitter_deg)
        _usage(_require_budget, "delta_c", delta_c, 1)
        try:
            deltas = _sorted_deltas(delta_list)
        except ValueError as exc:
            raise UsageError(f"delta_list: {exc}") from exc
        if not deltas:
            raise UsageError("delta_list must not be empty")
        _usage(_input_amplitudes, 0.0, deltas)
        for name, value in zip(self.__slots__, (mode, theta_start, theta_end, theta_steps, deltas, trials, seed,
                                                jitter_deg, delta_c, samples, out)):
            object.__setattr__(self, name, value)

    def theta_grid(self) -> np.ndarray:
        if self.theta_steps == 1:
            return np.array([self.theta_start])
        return np.linspace(self.theta_start, self.theta_end, self.theta_steps)


_CONFIG_PARSERS = {
    "mode": str,
    "theta_start": float,
    "theta_end": float,
    "theta_steps": int,
    # An empty item fails float(""); an empty value is the empty list.
    "delta_list": lambda v: _sorted_deltas(v.split(",")) if v else (),
    "trials": int,
    "seed": int,
    "jitter_deg": float,
    "delta_c": float,
    "samples": int,
    "out": str,
}


def load_config_file(path: str) -> dict:
    """Parse a plain-text ``key = value`` configuration file, each key at most
    once; a '#' at the start of a line or after whitespace starts a comment."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        parser = _CONFIG_PARSERS.get(key)
        if parser is None:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise UsageError(f"{path}:{lineno}: config key {key!r} given twice")
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def build_sweep_config(flags: dict) -> SweepConfig:
    """The config file that flags["config"] names, if any, then the other
    flags over it."""
    values = dict(flags)
    path = values.pop("config", None)
    return SweepConfig(**{**(load_config_file(path) if path else {}), **values})


def _exact_fidelities(theta: np.ndarray, delta: np.ndarray) -> tuple:
    """(N, 2) replica fidelities of the gate tier and of the optics tier for
    N input points: one product with the compiled network image, one with
    the bench's body isometry, and (1 + S . n) / 2 for both."""
    amps = _input_amplitudes(theta, delta)
    bloch = _qubit_stokes(amps)
    f_gate = _stokes_fidelity(_replica_stokes_of_outputs(_clone_outputs(amps)), bloch)
    probs = _click_probabilities(_bench_path_amplitudes(theta, delta))
    return f_gate, _stokes_fidelity(_replica_stokes(probs), bloch)


def compute_sweep(config: SweepConfig, write):
    """Run the sweep, passing each block's rows to `write` as one text as
    soon as they are computed; returns (n_rows, summary_lines, exit_code).

    One pass over the delta-major (delta, theta) grid, the CSV row order, in
    blocks that bound its working set: EXACT_BLOCK points in exact mode,
    MONTECARLO_SWEEP_BLOCK in montecarlo mode, and as many whole points as
    fill `errormodel.TRAIN_BLOCK` trains (at least one) in perturbed mode, so
    that a point's samples stay contiguous for their mean and spread. A
    random-mode point's seed is word 0 of SeedSequence((seed, i_delta,
    i_theta)), one `seed_words` call per block, and its rows equal
    `montecarlo_report` or `perturbation_sweep` at that seed. The summary
    keeps order-free maxima and a count.
    """
    mode, samples, thetas = config.mode, config.samples, config.theta_grid()
    size = {"exact": EXACT_BLOCK, "montecarlo": MONTECARLO_SWEEP_BLOCK}.get(mode, max(1, TRAIN_BLOCK // samples))
    jitter = math.radians(config.jitter_deg)
    # Max |F - 5/6| of the gate and optics tiers; max |F - 5/6| and max
    # stderr; max over points of the mean replica-1 |F - 5/6|.
    worst = np.zeros(2)
    n_rows = n_exceeding = 0
    n_points = thetas.size * len(config.delta_list)
    for start in range(0, n_points, size):
        i_delta, i_theta = np.divmod(np.arange(start, min(start + size, n_points)), thetas.size)
        delta, theta = np.take(config.delta_list, i_delta), thetas[i_theta]
        seeds = [config.seed] * i_delta.size
        if mode != "exact":
            seeds = seed_words([(config.seed, d, t) for d, t in zip(i_delta.tolist(), i_theta.tolist())], 1)
            seeds = seeds[:, 0].tolist()
        if mode == "exact":
            fids, f_opt = _exact_fidelities(theta, delta)
            errs = np.zeros_like(fids)
            block = np.abs(fids - TARGET_F).max(), np.abs(f_opt - TARGET_F).max()
        elif mode == "montecarlo":
            fids, errs, _ = _montecarlo_fidelities(theta, delta, seeds, config.trials)
            block = np.abs(fids - TARGET_F).max(), errs.max()
        else:
            # (replica, point, sample): a point's samples contiguous, as in
            # `perturbation_sweep`, so means and spreads sum in its order.
            per_replica = _jittered_fidelities(theta, delta, seeds, samples, jitter, config.delta_c)
            fids = per_replica.mean(axis=-1).T
            errs = per_replica.std(axis=-1, ddof=1).T if samples > 1 else np.zeros_like(fids)
            devs = np.abs(per_replica[0] - TARGET_F)
            block = devs.mean(axis=-1).max(), 0.0
            n_exceeding += int(np.sum(devs > PERTURBED_BOUND))
        worst = np.maximum(worst, block)
        write(format_block(mode, delta, theta, fids, errs, seeds) + "\n")
        n_rows += fids.size

    worst_a, worst_b = worst.tolist()
    exit_code = EXIT_OK
    if mode == "exact":
        summary = [
            f"exact sweep: {n_rows} rows over {len(config.delta_list)} delta x {config.theta_steps} theta",
            f"max |F - 5/6| gate tier:   {worst_a:.3e}",
            f"max |F - 5/6| optics tier: {worst_b:.3e}",
        ]
        if worst_a > EXACT_TOL or worst_b > EXACT_TOL:
            summary.append(f"FAIL: exact-mode deviation exceeds {EXACT_TOL:.1e}")
            exit_code = EXIT_VERIFY
        else:
            summary.append(f"PASS: all fidelities within {EXACT_TOL:.1e} of 5/6")
    elif mode == "montecarlo":
        summary = [
            f"montecarlo sweep: trials={config.trials} per basis setting, base seed={config.seed}",
            f"max |F - 5/6| = {worst_a:.6f}, max bootstrap stderr = {worst_b:.6f}",
        ]
    else:
        summary = [
            f"perturbed sweep: jitter={config.jitter_deg} deg, delta_c={config.delta_c}, samples={samples} per point",
            f"analytic bound sum(dC) + 1.5*dtheta = {fidelity_error_bound(config.delta_c, jitter):.4f}",
            f"max mean |F - 5/6| over grid = {worst_a:.6f} (reference bound {PERTURBED_BOUND})",
            f"samples exceeding bound: {n_exceeding} (flagged, not fatal)",
        ]
    return n_rows, summary, exit_code


def run_sweep(config: SweepConfig) -> int:
    try:
        n_rows, summary, exit_code = write_csv(config.out, lambda write: compute_sweep(config, write))
    except OSError as exc:
        # The error names --out, not the temporary file beside it that failed.
        print(f"I/O error writing {config.out!r}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {n_rows} rows to {config.out}")
    for line in summary:
        print(line)
    return exit_code


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class CheckResult(_Record):
    __slots__ = ("name", "deviation", "tol")

    def __init__(self, name: str, deviation: float, tol: float):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "deviation", deviation)
        object.__setattr__(self, "tol", tol)

    @property
    def passed(self) -> bool:
        """The deviation within the tolerance; NaN fails."""
        return self.deviation <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}\t{status}\tdeviation={self.deviation:.3e}\ttol={self.tol:.1e}"


# Bloch +z, -z, +x and +y: the inputs of the checks below that compare two
# sides affine in the input's Bloch vector n. Every unit n is an affine
# combination of the four with weights of absolute sum at most 1 + 2 sqrt(2),
# so a deviation found at them bounds the deviation at every input by at most
# 1 + 2 sqrt(2) times.
_CHECK_INPUTS = _input_amplitudes((0.0, math.pi / 2, math.pi / 4, math.pi / 4), (0.0, 0.0, 0.0, math.pi / 2))


def _check_reference_oracle() -> CheckResult:
    """The gate sequence's image of the input basis |0>, |1> equals the
    closed-form oracle's up to one global phase. A linear map that matches on
    a basis up to one phase matches on every input."""
    dev = _phase_deviation(_network_outputs(np.eye(2)), _reference_outputs(np.eye(2)))
    return CheckResult("reference_oracle", dev, 1e-10)


def _check_optics_equivalence() -> CheckResult:
    """Compiled train matches the measurement circuit as a unitary."""
    dev = verify_equivalence(build_cloner_train(), build_measurement_circuit())
    return CheckResult("optics_equivalence", dev, EQUIVALENCE_TOL)


def _check_prep_solver() -> CheckResult:
    """Solved angles reproduce both preparation targets through the circuit,
    by the solver's own residual. A failed solve reads NaN, which fails
    whatever residual the SolverError reports."""
    targets = (CLONER_PREP_TARGET, TRIPLICATOR_PREP_TARGET)
    try:
        worst = max(0.0, *(_prep_residual(solve_prep_angles(t), t) for t in targets))
    except SolverError:
        worst = math.nan
    return CheckResult("prep_solver", worst, PREP_TOL)


def _check_tomography_roundtrip() -> CheckResult:
    """Exact-probability inversion recovers the check inputs' axes at radius
    1/2, as one batch: matrices, H/V/D/R probabilities, inversion and the
    positivity floor. Inside the ball the inversion is affine in the Stokes
    vector, and interior points also catch a wrong shortening radius."""
    rho = _stokes_density(0.5 * _qubit_stokes(_CHECK_INPUTS))
    probs = np.einsum("ib,nij,jb->nb", _BASIS_MATRIX, rho, _BASIS_MATRIX.conj()).real
    recovered = _path_stokes(probs)
    _require_physical_stokes(recovered)
    return CheckResult("tomography_roundtrip", float(np.max(np.abs(_stokes_density(recovered) - rho))), 1e-12)


def _check_pipeline_fidelity() -> CheckResult:
    """The full 8-path exact pipeline gives each replica the Stokes vector
    (2/3) n. S is affine in n, so this fixes F = (1 + S . n) / 2 = 5/6 on the
    whole sphere, with |F - 5/6| at most (1 + 2 sqrt(2)) / 2 times the
    largest |S - (2/3) n| found here."""
    stokes = _replica_stokes(_gate_probabilities(_CHECK_INPUTS))
    shrunk = (2.0 / 3.0) * _qubit_stokes(_CHECK_INPUTS)[:, None]
    return CheckResult("pipeline_fidelity", float(np.max(np.linalg.norm(stokes - shrunk, axis=-1))), 1e-10)


def _check_replica_symmetry() -> CheckResult:
    """rho1 = rho2 and both match the shrunk-input form (2/3)|psi><psi| + I/6,
    through the gate sequence itself. Both sides are linear in |psi><psi|,
    and the four inputs' projectors span a qubit's Hermitian matrices."""
    rho = _stokes_density(_replica_stokes_of_outputs(_network_outputs(_CHECK_INPUTS)))
    rho1, rho2 = rho[:, 0], rho[:, 1]
    shrunk = (2.0 / 3.0) * _CHECK_INPUTS[:, :, None] * _CHECK_INPUTS[:, None, :].conj() + np.eye(2) / 6.0
    worst = max(float(np.max(np.abs(rho1 - rho2))), float(np.max(np.abs(rho1 - shrunk))))
    return CheckResult("replica_symmetry", worst, 1e-10)


def run_verify() -> int:
    checks = [check() for check in (_check_reference_oracle, _check_optics_equivalence, _check_prep_solver,
                                    _check_tomography_roundtrip, _check_pipeline_fidelity, _check_replica_symmetry)]
    for check in checks:
        print(check.line())
    passed = all(c.passed for c in checks)
    print(f"verify: {'all checks passed' if passed else 'CHECKS FAILED'}")
    return EXIT_OK if passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# tomo
# ---------------------------------------------------------------------------

def run_tomo(theta: float = 0.0, delta: float = 0.0, mode: str = "exact", trials: int = 20000, seed: int = 42) -> int:
    """One input state through the sweep's kernels: exact mode refits the
    click probabilities, as the pipeline check does; montecarlo mode is one
    single-point `_montecarlo_fidelities` call, so F and +/- equal
    `montecarlo_report` and the sweep's row at the same seed."""
    if mode not in TOMO_MODES:
        raise UsageError(f"tomo supports modes {' and '.join(map(repr, TOMO_MODES))}, got {mode!r}")
    _usage(_input_amplitudes, theta, delta)
    _usage(_require_trials, trials)
    _usage(_require_seed, seed)
    if mode == "exact":
        amps = _input_amplitudes(theta, delta)
        stokes = _replica_stokes(_gate_probabilities(amps))
        fids, errs = _stokes_fidelity(stokes, _qubit_stokes(amps)), np.zeros(2)
        _require_report_values(fids, errs)
    else:
        fids, errs, stokes = (a[0] for a in _montecarlo_fidelities([theta], [delta], [seed], trials))
    print(f"input: theta={theta:.9f} delta={delta:.9f} mode={mode}")
    for r, (fid, err, rho) in enumerate(zip(fids.tolist(), errs.tolist(), _stokes_density(stokes)), start=1):
        print(f"replica {r}: F = {fid:.9f} +/- {err:.9f} (reference 5/6 = {TARGET_F:.9f})")
        print(_format_matrix(rho))
    return EXIT_OK


def _format_matrix(matrix: np.ndarray) -> str:
    """Fixed-point printout at 6 decimals; parts that round to zero print as
    0., never as -0. or as rounding residue in scientific notation."""
    m = np.array(matrix, dtype=complex)
    for part in (m.real, m.imag):
        # The float 5e-7 lies just below 5e-7 and rounds to zero too.
        part[np.abs(part) <= 5e-7] = 0.0
    return np.array2string(m, precision=6, suppress_small=True)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

# Each subcommand's flags and what each takes: a tuple of its choices, or the
# type that converts its text. A flag not given takes the default of
# `SweepConfig` or of `run_tomo`.
_COMMANDS = {
    "sweep": {"--mode": SWEEP_MODES, "--trials": int, "--seed": int, "--jitter-deg": float, "--out": str,
              "--config": str},
    "verify": {},
    "tomo": {"--theta": float, "--delta": float, "--mode": TOMO_MODES, "--trials": int, "--seed": int},
}
_METAVARS = {int: "N", float: "X", str: "FILE"}


def _usage_text(command=None) -> str:
    """The usage lines of `command`, or of every command, three flags a line:
    the `--help` text. Those of every command are the README's "Command line"
    block."""
    lines = []
    for name in [command] if command else _COMMANDS:
        items = [f"[{flag} {'|'.join(kind) if isinstance(kind, tuple) else _METAVARS[kind]}]"
                 for flag, kind in _COMMANDS[name].items()]
        for k in range(0, max(len(items), 1), 3):
            lines.append(((f"uqcm {name}" if k == 0 else "").ljust(12) + " ".join(items[k:k + 3])).rstrip())
    return "\n".join(lines)


def _fail(command, message):
    """A usage error: the usage lines and `uqcm <command>: error: message`
    on stderr, then SystemExit(EXIT_USAGE)."""
    usage = _usage_text(command).replace("\n", "\n       ")
    print(f"usage: {usage}\n{f'uqcm {command}' if command else 'uqcm'}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _flag_named(command, name):
    """The flag of `command`, or --help, that `name` is or abbreviates, and
    --help for -h; None for any other name. An abbreviation of two flags is
    a usage error."""
    if name == "-h":
        return "--help"
    if not name.startswith("--") or name == "--":
        return None
    flags = [*_COMMANDS.get(command, ()), "--help"]
    matches = [name] if name in flags else [flag for flag in flags if flag.startswith(name)]
    if len(matches) > 1:
        _fail(command, f"ambiguous option: {name} could match {', '.join(matches)}")
    return matches[0] if matches else None


def _parse_args(argv) -> tuple:
    """(command, {name: value}) of the flags given, named as `SweepConfig`'s
    fields and `run_tomo`'s parameters are. For -h or --help it prints the
    usage lines and raises SystemExit(EXIT_OK); on a usage error, `_fail`."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        if command is not None and _flag_named(None, command) == "--help":
            print(_usage_text())
            raise SystemExit(EXIT_OK)
        _fail(None, "the following arguments are required: command" if command is None else
              f"argument command: invalid choice: {command!r} (choose from {', '.join(map(repr, _COMMANDS))})")
    flags, rest = _COMMANDS[command], list(argv[1:])
    values, unrecognized = {}, []
    while rest:
        token = rest.pop(0)
        name, has_value, text = token.partition("=")
        flag = _flag_named(command, name)
        if flag == "--help":
            print(_usage_text(command))
            raise SystemExit(EXIT_OK)
        if flag is None:
            unrecognized.append(token)
            continue
        if not has_value:
            if not rest or rest[0].startswith("--"):
                _fail(command, f"argument {flag}: expected one argument")
            text = rest.pop(0)
        kind = flags[flag]
        if isinstance(kind, tuple) and text not in kind:
            _fail(command, f"argument {flag}: invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})")
        try:
            values[flag[2:].replace("-", "_")] = text if isinstance(kind, tuple) else kind(text)
        except ValueError:
            _fail(command, f"argument {flag}: invalid {kind.__name__} value: {text!r}")
    if unrecognized:
        _fail(command, f"unrecognized arguments: {' '.join(unrecognized)}")
    return command, values


def main(argv=None) -> int:
    try:
        command, values = _parse_args(sys.argv[1:] if argv is None else argv)
        if command == "sweep":
            return run_sweep(build_sweep_config(values))
        if command == "verify":
            return run_verify()
        return run_tomo(**values)
    except SystemExit as exc:
        return exc.code
    except (UsageError, ReconstructionError, MemoryError) as exc:
        # MemoryError: numpy cannot allocate a grid that large.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IsometryError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
