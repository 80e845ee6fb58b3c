"""Benchmark of the ``uqcm`` command line: sweep and verify, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact_dense --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes

Every timed repeat is a fresh interpreter (``perfbench/child.py``) so that
each one pays the cold costs a CLI user pays; see README.md for why. Each
timed repeat also runs the fixed job of ``perfbench/reference.py`` right
before and after the workload; ``run_rel`` is the workload's wall time over
the reference's, which cancels the machine's speed drift. One process
generates all load, one workload at a time, with BLAS pinned to one thread.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics. A result file
with the environment and every sample goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 42
DEFAULT_SECONDS = 25
MIN_REPEATS = 3
# A run gives up starting children this long after --seconds, so that a hung
# or very slow program still ends the run well within three minutes.
RUN_SLACK_S = 120
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CSV_HEADER = "mode,delta_rad,theta_rad,replica,fidelity,stderr,seed"
VERIFY_CHECKS = 6
# Input states that `uqcm verify` checks: 1000 oracle inputs, 100 tomography
# round trips, 3 pipeline inputs and 100 replica-symmetry inputs.
VERIFY_POINTS = 1203

END_TO_END = {"setup_s": "s", "run_rel": "ratio", "peak_rss_mb": "MB"}
# Printed and kept in the result file, but too noisy on a shared machine to
# gate a change: raw wall time, throughput and the reference job's own time.
INFORMATIONAL = {"run_s": "s", "points_per_s": "1/s", "reference_s": "s"}
SPAN_CALLS = (
    "optics.train_build", "optics.element_matrix", "gates.apply_circuit", "gates.gate_unitary",
    "angles.solve", "network.clone", "hilbert.density_matrix", "hilbert.fidelity",
    "tomography.simulate_counts", "tomography.reconstruct_replica",
)
SPAN_SELF = (
    "optics.train_build", "optics.element_matrix", "optics.measurement_state", "gates.apply_circuit",
    "gates.circuit_unitary", "angles.solve", "network.clone", "hilbert.density_matrix",
    "hilbert.partial_trace", "tomography.simulate_counts", "tomography.reconstruct_replica",
    "tomography.bootstrap", "tomography.signal_probabilities", "errormodel.perturbation_sweep",
    "cli.compute_sweep", "cli.write_csv",
)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    **{f"{name}.self_s": "s" for name in SPAN_SELF},
    "optics.train_cache.hit_ratio": "ratio",
    "cli.csv_bytes": "bytes",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# workloads: a seed becomes the config file the CLI reads
# ---------------------------------------------------------------------------

@dataclass
class Input:
    argv: list
    points: int
    rows: int
    sizes: dict
    csv: Path | None = None
    config: dict = field(default_factory=dict)


def _sweep_input(name: str, seed: int, config: dict, points: int, sizes: dict) -> Input:
    csv = OUT / f"{name}-seed{seed}.csv"
    cfg_path = OUT / f"{name}-seed{seed}.cfg"
    config = {**config, "out": str(csv)}
    lines = []
    for key, value in config.items():
        if isinstance(value, (list, tuple)):
            value = ", ".join(repr(v) for v in value)
        lines.append(f"{key} = {value}")
    cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Input(["sweep", "--config", str(cfg_path)], points, 2 * points,
                 {**sizes, "points": points, "rows": 2 * points}, csv, config)


def exact_dense(seed: int) -> Input:
    rng = random.Random(seed)
    theta_start = -math.pi / 2 + rng.uniform(0.01, 0.05)
    theta_end = math.pi / 2 - rng.uniform(0.0, 0.05)
    deltas = [(k + rng.uniform(0.05, 0.95)) * 2 * math.pi / 8 for k in range(8)]
    config = {"mode": "exact", "theta_start": repr(theta_start), "theta_end": repr(theta_end),
              "theta_steps": 91, "delta_list": deltas}
    return _sweep_input("exact_dense", seed, config, 91 * 8, {})


def montecarlo_default(seed: int) -> Input:
    config = {"mode": "montecarlo", "trials": 20000, "seed": seed}
    return _sweep_input("montecarlo_default", seed, config, 19 * 4, {"trials": 20000})


def perturbed_small(seed: int) -> Input:
    config = {"mode": "perturbed", "theta_steps": 7, "samples": 25, "seed": seed}
    return _sweep_input("perturbed_small", seed, config, 7 * 4, {"samples": 25})


def verify(seed: int) -> Input:
    return Input(["verify"], VERIFY_POINTS, VERIFY_CHECKS,
                 {"points": VERIFY_POINTS, "checks": VERIFY_CHECKS})


WORKLOADS = {
    "exact_dense": exact_dense,
    "montecarlo_default": montecarlo_default,
    "perturbed_small": perturbed_small,
    "verify": verify,
}


# ---------------------------------------------------------------------------
# one fresh-interpreter repeat and its correctness checks
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    setup_s: float = math.nan
    run_s: float = math.nan
    reference_s: float = math.nan
    peak_rss_mb: float = math.nan
    digest: str = ""
    csv_bytes: int = 0
    problems: list = field(default_factory=list)
    layers: dict | None = None
    versions: dict = field(default_factory=dict)


def _check_csv(inp: Input, stdout: str, data: bytes) -> list:
    problems = []
    lines = data.decode("ascii", errors="replace").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header missing or wrong"]
    rows = lines[1:]
    if len(rows) != inp.rows:
        problems.append(f"CSV has {len(rows)} rows, expected {inp.rows}")
    for row in rows:
        cells = row.split(",")
        try:
            fid, err = float(cells[4]), float(cells[5])
        except (IndexError, ValueError):
            problems.append(f"malformed CSV row {row!r}")
            break
        if len(cells) != 7 or cells[0] != inp.config["mode"] or not (0.0 <= fid <= 1.0) or not (err >= 0.0):
            problems.append(f"bad CSV row {row!r}")
            break
    if inp.config["mode"] == "exact" and ("PASS: all fidelities" not in stdout or "FAIL" in stdout):
        problems.append("exact sweep summary does not report PASS within 1e-9 in both tiers")
    return problems


def _check_verify(stdout: str) -> list:
    lines = stdout.splitlines()
    checks = [ln for ln in lines if "\tdeviation=" in ln]
    problems = [f"verify check failed: {ln!r}" for ln in checks if ln.split("\t")[1] != "PASS"]
    if len(checks) != VERIFY_CHECKS:
        problems.append(f"verify printed {len(checks)} checks, expected {VERIFY_CHECKS}")
    if not lines or lines[-1] != "verify: all checks passed":
        problems.append("verify did not report all checks passed")
    return problems


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(inp: Input, trace: bool, tag: str, timeout: float, reference: bool = True) -> Sample:
    """Start a fresh interpreter, run the workload once, check what it wrote.

    With `reference`, the child times the reference job before and after the
    workload and `Sample.reference_s` is the mean of the two.
    """
    record = OUT / f"{tag}.json"
    spans = OUT / f"{tag}.json.spans.npz"
    for path in (record, spans, inp.csv):
        if path is not None and path.exists():
            path.unlink()
    cmd = [sys.executable, str(BENCH / "child.py"), str(record), "1" if trace else "0",
           "1" if reference else "0", "--", *inp.argv]
    sample = Sample()
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        sample.problems.append(f"timed out after {timeout:.0f} s")
        return sample
    if proc.returncode != 0 or "Traceback" in proc.stderr:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        sample.problems.append(f"child exited {proc.returncode}: {tail[0]}")
        return sample
    rec = json.loads(record.read_text(encoding="utf-8"))
    sample.setup_s = rec["setup_done"] - spawned
    sample.run_s = rec["run_s"]
    if rec["reference_s"]:
        sample.reference_s = statistics.fmean(rec["reference_s"])
    sample.peak_rss_mb = rec["peak_rss_kb"] / 1024.0
    sample.versions = {"python": rec["python"], "numpy": rec["numpy"]}
    if rec["code"] != 0:
        sample.problems.append(f"uqcm exited {rec['code']}")
    if inp.csv is None:
        data = proc.stdout.encode("utf-8")
        sample.problems += _check_verify(proc.stdout)
    elif inp.csv.is_file():
        data = inp.csv.read_bytes()
        sample.csv_bytes = len(data)
        sample.problems += _check_csv(inp, proc.stdout, data)
    else:
        data = b""
        sample.problems.append("no CSV written")
    sample.digest = hashlib.sha256(data).hexdigest()
    if trace:
        sample.layers = summarize(str(spans))
    return sample


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values))


def _quartiles(values) -> list:
    values = list(values)
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def _layer_value(sample: Sample, metric: str) -> float:
    layers = sample.layers
    if metric == "optics.train_cache.hit_ratio":
        cache = layers["optics.train_cache"]
        return cache["hits"] / cache["lookups"] if cache["lookups"] else 0.0
    if metric == "cli.csv_bytes":
        return float(sample.csv_bytes)
    span, stat = metric.rsplit(".", 1)
    return float(layers.get(span, {}).get(stat, 0))


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(seed: int, versions: dict) -> dict:
    return {
        **versions,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": THREAD_ENV,
        "git_commit": git_commit(),
        "seed": seed,
    }


def _require_same_output(samples: list, reference: str | None) -> None:
    """Flag every sample whose output hash differs from `reference` (default: the first)."""
    ok = [s for s in samples if not s.problems]
    if reference is None and ok:
        reference = ok[0].digest
    for s in ok:
        if s.digest != reference:
            s.problems.append(f"output sha256 {s.digest[:16]} differs from {reference[:16]}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Warm-up at the default seed (golden check), then timed repeats at `seed`."""
    make = WORKLOADS[name]
    warm_input = make(DEFAULT_SEED)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name] if warm_input.csv else None
    inp = make(seed) if seed != DEFAULT_SEED else warm_input
    give_up = time.perf_counter() + seconds + RUN_SLACK_S
    warm = run_child(warm_input, trace=False, tag=f"{name}-warmup", timeout=give_up - time.perf_counter(),
                     reference=False)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(run_child(inp, False, f"{name}-plain", give_up - time.perf_counter()))
        if trace:
            traced.append(run_child(inp, True, f"{name}-traced", give_up - time.perf_counter()))
        enough = len(plain) >= (2 if trace else MIN_REPEATS)
        now = time.perf_counter()
        if now >= deadline and (enough or now >= give_up):
            break

    # Outputs must repeat byte for byte: at the default seed they must match
    # the golden hash recorded from the seed commit.
    samples = [warm] + plain + traced
    if inp is warm_input:
        _require_same_output(samples, golden)
    else:
        _require_same_output([warm], golden)
        _require_same_output(plain + traced, None)
    # Call counts are exact: every traced repeat of one input must agree.
    for s in traced[1:]:
        if not s.problems and not traced[0].problems:
            first = {k: v["calls"] for k, v in traced[0].layers.items() if "calls" in v}
            this = {k: v["calls"] for k, v in s.layers.items() if "calls" in v}
            if this != first:
                diff = sorted(k for k in first if first[k] != this.get(k))
                s.problems.append(f"call counts differ between traced repeats: {diff}")

    failed = sum(1 for s in samples if s.problems)
    good_plain = [s for s in plain if not s.problems]
    good_traced = [s for s in traced if not s.problems]
    metrics, detail = {}, {}
    if good_plain and not trace:
        series = {
            "setup_s": [s.setup_s for s in good_plain],
            "run_rel": [s.run_s / s.reference_s for s in good_plain],
            "peak_rss_mb": [s.peak_rss_mb for s in good_plain],
            "run_s": [s.run_s for s in good_plain],
            "points_per_s": [inp.points / s.run_s for s in good_plain],
            "reference_s": [s.reference_s for s in good_plain],
        }
        for metric, unit in {**END_TO_END, **INFORMATIONAL}.items():
            detail[metric] = {"value": _median(series[metric]), "unit": unit, "n": len(series[metric]),
                              "quartiles": _quartiles(series[metric]), "samples": series[metric]}
        metrics = {metric: {"value": detail[metric]["value"], "unit": unit}
                   for metric, unit in END_TO_END.items()}
    if good_plain and good_traced and trace:
        for metric, unit in PER_LAYER.items():
            if metric == "trace.overhead_s":
                # Compared in reference units, then scaled back to seconds,
                # so that the machine's speed drift between children cancels.
                rel_traced = _median(s.run_s / s.reference_s for s in good_traced)
                rel_plain = _median(s.run_s / s.reference_s for s in good_plain)
                value = (rel_traced - rel_plain) * _median(s.reference_s for s in good_plain)
            else:
                value = _median(_layer_value(s, metric) for s in good_traced)
            metrics[metric] = {"value": value, "unit": unit}
        detail["traced_run_s"] = [s.run_s for s in good_traced]
        detail["untraced_run_s"] = [s.run_s for s in good_plain]
        detail["traced_reference_s"] = [s.reference_s for s in good_traced]
        detail["untraced_reference_s"] = [s.reference_s for s in good_plain]
        detail["spans"] = good_traced[0].layers
    expected_count = len(END_TO_END) if not trace else len(PER_LAYER)
    correct = failed == 0 and len(metrics) == expected_count
    versions = next((s.versions for s in samples if s.versions), {})
    return {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed, versions),
        "input": {"argv": inp.argv, "config": inp.config, **inp.sizes},
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "fail_ratio": failed / len(samples),
        "problems": sorted({p for s in samples for p in s.problems}),
        "metrics": metrics,
        "detail": detail,
    }


def print_result(result: dict) -> None:
    env = result["environment"]
    print(f"# {result['workload']} trace={result['trace']} seed={env['seed']} "
          f"python={env.get('python')} numpy={env.get('numpy')} nproc={env['nproc']} "
          f"blas_threads=1 commit={env['git_commit'][:12]}")
    print(f"#   input: {json.dumps({k: v for k, v in result['input'].items() if k not in ('argv', 'config')})}")
    for metric, m in result["metrics"].items():
        n = result["detail"].get(metric, {}).get("n") or len(result["detail"].get("traced_run_s", ()))
        count = f" (median of {n})" if n else ""
        print(f"  {result['workload']:<20} {metric:<40} {m['value']:.6g} {m['unit']}{count}")
    for metric in INFORMATIONAL:
        if metric in result["detail"]:
            d = result["detail"][metric]
            print(f"  {result['workload']:<20} {metric:<40} {d['value']:.6g} {d['unit']} "
                  f"(median of {d['n']}; not gated)")
    print(f"  {result['workload']:<20} {'fail_ratio':<40} {result['fail_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} runs)")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def write_golden() -> int:
    """Record the sha256 of each sweep workload's CSV at the default seed."""
    golden, versions = {"seed": DEFAULT_SEED}, {}
    for name, make in WORKLOADS.items():
        inp = make(DEFAULT_SEED)
        if inp.csv is None:
            continue
        sample = run_child(inp, trace=False, tag=f"{name}-golden", timeout=RUN_SLACK_S, reference=False)
        if sample.problems:
            print(f"{name}: {sample.problems}", file=sys.stderr)
            return 1
        golden[name] = sample.digest
        versions = sample.versions
    golden.update(versions, commit=git_commit())
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(golden, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="re-record the golden CSV hashes (only when CSV bytes change on purpose)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "uqcm" / "__init__.py").is_file():
        print(f"error: no uqcm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    if args.write_golden:
        return write_golden()

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print_result(result)
        summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        results = [run_workload(name, args.seed, args.seconds, trace)
                   for name in WORKLOADS for trace in (False, True)]
        path = OUT / f"all-seed{args.seed}.json"
        path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
        for result in results:
            print_result(result)
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()},
        }
    print(f"# result file: {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
