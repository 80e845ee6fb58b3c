"""Property tests: batched seeding against numpy, config parsing against any
input, the CSV block formatter against the row formatter, and the CLI's exit
codes and output files against any flags and small configs."""

import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uqcm.cli import EXACT_BLOCK, EXIT_USAGE, SweepConfig, UsageError, load_config_file, main  # noqa: E402
from uqcm.streams import seed_words, streams  # noqa: E402
from uqcm.sweepcsv import format_block, format_row  # noqa: E402

entropy_ints = st.integers(min_value=0, max_value=2**128 - 1)


@st.composite
def entropy_tables(draw):
    """(N, K) tables of ints in [0, 2**128): rows of one batch may split
    into different numbers of 32-bit words."""
    width = draw(st.integers(min_value=1, max_value=5))
    row = st.tuples(*[entropy_ints | st.integers(min_value=0, max_value=40)] * width)
    return draw(st.lists(row, min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(entropy_tables(), st.integers(min_value=1, max_value=9))
def test_seed_words_and_states_match_numpy(rows, n_words):
    words = seed_words(rows, n_words)
    for row, row_words, generator in zip(rows, words, streams(rows)):
        sequence = np.random.SeedSequence(row)
        np.testing.assert_array_equal(row_words, sequence.generate_state(n_words))
        assert generator.bit_generator.state == np.random.PCG64(sequence).state


CSV_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 1e-12, -1e-12, 5e-10, -5e-10, 0.5 - 5e-10, 5 / 6, 2.0**-1074, 1e300]
)
CSV_SEEDS = st.integers(0, 2**32 - 1) | st.sampled_from([2**64 + 5, 2**100 + 3])


def _ulp_neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# Values a block may repeat: both zeros, 5/6 and the values one ulp either
# side of it and of ties at the 9th decimal, NaN and the infinities.
POOL_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf]
    + [y for x in (5 / 6, 5e-10, -5e-10, 0.5 - 5e-10, 0.8333333335, 1.0000000005, 2.5e-9) for y in _ulp_neighbours(x)]
)


@st.composite
def few_point_blocks(draw):
    """Up to 12 points whose values are mostly all distinct and finite."""
    points = draw(st.lists(st.tuples(*[CSV_FLOATS] * 6, CSV_SEEDS), min_size=1, max_size=12))
    delta, theta, f1, f2, e1, e2, seeds = (list(column) for column in zip(*points))
    return np.array(delta), np.array(theta), np.column_stack((f1, f2)), np.column_stack((e1, e2)), seeds


@st.composite
def repeating_blocks(draw):
    """Up to EXACT_BLOCK points whose values come from a pool of at most
    eight, so that each value repeats within the block."""
    pool = np.array(draw(st.lists(POOL_FLOATS, min_size=1, max_size=8)))
    n = draw(st.integers(1, EXACT_BLOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delta, theta = (pool[rng.integers(len(pool), size=n)] for _ in range(2))
    fids, errs = (pool[rng.integers(len(pool), size=(n, 2))] for _ in range(2))
    seeds = draw(st.lists(CSV_SEEDS, min_size=1, max_size=3))
    return delta, theta, fids, errs, [seeds[k] for k in rng.integers(len(seeds), size=n)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["exact", "montecarlo", "perturbed"]), few_point_blocks() | repeating_blocks())
def test_block_formatter_equals_joined_rows(mode, block):
    delta, theta, fids, errs, seeds = block
    rows = [
        format_row(mode, d, t, replica, fids[k, replica - 1], errs[k, replica - 1], seed)
        for k, (d, t, seed) in enumerate(zip(delta, theta, seeds))
        for replica in (1, 2)
    ]
    assert format_block(mode, delta, theta, fids, errs, seeds) == "\n".join(rows)
    # The f-string the row formatter replaced, on the same values.
    assert rows[0] == f"{mode},{delta[0]:.9f},{theta[0]:.9f},1,{fids[0, 0]:.9f},{errs[0, 0]:.9f},{seeds[0]}"


CONFIG_KEYS = [
    "mode", "theta_start", "theta_end", "theta_steps", "delta_list", "trials",
    "seed", "jitter_deg", "delta_c", "samples", "out", "bogus",
]
VALUE_TEXT = st.sampled_from(
    ["", "0", "-1", "7", "1e400", "nan", "inf", "-inf", "0.5", "1,2", "perturbed", "10**9", "1_000"]
) | st.text(max_size=12)
CONFIG_TEXT = st.text() | st.lists(
    st.tuples(st.sampled_from(CONFIG_KEYS), VALUE_TEXT).map(lambda kv: f"{kv[0]} = {kv[1]}"), max_size=6
).map("\n".join)


def _parse(content: bytes):
    fd, path = tempfile.mkstemp(suffix=".cfg")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(content)
        return SweepConfig(**load_config_file(path))
    finally:
        os.unlink(path)


@settings(max_examples=300, deadline=None)
@given(CONFIG_TEXT)
def test_any_config_text_is_a_config_or_a_usage_error(text):
    try:
        _parse(text.encode("utf-8", errors="surrogatepass"))
    except UsageError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary())
def test_any_config_bytes_are_a_config_or_a_usage_error(content):
    try:
        _parse(content)
    except UsageError:
        pass


# Each value has an (in range, anything) pair of strategies. A run draws
# every value in range, except that about half of the runs draw one value
# from its second strategy instead.
ANY_FLOAT = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -1.0, 1e300]) | st.floats()
# One to three photons per setting often leave a replica without counts;
# 2**63 - 1 is the largest trial number.
TRIALS = (
    st.integers(1, 3) | st.integers(4, 2000) | st.integers(2**63 - 3, 2**63 - 1),
    st.integers(-1, 0) | st.integers(2**63, 2**63 + 3),
)
SEED = (st.integers(0, 2**70), st.integers(-3, -1))
# Grids numpy cannot allocate (10**15, 2**59 - 1) or cannot even describe
# (from 2**59, where it raises ValueError) must be usage errors too.
GRID_AXIS = (st.integers(1, 3), st.integers(-1, 0) | st.sampled_from([10**15, 2**59 - 1, 2**59, 2**63 - 1, 10**23]))
SWEEP_VALUES = {
    "theta_steps": GRID_AXIS,
    "delta_list": (st.lists(st.floats(0.0, 6.2), min_size=1, max_size=2), st.lists(ANY_FLOAT, max_size=2)),
    "samples": GRID_AXIS,
    "theta_start": (st.floats(-1.5, 0.0), ANY_FLOAT),
    "theta_end": (st.floats(0.0, 1.5), ANY_FLOAT),
    # Hypothesis draws the first entry most often: the random modes first.
    "mode": (st.sampled_from(["perturbed", "montecarlo", "exact"]), st.just("bogus")),
    "trials": TRIALS,
    "seed": SEED,
    "jitter_deg": (st.floats(0.0, 2.0), ANY_FLOAT),
    # Above 1 the injection can make a path weight, or a group's total,
    # negative: drawn up to 6 in every run.
    "delta_c": (st.floats(0.0, 6.0), ANY_FLOAT),
}
# Always set: drawn in range, the grid is at most 3 x 2 points, 3 samples each.
SWEEP_ALWAYS = ("theta_steps", "delta_list", "samples", "mode", "delta_c")
SWEEP_FLAGS = ("mode", "trials", "seed", "jitter_deg")
TOMO_VALUES = {
    "theta": (st.floats(-1.5, 1.5), ANY_FLOAT),
    "delta": (st.floats(0.0, 6.2), ANY_FLOAT),
    "mode": (st.sampled_from(["montecarlo", "exact"]), st.just("perturbed")),
    "trials": TRIALS,
    "seed": SEED,
}


def _draw_values(draw, table):
    values = {key: draw(valid) for key, (valid, _) in table.items()}
    bad = draw(st.none() | st.sampled_from(sorted(table)))
    if bad is not None:
        values[bad] = draw(table[bad][1])
    return values


def _text(value):
    if isinstance(value, list):
        return ", ".join(map(repr, value))
    return repr(value) if isinstance(value, float) else str(value)


def _flag(draw, name, text):
    """`--name=text` or the two tokens `--name text`, which must read alike."""
    return [f"--{name}={text}"] if draw(st.booleans()) else [f"--{name}", text]


@st.composite
def sweep_runs(draw):
    """(flags, config text) for `uqcm sweep`: a value goes to its flag, if it
    has one, or to the file; some keys may be left at their defaults."""
    flags, lines = [], []
    for key, value in _draw_values(draw, SWEEP_VALUES).items():
        if key in SWEEP_FLAGS and draw(st.booleans()):
            flags += _flag(draw, key.replace("_", "-"), _text(value))
        elif key in SWEEP_ALWAYS or draw(st.booleans()):
            lines.append(f"{key} = {_text(value)}\n")
    return flags, "".join(lines)


@st.composite
def tomo_argvs(draw):
    argv = ["tomo"]
    for key, value in _draw_values(draw, TOMO_VALUES).items():
        if draw(st.booleans()):
            argv += _flag(draw, key, _text(value))
    return argv


@st.composite
def verify_argvs(draw):
    return ["verify"] + (_flag(draw, "inject-hwp-offset-deg", repr(draw(ANY_FLOAT))) if draw(st.booleans()) else [])


def _check_exit_code(argv, out):
    """`main(argv)` returns 0, 2, 3 or 4 and neither raises nor warns; a
    usage error (exit 2) writes no CSV."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == EXIT_USAGE:
        assert not out.exists()
    return code


@settings(max_examples=400, deadline=None)
@given(sweep_runs())
def test_every_sweep_exits_0_2_3_or_4(run):
    flags, text = run
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.cfg", Path(tmp) / "sweep.csv"
        config.write_text(text, encoding="utf-8")
        code = _check_exit_code(["sweep", "--config", str(config), "--out", str(out)] + flags, out)
        # The config and, on exit 0 or 3, the CSV: no temporary file is left
        # behind. Exit 3 writes the CSV after a failed exact deviation check,
        # not after a failed isometry check.
        names = sorted(p.name for p in Path(tmp).iterdir())
        if code == 0:
            assert names == ["run.cfg", "sweep.csv"]
        elif code == 3:
            assert names in (["run.cfg"], ["run.cfg", "sweep.csv"])
        else:
            assert names == ["run.cfg"]


@settings(max_examples=200, deadline=None)
@given(st.one_of(tomo_argvs(), verify_argvs()))
def test_every_tomo_and_verify_run_exits_0_2_3_or_4(argv):
    with tempfile.TemporaryDirectory() as tmp:
        _check_exit_code(argv, Path(tmp) / "sweep.csv")
