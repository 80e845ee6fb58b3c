"""Property tests: batched seeding against numpy, config parsing and the
counts text format against any input."""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uqcm.cli import SweepConfig, UsageError, load_config_file  # noqa: E402
from uqcm.streams import seed_words, streams  # noqa: E402
from uqcm.tomography import CountsRecord, DetectorModel  # noqa: E402

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


def _finite(min_value, max_value=1e300, exclude_min=False):
    return st.floats(min_value=min_value, max_value=max_value, exclude_min=exclude_min, allow_nan=False)


@st.composite
def counts_records(draw):
    """Valid records: counts in [0, trials] up to the int64 limit, any
    nonnegative seed, and finite detector values in their ranges."""
    trials = draw(st.integers(min_value=0, max_value=2**63 - 1))
    counts = draw(st.lists(st.integers(min_value=0, max_value=trials), min_size=32, max_size=32))
    model = DetectorModel(
        efficiency=draw(_finite(0.0, 1.0)),
        dark_rate=draw(_finite(0.0)),
        max_rate=draw(_finite(0.0, exclude_min=True)),
        gate_window=draw(_finite(0.0)),
    )
    seed = draw(st.integers(min_value=0, max_value=2**80))
    return CountsRecord(counts=np.array(counts).reshape(8, 4), total_trials=trials, seed=seed, model=model)


@settings(max_examples=200, deadline=None)
@given(counts_records())
def test_counts_text_round_trip_reproduces_any_valid_record(record):
    back = CountsRecord.from_text(record.to_text())
    np.testing.assert_array_equal(back.counts, record.counts)
    assert (back.total_trials, back.seed, back.model) == (record.total_trials, record.seed, record.model)
    assert back.to_text() == record.to_text()


HEADER_KEY = st.sampled_from(["trials", "seed", "efficiency", "dark_rate", "max_rate", "gate_window", "x"])
HEADER_VALUE = st.sampled_from(["0", "-1", "1e400", "nan", "inf", "-inf", "0.5", str(2**63), "1_0", ""]) | st.text(max_size=8)
PATH_TOKEN = st.integers(-1, 8).map(str) | st.text(max_size=3)
BASIS_TOKEN = st.sampled_from(["H", "V", "D", "R", "X"])
COUNT_TOKEN = st.sampled_from(["0", "7", "-3", str(2**63), str(10**30), "1.5", "x", ""]) | st.text(max_size=6)
COUNTS_TEXT = st.text() | st.builds(
    lambda header, lines: "\n".join(["# " + " ".join(f"{k}={v}" for k, v in header)] + lines),
    st.lists(st.tuples(HEADER_KEY, HEADER_VALUE), max_size=8),
    st.lists(st.tuples(PATH_TOKEN, BASIS_TOKEN, COUNT_TOKEN).map(" ".join), max_size=34),
)


@settings(max_examples=300, deadline=None)
@given(COUNTS_TEXT)
def test_any_counts_text_is_a_record_or_a_value_error(text):
    try:
        CountsRecord.from_text(text)
    except ValueError:
        pass


@settings(max_examples=200, deadline=None)
@given(counts_records(), st.data())
def test_a_valid_record_with_one_token_replaced_is_a_record_or_a_value_error(record, data):
    lines = [line.split(" ") for line in record.to_text().splitlines()]
    row = data.draw(st.integers(0, len(lines) - 1))
    col = data.draw(st.integers(0, len(lines[row]) - 1))
    lines[row][col] = data.draw(HEADER_VALUE | COUNT_TOKEN)
    try:
        CountsRecord.from_text("\n".join(" ".join(line) for line in lines))
    except ValueError:
        pass
