"""Property tests: batched seeding against numpy, config parsing against any input."""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uqcm.cli import SweepConfig, UsageError, load_config_file  # noqa: E402
from uqcm.streams import seed_words, streams  # noqa: E402

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
