"""Preparation-angle solver: the closed-form angles and their checks."""

import math
import re

import numpy as np
import pytest

from uqcm.angles import (
    PrepAngles,
    SolverError,
    _prep_residual,
    prep_circuit,
    solve_prep_angles,
)
from uqcm.gates import apply_circuit
from uqcm.hilbert import PureState
from uqcm.network import (
    CLONER_PREP_TARGET,
    TRIPLICATOR_PREP_TARGET,
    cloner_prep_angles,
    triplicator_prep_angles,
)

BLANK = PureState((2, 3), [1, 0, 0, 0])


def prepared_state(angles):
    """Run the gate sequence, the image the solver checks its angles on."""
    return apply_circuit(prep_circuit(angles), BLANK).amplitudes


def test_prep_angles_range_validation():
    PrepAngles(math.pi, 0.0, -3.0)
    with pytest.raises(ValueError):
        PrepAngles(4.0, 0.0, 0.0)
    # The range is half open: -pi is pi's alias and is rejected.
    with pytest.raises(ValueError, match=r"^theta1=-3.141592653589793 outside \(-pi, pi\]$"):
        PrepAngles(-math.pi, 0.0, 0.0)
    with pytest.raises(ValueError):
        PrepAngles(0.0, float("inf"), 0.0)


def test_zero_angles_prepare_blank():
    assert np.allclose(prepared_state(PrepAngles(0, 0, 0)), [1, 0, 0, 0])


def test_solves_identity_target():
    angles = solve_prep_angles(np.array([1.0, 0.0, 0.0, 0.0]))
    out = prepared_state(angles)
    assert abs(out @ [1, 0, 0, 0]) >= 1 - 1e-10


def test_solves_cloner_target():
    angles = solve_prep_angles(CLONER_PREP_TARGET)
    out = prepared_state(angles)
    overlap = float(np.real(out @ CLONER_PREP_TARGET))
    assert overlap >= 1 - 1e-10
    # The sequence lands on the target itself, amplitudes (2, 1, 0, 1)/sqrt(6).
    assert np.allclose(out, CLONER_PREP_TARGET, atol=1e-8)


def test_solves_triplicator_target():
    angles = solve_prep_angles(TRIPLICATOR_PREP_TARGET)
    out = prepared_state(angles)
    assert float(np.real(out @ TRIPLICATOR_PREP_TARGET)) >= 1 - 1e-10


def test_deterministic_resolution():
    a = solve_prep_angles(CLONER_PREP_TARGET)
    b = solve_prep_angles(CLONER_PREP_TARGET)
    assert a == b


def test_tightened_tolerance_still_converges():
    # The closed form lands far inside PREP_TOL: its residual is at most 1e-14.
    for target in (CLONER_PREP_TARGET, TRIPLICATOR_PREP_TARGET):
        angles = solve_prep_angles(target)
        assert 1.0 - abs(prepared_state(angles) @ target) <= 1e-14


def test_residual_is_that_of_the_state_runner():
    # The solver's residual, which `uqcm verify` prints, bit for bit that of
    # the labelled state run through `apply_circuit`.
    for target, residual in ((CLONER_PREP_TARGET, -2.220446049250313e-16), (TRIPLICATOR_PREP_TARGET, 1.1102230246251565e-16)):
        angles = solve_prep_angles(target)
        assert _prep_residual(angles, target) == 1.0 - abs(complex(np.vdot(target, prepared_state(angles)))) == residual


def test_solver_error_carries_best_residual(monkeypatch):
    # An impossible tolerance must fail loudly and report how close it got.
    # The cloner's overlap rounds above 1, so its raw residual is -2.2e-16:
    # the error reports 0, and a positive residual as it is.
    monkeypatch.setattr("uqcm.angles.PREP_TOL", -1.0)
    for target, residual in ((CLONER_PREP_TARGET, 0.0), (TRIPLICATOR_PREP_TARGET, 1.1102230246251565e-16)):
        with pytest.raises(SolverError, match=re.escape(f"residual {residual:.3e} exceeds")) as err:
            solve_prep_angles(target)
        assert err.value.residual == residual


def test_tolerances_are_inclusive(monkeypatch):
    # An imaginary part or a negative real part of exactly 1e-12 is rounding
    # and is accepted, and so is a residual equal to PREP_TOL: the
    # triplicator's is 1.1e-16.
    blank = solve_prep_angles(np.array([1.0, 0.0, 0.0, 0.0]))
    assert solve_prep_angles(np.array([1.0, 1e-12j, 0.0, 0.0])) == blank
    assert solve_prep_angles(np.array([1.0, -1e-12, 0.0, 0.0])) == blank
    monkeypatch.setattr("uqcm.angles.PREP_TOL", 1.1102230246251565e-16)
    assert solve_prep_angles(TRIPLICATOR_PREP_TARGET) == triplicator_prep_angles()


def test_rejects_invalid_targets():
    with pytest.raises(ValueError, match="nonnegative"):
        solve_prep_angles(np.array([-0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(ValueError, match="nonnegative"):
        solve_prep_angles(np.array([0.5j, 0.5, 0.5, 0.5]))
    with pytest.raises(ValueError, match="normalized"):
        solve_prep_angles(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="4 amplitudes"):
        solve_prep_angles(np.array([1.0, 0.0]))
    for bad in ([math.nan, 0.0, 0.0, 0.0], [1.0, math.nan, 0.0, 0.0], [1.0, complex(0.0, math.nan), 0.0, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            solve_prep_angles(np.array(bad))


def test_random_reachable_targets_are_recovered():
    # Forward-generate targets from random angles, then ask the solver to
    # find (possibly different) angles hitting the same state.
    rng = np.random.default_rng(77)
    found = 0
    for _ in range(200):
        t = rng.uniform(-math.pi, math.pi, size=3)
        target = prepared_state(PrepAngles(*t)).real
        if target.min() < 0.0:
            continue  # solver contract covers nonnegative targets only
        angles = solve_prep_angles(target)
        assert abs(complex(prepared_state(angles) @ target)) >= 1 - 1e-10
        found += 1
        if found == 5:
            break
    assert found == 5


def _grid_targets():
    named = [
        CLONER_PREP_TARGET,
        TRIPLICATOR_PREP_TARGET,
        np.array([1.0, 0.0, 0.0, 0.0]),
        np.full(4, 0.5),  # p = q, so t2 = 0
        np.array([0.0, 0.0, 0.0, 1.0]),
        np.array([0.0, 1.0, 0.0, 0.0]),
        np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0),
        np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0),
        np.array([0.6, 0.0, 0.0, 0.8]),
    ]
    rng = np.random.default_rng(2024)
    raw = np.abs(rng.normal(size=(200, 4)))
    rows = np.arange(0, len(raw), 7)
    raw[rows, rng.integers(0, 4, size=rows.size)] = 0.0  # some zero entries
    return named + list(raw / np.linalg.norm(raw, axis=1, keepdims=True))


def assert_solves(target):
    angles = solve_prep_angles(target)
    assert all(-math.pi < v <= math.pi for v in angles.as_tuple()), angles
    # The gate sequence itself, not the closed form, lands on +target.
    assert np.max(np.abs(prepared_state(angles) - target)) <= 1e-12, (target, angles)


def test_closed_form_solves_every_grid_target():
    for target in _grid_targets():
        assert_solves(target)


def test_closed_form_solves_zero_entries_and_near_family_targets():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    entry = st.just(0.0) | st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False)
    entries = st.tuples(entry, entry, entry, entry).map(np.array)
    # (|00> + |11>) and (|01> + |10>) are reached by a one-parameter family of
    # angles: p or q is 0 there, so atan2 meets (0, 0) or a tiny vector.
    family = st.sampled_from([np.array([1.0, 0.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0, 0.0])])
    tiny = st.just(0.0) | st.floats(min_value=1e-15, max_value=1e-3)
    near_family = st.builds(lambda base, eps, d: base + eps * d, family, tiny, entries)
    targets = (entries.filter(lambda v: v.max() > 1e-6) | near_family).map(lambda v: v / np.linalg.norm(v))

    @settings(max_examples=200, deadline=None)
    @given(targets)
    def check(target):
        assert_solves(target)

    check()


def test_solved_constant_angles_are_pinned():
    assert cloner_prep_angles().as_tuple() == (0.5535743588970452, 0.3648638281134833, 0.23182380450040307)
    assert triplicator_prep_angles().as_tuple() == (0.39269908169872414, 0.1699184547270609, 0.39269908169872414)


def test_solver_error_is_not_cached(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr("uqcm.angles.PREP_TOL", -1.0)
        for _ in range(2):
            with pytest.raises(SolverError):
                solve_prep_angles(TRIPLICATOR_PREP_TARGET)
    assert solve_prep_angles(TRIPLICATOR_PREP_TARGET) == triplicator_prep_angles()
