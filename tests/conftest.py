import os
import sys

import pytest

# Allow running pytest from a fresh checkout without installing the package,
# and importing the test-only `reference` module under any import mode.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def scale_coefficients(monkeypatch):
    """scale(element, factor): from then on `optics._coefficients` returns the
    coefficients of that very element object (other equal elements are left
    alone) times `factor`, so J^H J = |factor|^2 J^H J of the true element."""
    from uqcm import optics

    coefficients = optics._coefficients

    def scale(element, factor):
        def scaled(e, angle=None):
            coeffs = coefficients(e, angle)
            return tuple(factor * x for x in coeffs) if e is element else coeffs

        monkeypatch.setattr(optics, "_coefficients", scaled)

    return scale


@pytest.fixture
def detector(monkeypatch):
    """detector(NAME=value, ...): from then on the named detector constants
    of `uqcm.tomography` (EFFICIENCY, DARK_RATE, MAX_RATE, GATE_WINDOW) hold
    the given values, as counting modules other than the bench's would."""
    from uqcm import tomography

    def patch(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(tomography, name, value)

    return patch
