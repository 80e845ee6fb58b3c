"""Package surface: the explicit public name list and the names the
benchmark tracer patches."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import types

import pytest

import uqcm


def test_all_lists_public_objects_not_submodules():
    assert len(set(uqcm.__all__)) == len(uqcm.__all__)
    for name in uqcm.__all__:
        assert not isinstance(getattr(uqcm, name), types.ModuleType), name
    assert "optics" not in uqcm.__all__


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_constant(filename, name):
    """The module-level constant `name` of perfbench/`filename`, read from
    its source without importing it."""
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in perfbench/{filename}")


def test_benchmark_tracer_targets_resolve():
    # The tracer's (span, module, attribute) table.
    targets = perfbench_constant("tracing.py", "TARGETS")
    assert targets
    for span, module_name, attr in targets:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{span}: {module_name}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), span


def test_fidelity_report_takes_counts_sixth():
    # The tracer tells bootstrap calls apart by reading positional args[5].
    params = list(inspect.signature(uqcm.tomography.fidelity_report).parameters)
    assert params[5] == "counts"


def package_functions():
    """(qualified name, function) of every function and method defined in a
    `uqcm` module, memoised ones unwrapped."""
    for info in pkgutil.iter_modules(uqcm.__path__):
        module = importlib.import_module(f"uqcm.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for member in vars(obj).values() if inspect.isclass(obj) else [obj]:
                fn = inspect.unwrap(getattr(member, "__func__", member))
                if inspect.isfunction(fn):
                    yield f"{module.__name__}.{fn.__qualname__}", fn


def test_bootstrap_size_and_detector_model_are_no_parameters():
    # One bootstrap size and one detector bank: every count is drawn with the
    # module constants of `tomography` and bootstrapped with N_BOOTSTRAP
    # resamples. Tests that vary the detectors patch those constants.
    functions = dict(package_functions())
    assert "uqcm.tomography._montecarlo_fidelities" in functions and "uqcm.cli.run_tomo" in functions
    for parameter in ("n_bootstrap", "model"):
        assert [name for name, fn in functions.items() if parameter in inspect.signature(fn).parameters] == []
    assert not hasattr(uqcm.tomography, "_require_bootstrap")
    assert uqcm.tomography.N_BOOTSTRAP == 50
    detector = tuple(getattr(uqcm.tomography, name) for name in ("EFFICIENCY", "DARK_RATE", "MAX_RATE", "GATE_WINDOW"))
    assert detector == (0.70, 50.0, 20000.0, 5e-9)


# Public helpers that no command, tracer target or release criterion needs in
# the package, by the module that defined them. The object-tier references
# among them live in tests/reference.py.
RETIRED = {
    "hilbert": ("tensor_product", "random_pure_state", "_permute_to_canonical"),
    "network": ("input_state", "reference_clone_output", "build_preparation_circuit"),
    "optics": (
        "source_photon", "apply_train", "qubits_to_modes", "ModeSpace", "PhotonState", "element_paths",
        "mode_qubit_labels", "_mode_to_qubit_permutation", "EquivalenceReport",
    ),
    "tomography": (
        "attach_aux_cswap", "reconstruct_single_qubit", "replicas_from_state", "N_PATHS", "DetectorModel",
        "measurement_state", "per_path_amplitudes",
    ),
    "errormodel": ("ErrorBudget", "PerturbationResult", "_TARGET_F"),
    "angles": ("sequence_amplitudes",),
}


def test_retired_names_are_gone():
    for module_name, names in RETIRED.items():
        module = importlib.import_module(f"uqcm.{module_name}")
        for name in names:
            assert name not in uqcm.__all__, name
            assert not hasattr(uqcm, name), name
            assert not hasattr(module, name), f"{module_name}.{name}"
    assert not hasattr(uqcm.PureState, "inner")
    assert not hasattr(uqcm.PureState, "dim") and not hasattr(uqcm.DensityMatrix, "dim")
    assert not hasattr(uqcm.tomography, "_AUX_CSWAP")
    assert not hasattr(uqcm.optics, "_POL_NAMES")


# Parameters that only tests or the retired `verify --inject-hwp-offset-deg`
# set, by the function that took them. Each now uses its one value in use:
# the tolerances are module constants, the prep angles `cloner_prep_angles()`,
# the path count the bench's N_BENCH_PATHS, the detector the constants of
# `tomography`, and output goes to sys.stdout. `perturbation_sweep` returns
# its fidelities, and callers count the samples beyond their own bound.
RETIRED_PARAMETERS = {
    "uqcm.cli.run_sweep": ("stdout",),
    "uqcm.cli.run_verify": ("hwp_offset_rad", "stdout"),
    "uqcm.cli._check_optics_equivalence": ("hwp_offset_rad",),
    "uqcm.cli.run_tomo": ("stdout",),
    "uqcm.optics.verify_equivalence": ("tol",),
    "uqcm.optics.modes_to_qubits": ("tol",),
    "uqcm.optics._unit_norms": ("tol",),
    "uqcm.angles.solve_prep_angles": ("tol",),
    "uqcm.network.build_measurement_circuit": ("prep_angles",),
    "uqcm.optics._body_elements": ("prep",),
    "uqcm.optics._body_isometry": ("prep",),
    "uqcm.optics._cloner_train_elements": ("prep",),
    "uqcm.optics.OpticalTrain.__init__": ("n_paths",),
    "uqcm.optics.element_matrix": ("n_paths",),
    "uqcm.tomography.simulate_counts": ("model",),
    "uqcm.tomography._draw_counts": ("model",),
    "uqcm.errormodel.perturbation_sweep": ("bound",),
}


@pytest.mark.parametrize("name", RETIRED_PARAMETERS)
def test_retired_parameters_are_gone(name):
    taken = inspect.signature(dict(package_functions())[name]).parameters
    assert [p for p in RETIRED_PARAMETERS[name] if p in taken] == []


def test_retired_tolerances_are_module_constants():
    assert (uqcm.optics.EQUIVALENCE_TOL, uqcm.optics.NORM_TOL, uqcm.angles.PREP_TOL) == (1e-9, 1e-9, 1e-10)
    assert list(inspect.signature(uqcm.optics._body_isometry).parameters) == []
