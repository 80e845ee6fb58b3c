"""Package surface: the explicit public name list and the names the
benchmark tracer patches."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import types

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
    # One bootstrap size and one detector model: the counting kernel and its
    # single-point report count with `DetectorModel()` and N_BOOTSTRAP
    # resamples. `simulate_counts` keeps its model, which tests vary.
    functions = dict(package_functions())
    assert "uqcm.tomography._montecarlo_fidelities" in functions and "uqcm.cli.run_tomo" in functions
    assert [name for name, fn in functions.items() if "n_bootstrap" in inspect.signature(fn).parameters] == []
    assert not hasattr(uqcm.tomography, "_require_bootstrap")
    assert uqcm.tomography.N_BOOTSTRAP == 50
    for fn in (uqcm.tomography._montecarlo_fidelities, uqcm.tomography.montecarlo_report):
        assert "model" not in inspect.signature(fn).parameters, fn.__name__
    assert "model" in inspect.signature(uqcm.tomography.simulate_counts).parameters


# Public helpers that no command, tracer target or release criterion needs in
# the package, by the module that defined them. The object-tier references
# among them live in tests/reference.py.
RETIRED = {
    "hilbert": ("tensor_product", "random_pure_state"),
    "network": ("input_state", "reference_clone_output"),
    "optics": ("source_photon", "apply_train", "qubits_to_modes", "ModeSpace", "PhotonState", "element_paths"),
    "tomography": ("attach_aux_cswap", "reconstruct_single_qubit", "replicas_from_state"),
}


def test_retired_names_are_gone():
    for module_name, names in RETIRED.items():
        module = importlib.import_module(f"uqcm.{module_name}")
        for name in names:
            assert name not in uqcm.__all__, name
            assert not hasattr(uqcm, name), name
            assert not hasattr(module, name), f"{module_name}.{name}"
    assert not hasattr(uqcm.PureState, "inner")
    assert not hasattr(uqcm.tomography, "_AUX_CSWAP")
    assert not hasattr(uqcm.optics, "_POL_NAMES")
