"""Package surface: the explicit public name list and the names the
benchmark tracer patches."""

import ast
import importlib
import inspect
import pathlib
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
