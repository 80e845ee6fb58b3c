"""Package surface: the explicit public name list, the names the
benchmark tracer patches, and the frozen records."""

import ast
import copy
import importlib
import inspect
import math
import pathlib
import pickle
import pkgutil
import types

import numpy as np
import pytest

import uqcm
from uqcm.angles import PrepAngles
from uqcm.cli import CheckResult, SweepConfig
from uqcm.gates import CNOT, CSWAP, SWAP, Rotation
from uqcm.hilbert import LabelError
from uqcm.network import _network_image, cloner_prep_angles
from uqcm.optics import AJWP, BS, HWP, PBS, PhaseShift
from uqcm.tomography import CountsRecord, FidelityReport


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
    assert uqcm.tomography.N_BOOTSTRAP == 50
    detector = tuple(getattr(uqcm.tomography, name) for name in ("EFFICIENCY", "DARK_RATE", "MAX_RATE", "GATE_WINDOW"))
    assert detector == (0.70, 50.0, 20000.0, 5e-9)


# Names that no command, tracer target or release criterion needs in the
# package, by the module that defined them; a dotted name is an attribute of
# a class that stays. The object-tier references among them live in
# tests/reference.py.
RETIRED = {
    "hilbert": (
        "tensor_product", "random_pure_state", "_permute_to_canonical", "PureState.inner", "PureState.dim",
        "PureState.equal_up_to_global_phase", "DensityMatrix.from_pure", "DensityMatrix.dim",
    ),
    "gates": ("Circuit.extended",),
    "network": ("input_state", "reference_clone_output", "build_preparation_circuit"),
    "optics": (
        "source_photon", "apply_train", "qubits_to_modes", "ModeSpace", "PhotonState", "element_paths",
        "mode_qubit_labels", "_mode_to_qubit_permutation", "EquivalenceReport", "QWP", "Polarizer",
        "crot_path_controls_polarization", "crot_polarization_controls_path", "OpticalTrain.has_loss",
        "OpticalTrain.n_paths", "_POL_NAMES",
    ),
    "tomography": (
        "attach_aux_cswap", "reconstruct_single_qubit", "replicas_from_state", "N_PATHS", "DetectorModel",
        "measurement_state", "per_path_amplitudes", "path_distribution", "CountsRecord.to_text",
        "CountsRecord.from_text", "CountsRecord.model", "_AUX_CSWAP", "_require_bootstrap",
    ),
    "errormodel": ("ErrorBudget", "PerturbationResult", "_TARGET_F"),
    "angles": ("sequence_amplitudes",),
}


def test_retired_names_are_gone():
    for module_name, names in RETIRED.items():
        module = importlib.import_module(f"uqcm.{module_name}")
        for dotted in names:
            *owner_path, name = dotted.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            assert not hasattr(owner, name), f"{module_name}.{dotted}"
            if not owner_path:
                assert name not in uqcm.__all__ and not hasattr(uqcm, name), name


# Parameters that only tests or the retired `verify --inject-hwp-offset-deg`
# set, by the function that took them. Each now uses its one value in use:
# the tolerances are module constants, the prep angles `cloner_prep_angles()`,
# the prep qubits (2, 3), the path count the bench's N_BENCH_PATHS, the
# detector the constants of `tomography`, the bootstrap size N_BOOTSTRAP, and
# output goes to sys.stdout. `perturbation_sweep` returns its fidelities, and
# callers count the samples beyond their own bound. A check result works out
# `passed` from its deviation.
RETIRED_PARAMETERS = {
    "uqcm.cli.run_sweep": ("stdout",),
    "uqcm.cli.run_verify": ("hwp_offset_rad", "stdout"),
    "uqcm.cli._check_optics_equivalence": ("hwp_offset_rad",),
    "uqcm.cli.run_tomo": ("stdout",),
    "uqcm.cli.CheckResult.__init__": ("passed",),
    "uqcm.optics.verify_equivalence": ("tol",),
    "uqcm.optics.modes_to_qubits": ("tol",),
    "uqcm.optics._unit_norms": ("tol",),
    "uqcm.angles.solve_prep_angles": ("tol",),
    "uqcm.angles.prep_circuit": ("qubit_a", "qubit_b"),
    "uqcm.network.build_measurement_circuit": ("prep_angles",),
    "uqcm.optics.build_cloner_train": ("prep_angles",),
    "uqcm.optics._body_elements": ("prep",),
    "uqcm.optics._body_isometry": ("prep",),
    "uqcm.optics._cloner_train_elements": ("prep",),
    "uqcm.optics.OpticalTrain.__init__": ("n_paths",),
    "uqcm.optics.element_matrix": ("n_paths",),
    "uqcm.tomography.simulate_counts": ("model",),
    "uqcm.tomography._draw_counts": ("model",),
    "uqcm.tomography.fidelity_report": ("n_bootstrap",),
    "uqcm.tomography.montecarlo_report": ("n_bootstrap", "model"),
    "uqcm.errormodel.perturbation_sweep": ("bound",),
}


@pytest.mark.parametrize("name", RETIRED_PARAMETERS)
def test_retired_parameters_are_gone(name):
    taken = inspect.signature(dict(package_functions())[name]).parameters
    assert [p for p in RETIRED_PARAMETERS[name] if p in taken] == []


# Flags the command line no longer takes, each with a value to pass it:
# (command, flag, value). Each is a usage error (exit 2) now.
RETIRED_FLAGS = (("verify", "--prep-tol", "1e-12"), ("verify", "--inject-hwp-offset-deg", "0.1"))

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _public(dotted):
    return not any(part.startswith("_") for part in dotted.split("."))


def readme_retired_entries():
    """First-column entries of the README's "Removed public names" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Removed public names\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    assert rows and all(len(row) == 2 and row[1].strip() for row in rows), "a row without its replacement"
    return [row[0].strip().strip("`") for row in rows]


def test_readme_lists_every_public_retirement():
    # The README's table is the public part of the three tables above: a
    # name as module.name, a parameter as function(parameter) with a
    # constructor named by its class, and a flag as `uqcm <command> <flag>`.
    expected = [f"{module}.{name}" for module, names in RETIRED.items() for name in names]
    for function, parameters in RETIRED_PARAMETERS.items():
        owner = function.removeprefix("uqcm.").removesuffix(".__init__")
        expected += [f"{owner}({parameter})" for parameter in parameters]
    expected = [entry for entry in expected if _public(entry.split("(")[0])]
    expected += [f"uqcm {command} {flag}" for command, flag, _ in RETIRED_FLAGS]
    listed = readme_retired_entries()
    assert len(listed) == len(set(listed))
    assert sorted(set(listed) - set(expected)) == [], "in the README only"
    assert sorted(set(expected) - set(listed)) == [], "in the code-side tables only"


def test_retired_tolerances_are_module_constants():
    assert (uqcm.optics.EQUIVALENCE_TOL, uqcm.optics.NORM_TOL, uqcm.angles.PREP_TOL) == (1e-9, 1e-9, 1e-10)
    assert list(inspect.signature(uqcm.optics._body_isometry).parameters) == []


COUNTS = np.arange(32).reshape(8, 4)
# Every record: its fields in constructor order and its repr, the text the
# frozen dataclasses printed.
RECORDS = [
    (Rotation, {"target": 1, "angle": 0.5}, "Rotation(target=1, angle=0.5)"),
    (CNOT, {"control": 1, "target": 2}, "CNOT(control=1, target=2)"),
    (SWAP, {"a": 1, "b": 2}, "SWAP(a=1, b=2)"),
    (CSWAP, {"control": "aux", "a": 1, "b": 2}, "CSWAP(control='aux', a=1, b=2)"),
    (PrepAngles, {"theta1": 0.1, "theta2": -0.2, "theta3": math.pi},
     "PrepAngles(theta1=0.1, theta2=-0.2, theta3=3.141592653589793)"),
    (HWP, {"path": 0, "angle": 0.5}, "HWP(path=0, angle=0.5)"),
    (AJWP, {"path": 1, "retardance": 0.25}, "AJWP(path=1, retardance=0.25)"),
    (PBS, {"path_a": 0, "path_b": 1}, "PBS(path_a=0, path_b=1)"),
    (BS, {"path_a": 2, "path_b": 3}, "BS(path_a=2, path_b=3)"),
    (PhaseShift, {"path": 4, "phase": 1.5}, "PhaseShift(path=4, phase=1.5)"),
    (CountsRecord, {"counts": COUNTS, "total_trials": 40, "seed": 3},
     f"CountsRecord(counts={COUNTS!r}, total_trials=40, seed=3)"),
    (FidelityReport,
     {"fidelity1": 0.8, "fidelity2": 0.75, "stderr1": 0.01, "stderr2": 0.0, "theta": 0.1, "delta": 0.2,
      "mode": "montecarlo"},
     "FidelityReport(fidelity1=0.8, fidelity2=0.75, stderr1=0.01, stderr2=0.0, theta=0.1, delta=0.2, "
     "mode='montecarlo')"),
    (SweepConfig,
     {"mode": "perturbed", "theta_start": -1.0, "theta_end": 1.0, "theta_steps": 5, "delta_list": (0.5, 0.0),
      "trials": 100, "seed": 7, "jitter_deg": 0.2, "delta_c": 0.001, "samples": 3, "out": "x.csv"},
     "SweepConfig(mode='perturbed', theta_start=-1.0, theta_end=1.0, theta_steps=5, delta_list=(0.0, 0.5), "
     "trials=100, seed=7, jitter_deg=0.2, delta_c=0.001, samples=3, out='x.csv')"),
    (CheckResult, {"name": "oracle", "deviation": 1e-12, "tol": 1e-9},
     "CheckResult(name='oracle', deviation=1e-12, tol=1e-09)"),
]


@pytest.mark.parametrize(("cls", "fields", "text"), RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_records_behave_as_frozen_dataclasses(cls, fields, text):
    record = cls(*fields.values())
    assert repr(record) == repr(cls(**fields)) == text
    clones = [cls(**fields), pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)]
    assert [(type(c), repr(c)) for c in clones] == [(cls, text)] * 4
    if cls is CountsRecord:
        # An array field makes the record unhashable and its equality
        # ambiguous, as it made the dataclass's.
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert clones == [record] * 4 and {hash(c) for c in clones} == {hash(record)}
        assert hash(record) == hash(tuple(getattr(record, name) for name in fields))
    assert record.__eq__(tuple(getattr(record, name) for name in fields)) is NotImplemented
    for name in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    assert repr(record) == text


def test_records_compare_by_class_then_fields():
    assert HWP(0, 0.5) != AJWP(0, 0.5) and CNOT(1, 2) != SWAP(1, 2) and PBS(0, 1) != BS(0, 1)
    assert HWP(0, 0.5) != HWP(0, 0.25) and HWP(0, 0.5) != HWP(1, 0.5)
    assert CheckResult("a", 0.0, 1.0) == CheckResult("a", 0.0, 1.0) != CheckResult("a", 0.0, 2.0)
    defaults = SweepConfig()
    assert defaults == SweepConfig(
        "exact", -math.pi / 2 + math.pi / 36, math.pi / 2, 19, (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4),
        20000, 42, 0.1, 0.002, 25, "fidelity_sweep.csv",
    )
    assert hash(defaults) == hash(SweepConfig())


def test_equal_prep_angles_hit_the_network_image_cache():
    prep = cloner_prep_angles()
    _network_image(prep)
    hits = _network_image.cache_info().hits
    image = _network_image(PrepAngles(*prep.as_tuple()))
    assert _network_image.cache_info().hits == hits + 1 and image is _network_image(prep)


@pytest.mark.parametrize(
    ("build", "error", "message"),
    [
        (lambda: Rotation(1, math.nan), ValueError, "rotation angle must be finite, got nan"),
        (lambda: Rotation(1, -math.inf), ValueError, "rotation angle must be finite, got -inf"),
        (lambda: CNOT(2, 2), LabelError, "CNOT control and target must differ"),
        (lambda: SWAP(3, 3), LabelError, "SWAP qubits must differ"),
        (lambda: CSWAP("aux", 1, "aux"), LabelError, "CSWAP qubits must be distinct"),
        (lambda: PrepAngles(0.0, math.inf, 0.0), ValueError, "theta2 must be finite, got inf"),
        (lambda: PrepAngles(0.0, 0.0, 4.0), ValueError, r"theta3=4.0 outside \(-pi, pi\]"),
        (lambda: PBS(5, 5), ValueError, "PBS needs two distinct paths"),
        (lambda: BS(6, 6), ValueError, "BS needs two distinct paths"),
    ],
)
def test_record_constructors_reject_with_their_message(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()
