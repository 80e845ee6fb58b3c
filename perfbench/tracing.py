"""In-memory span tracer that wraps public functions of ``uqcm`` from outside.

A span is (name, start, end, parent). Spans are appended to flat lists while
the program runs and written out once, by ``Tracer.save``, after the timed
region. The program's own source is left untouched: each wrapped function is
replaced by its wrapper in every ``uqcm`` module namespace that holds it, so
calls made through ``from .x import f`` bindings are traced too.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# (span name, module, attribute). "Class.method" patches the class attribute.
TARGETS = (
    ("optics.train_build", "uqcm.optics", "OpticalTrain.__init__"),
    ("optics.element_matrix", "uqcm.optics", "element_matrix"),
    ("optics.build_cloner_train", "uqcm.optics", "build_cloner_train"),
    ("optics.measurement_state", "uqcm.optics", "optical_measurement_state"),
    ("gates.apply_circuit", "uqcm.gates", "apply_circuit"),
    ("gates.gate_unitary", "uqcm.gates", "gate_unitary"),
    ("gates.circuit_unitary", "uqcm.gates", "circuit_unitary"),
    ("angles.solve", "uqcm.angles", "solve_prep_angles"),
    ("network.clone", "uqcm.network", "clone"),
    ("hilbert.density_matrix", "uqcm.hilbert", "DensityMatrix.__init__"),
    ("hilbert.fidelity", "uqcm.hilbert", "fidelity"),
    ("hilbert.partial_trace", "uqcm.hilbert", "partial_trace"),
    ("tomography.simulate_counts", "uqcm.tomography", "simulate_counts"),
    ("tomography.reconstruct_replica", "uqcm.tomography", "reconstruct_replica"),
    ("tomography.fidelity_report", "uqcm.tomography", "fidelity_report"),
    ("tomography.signal_probabilities", "uqcm.tomography", "signal_probabilities"),
    ("errormodel.perturbation_sweep", "uqcm.errormodel", "perturbation_sweep"),
    ("cli.compute_sweep", "uqcm.cli", "compute_sweep"),
    ("cli.write_csv", "uqcm.cli", "write_csv"),
)

# fidelity_report runs the parametric bootstrap only when given counts; those
# calls get their own span name so the bootstrap's self time stands apart.
BOOTSTRAP_SPAN = "tomography.bootstrap"


def _has_counts(args, kwargs) -> bool:
    counts = kwargs["counts"] if "counts" in kwargs else (args[5] if len(args) > 5 else None)
    return counts is not None


class Tracer:
    """Collects nested spans from the wrapped functions of one process."""

    def __init__(self):
        self.names: list = []
        self.name_ids: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name_id: int, alt_name_id: int | None = None):
        clock = time.perf_counter
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            nid = alt_name_id if alt_name_id is not None and _has_counts(args, kwargs) else name_id
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every target in every loaded ``uqcm`` namespace."""
        modules = [m for n, m in list(sys.modules.items()) if n == "uqcm" or n.startswith("uqcm.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            alt = self._name_id(BOOTSTRAP_SPAN) if name == "tomography.fidelity_report" else None
            nid = self._name_id(name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(getattr(cls, method), nid, alt))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, nid, alt)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def save(self, path: str) -> None:
        """Write the spans as arrays plus a JSON list of span names."""
        with open(path, "wb") as fh:
            np.savez(
                fh,
                name_id=np.asarray(self.name_ids, dtype=np.int32),
                start=np.asarray(self.starts, dtype=np.float64),
                end=np.asarray(self.ends, dtype=np.float64),
                parent=np.asarray(self.parents, dtype=np.int64),
                names=np.asarray(json.dumps(self.names)),
            )


def summarize(path: str) -> dict:
    """Per span name: call count and self time (duration minus child spans)."""
    with np.load(path) as data:
        names = json.loads(str(data["names"]))
        name_id, start, end, parent = data["name_id"], data["start"], data["end"], data["parent"]
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - covered
    calls = np.bincount(name_id, minlength=len(names))
    self_s = np.bincount(name_id, weights=self_time, minlength=len(names))
    out = {name: {"calls": int(calls[i]), "self_s": float(self_s[i])} for i, name in enumerate(names)}
    # Cache lookups that did not construct a new OpticalTrain were hits.
    build = names.index("optics.build_cloner_train")
    train = names.index("optics.train_build")
    builders = np.flatnonzero(name_id == build)
    missed = np.unique(parent[name_id == train])
    hits = int(np.count_nonzero(~np.isin(builders, missed)))
    out["optics.train_cache"] = {"lookups": int(builders.size), "hits": hits}
    return out
