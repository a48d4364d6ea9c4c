"""Spans at the boundaries between hyperdecide's modules.

``install`` rebinds each traced function in the module that calls it (for
example ``hyperdecide.equilibria.jacobian``), so the program itself is not
edited. Every call records a span: name, start, end, parent span, whether
it raised, and one number read from its result (equilibria found, RK4
steps or bytes written) and, with ``memory=True``, the tracemalloc peak of
the calls that build large arrays. Spans stay in flat arrays until ``save``
writes them out.
"""
from __future__ import annotations

import os
import time
import tracemalloc
from array import array

import numpy as np

# span name -> (module, attribute) bindings that calls go through
BINDINGS = {
    "hypergraph.from_text": [("hypergraph", "from_text")],
    "hypergraph.build": [("hypergraph", "build")],
    "spectra.thresholds": [("spectra", "thresholds"), ("bifurcation", "thresholds")],
    "spectra.general_eigenvalues": [("equilibria", "general_eigenvalues")],
    "dynamics.vector_field": [("dynamics", "vector_field"), ("equilibria", "vector_field")],
    "dynamics.jacobian": [("equilibria", "jacobian")],
    "dynamics.integrate": [("dynamics", "integrate"), ("bifurcation", "integrate")],
    "equilibria.find_all": [("bifurcation", "find_all")],
    "equilibria.newton": [("equilibria", "_newton_raw"), ("bifurcation", "_newton_raw")],
    "equilibria.classify": [("equilibria", "classify"), ("bifurcation", "classify")],
    "equilibria.consensus_roots": [("equilibria", "consensus_roots"),
                                   ("bifurcation", "consensus_roots")],
    "equilibria.pi1_star": [("bifurcation", "pi1_star")],
    "bifurcation.sweep": [("bifurcation", "sweep")],
    "bifurcation.bistability_interval": [("bifurcation", "bistability_interval")],
    "bifurcation.basin_probe": [("bifurcation", "basin_probe")],
    "bifurcation.write": [("bifurcation", "write_diagram_csv"),
                          ("bifurcation", "write_diagram_svg")],
}

_MEMORY = ("hypergraph.from_text", "dynamics.integrate")


def _found(args, out):
    return len(out)


def _steps(args, out):
    return out.times.size - 1


def _bytes(args, out):
    return os.path.getsize(args[1])


_VALUE = {
    "equilibria.find_all": _found,
    "dynamics.integrate": _steps,
    "bifurcation.write": _bytes,
}


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.names = list(BINDINGS)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.value = array("d")
        self.peak = array("d")
        self._stack = [-1]

    def _wrap(self, fn, name):
        nid = self.names.index(name)
        value_of = _VALUE.get(name)
        watch = self.memory and name in _MEMORY
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.raised.append(0)
            self.value.append(0.0)
            self.peak.append(0.0)
            stack.append(idx)
            if watch:
                tracemalloc.start()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                if watch:
                    self.peak[idx] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if value_of is not None:
                self.value[idx] = value_of(args, out)
            return out

        return traced

    def install(self, package) -> None:
        for name, bindings in BINDINGS.items():
            for module, attr in bindings:
                mod = getattr(package, module)
                setattr(mod, attr, self._wrap(getattr(mod, attr), name))

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
            "value": np.frombuffer(self.value, dtype=np.float64),
            "peak": np.frombuffer(self.peak, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metrics(names: list, spans: dict) -> dict:
    """Per-layer metrics of one traced round. ``.s`` is self time: a span's
    duration minus the durations of its child spans."""
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - child
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    nid = {n: i for i, n in enumerate(names)}
    is_ = {n: name == i for n, i in nid.items()}
    under = lambda n: parent_name == nid[n]

    def self_s(n):
        return float(own[is_[n]].sum())

    def calls(n):
        return int(is_[n].sum())

    def total(n):
        return float(spans["value"][is_[n]].sum())

    def peak(n):
        vals = spans["peak"][is_[n]]
        return float(vals.max()) if vals.size else 0.0

    newton = is_["equilibria.newton"]
    searched = int((newton & under("equilibria.find_all")).sum())
    found = int(total("equilibria.find_all"))
    m = {
        "hypergraph.from_text.s": self_s("hypergraph.from_text"),
        "hypergraph.build.s": self_s("hypergraph.build"),
        "hypergraph.from_text.peak_mb": peak("hypergraph.from_text"),
        "equilibria.newton.runs": int(newton.sum()),
        "equilibria.newton.solves": int((is_["dynamics.jacobian"]
                                         & under("equilibria.newton")).sum()),
        "equilibria.newton.failed": int((newton & (spans["raised"] == 1)).sum()),
        "equilibria.newton.s": self_s("equilibria.newton"),
        "equilibria.newton.found_per_run": found / searched if searched else 0.0,
        "equilibria.find_all.found": found,
        "dynamics.integrate.steps": int(total("dynamics.integrate")),
        "dynamics.integrate.peak_mb": peak("dynamics.integrate"),
        "bifurcation.rescue.runs": int((newton & under("bifurcation.sweep")).sum()),
        "bifurcation.write.bytes": int(total("bifurcation.write")),
    }
    for n in ("spectra.thresholds", "spectra.general_eigenvalues", "dynamics.vector_field",
              "dynamics.jacobian", "dynamics.integrate", "equilibria.find_all",
              "equilibria.classify", "equilibria.consensus_roots", "equilibria.pi1_star"):
        m[f"{n}.calls"] = calls(n)
        m[f"{n}.s"] = self_s(n)
    for n in ("bifurcation.sweep", "bifurcation.bistability_interval",
              "bifurcation.basin_probe", "bifurcation.write"):
        m[f"{n}.s"] = self_s(n)
    return m
