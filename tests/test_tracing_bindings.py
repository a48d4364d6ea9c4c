"""The traced benchmark rebinds functions by name; every name must exist,
and a traced basin probe, integration and sweep must still run."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import hyperdecide as hd

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{name}: {module}.{attr}"
               for name, bindings in tracing.BINDINGS.items()
               for module, attr in bindings
               if not callable(getattr(getattr(hd, module, None), attr, None))]
    assert not missing


SMOKE = """
import json, sys
import numpy as np
import hyperdecide as hd
from tracing import Tracer, layer_metrics
tracer = Tracer(memory=True)
tracer.install(hd)
with open(sys.argv[1]) as fh:
    g = hd.hypergraph.from_text(fh.read())
s = hd.dynamics.SystemInstance(graph=g, psi=hd.tanh_family(), pi=1.7)
report = hd.bifurcation.basin_probe(s, [0.05, 2.0])
traj = hd.dynamics.integrate(s, 0.3 * np.ones(g.n), t_max=1.0)
m = layer_metrics(tracer.names, tracer.arrays())
print(json.dumps({"labels": report.labels, "steps": traj.times.size - 1,
                  "calls": m["dynamics.integrate.calls"],
                  "traced_steps": m["dynamics.integrate.steps"],
                  "field_calls": m["dynamics.vector_field.calls"]}))
"""


def test_traced_basin_probe_and_integrate_run():
    # in a fresh interpreter: installing the tracer rebinds package names
    src = Path(hd.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TRACING.parent)]))
    proc = subprocess.run([sys.executable, "-c", SMOKE, str(TRACING.parent / "inst5.txt")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["labels"] == ["origin", "upper"]
    # the radii run through the stacked core, which is not a traced name
    assert out["calls"] == 1
    assert out["traced_steps"] == out["steps"] == 100
    # the RK4 stages call the unchecked _field, and so does the Newton of
    # _upper_consensus: no call of the smoke passes the traced public name
    assert out["field_calls"] == 0


SWEEP_SMOKE = """
import json, sys
import hyperdecide as hd
from tracing import Tracer, layer_metrics
counts = {"_seed_stack": 0, "_newton_rows": 0}


def counted(module, name):
    fn = getattr(module, name)

    def call(*args):
        counts[name] += 1
        return fn(*args)

    setattr(module, name, call)


# the grid search calls both names in hd.equilibria; the threading calls
# _newton_rows by its name in hd.bifurcation
for module, name in [(hd.equilibria, "_seed_stack"), (hd.equilibria, "_newton_rows"),
                     (hd.bifurcation, "_newton_rows")]:
    counted(module, name)
tracer = Tracer(memory=False)
tracer.install(hd)
with open(sys.argv[1]) as fh:
    g = hd.hypergraph.from_text(fh.read())
result = hd.bifurcation.sweep(g, hd.tanh_family(), [1.6, 1.7, 1.8])
m = layer_metrics(tracer.names, tracer.arrays())
print(json.dumps({"diagram": hd.bifurcation.diagram_csv(result),
                  "seed_stacks": counts["_seed_stack"],
                  "newton_stacks": counts["_newton_rows"],
                  "find_all_calls": m["equilibria.find_all.calls"],
                  "newton_runs": m["equilibria.newton.runs"],
                  "rescue_runs": m["bifurcation.rescue.runs"],
                  "classify_calls": m["equilibria.classify.calls"]}))
"""


def test_traced_sweep_runs_one_search_per_level():
    src = Path(hd.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TRACING.parent)]))
    instance = TRACING.parent / "inst5.txt"
    proc = subprocess.run([sys.executable, "-c", SWEEP_SMOKE, str(instance)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    g = hd.hypergraph.from_text(instance.read_text())
    assert out["diagram"] == hd.bifurcation.diagram_csv(
        hd.bifurcation.sweep(g, hd.tanh_family(), [1.6, 1.7, 1.8]))
    # the three levels in one chunk: one seed stack and one Newton stack
    # that bypass the traced one-level names; the threading's one round:
    # one Newton stack of the steps up and one of the steps back; the only
    # traced Newton runs are the five samples of bistability_interval (no
    # rescue), each of which classifies the origin and the upper state
    assert out["seed_stacks"] == 1
    assert out["newton_stacks"] == 1 + 2 + 5
    assert out["find_all_calls"] == 0
    assert (out["newton_runs"], out["rescue_runs"], out["classify_calls"]) == (5, 0, 10)
