"""One measured round of a workload, run by run.py in a fresh interpreter.

    python3 worker.py SPEC.json OUT_DIR setup|plain|trace|trace-memory

Set-up is timed from just before ``import hyperdecide`` until the first
effort level or integration starts: the import, reading the instance text,
``from_text`` and ``thresholds``; mode ``setup`` stops there. The
computation is timed from there up to and including the program writing
its results. The round then dumps what run.py needs for its checks and
prints one JSON line.
"""
import json
import resource
import sys
import time
import traceback


def sweep(hd, g, spec, out):
    grid = hd.bifurcation.make_grid(*spec["grid"])
    result = hd.bifurcation.sweep(g, hd.tanh_family(), grid)
    hd.bifurcation.write_diagram_csv(result, f"{out}/diagram.csv")
    hd.bifurcation.write_diagram_svg(result, f"{out}/diagram.svg")
    return result


def dump_sweep(result, out):
    with open(f"{out}/sweep.json", "w") as fh:
        json.dump({"bistability": result.bistability,
                   "branches": len(result.branches)}, fh)


def basin(hd, g, spec, out):
    s = hd.dynamics.SystemInstance(graph=g, psi=hd.tanh_family(), pi=spec["pi"])
    report = hd.bifurcation.basin_probe(s, spec["radii"])
    runs = [hd.dynamics.integrate(s, x0) for x0 in spec["starts"]]
    return report, runs


def dump_basin(result, out):
    import numpy as np
    report, runs = result
    np.savez(f"{out}/basin.npz",
             labels=np.array(report.labels),
             radius_finals=np.array(report.finals),
             start_finals=np.array([r.states[-1] for r in runs]),
             converged=np.array([r.converged for r in runs]),
             start_norms=np.concatenate([np.abs(r.states).max(axis=1) for r in runs]),
             start_lengths=np.array([r.times.size for r in runs]))


KINDS = {"sweep": (sweep, dump_sweep), "basin": (basin, dump_basin)}


def main() -> int:
    spec_path, out, mode = sys.argv[1:4]
    with open(spec_path) as fh:
        spec = json.load(fh)
    compute, dump = KINDS[spec["kind"]]

    t0 = time.perf_counter()
    import hyperdecide as hd
    tracer = None
    if mode.startswith("trace"):
        from tracing import Tracer
        tracer = Tracer(memory=mode == "trace-memory")
        tracer.install(hd)
    with open(spec["instance"]) as fh:
        g = hd.hypergraph.from_text(fh.read())
    hd.spectra.thresholds(g)
    t1 = time.perf_counter()
    if mode == "setup":
        print(json.dumps({"setup_s": t1 - t0}))
        return 0
    raised = None
    try:
        result = compute(hd, g, spec, out)
    except Exception as exc:  # the round reports it; run.py fails every operation
        traceback.print_exc()
        raised = f"{type(exc).__name__}: {exc}"
    t2 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if raised is None:
        dump(result, out)
    line = {"setup_s": t1 - t0, "wall_s": t2 - t1, "peak_rss_mb": peak_rss_mb,
            "raised": raised}
    if tracer is not None:
        from tracing import layer_metrics
        tracer.save(f"{out}/spans.npz")
        line["layers"] = layer_metrics(tracer.names, tracer.arrays())
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
