"""Benchmark of hyperdecide's effort sweeps and basin probes.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The inputs are made from the seed and written
before any timed round. Each round runs in a fresh interpreter with BLAS and
OpenMP pinned to one thread (worker.py). With ``--trace 0`` each full round
follows two set-up-only rounds (the first of a fresh checkout compiles the
package's bytecode), and full rounds repeat until about S seconds have
passed (at least two); the end-to-end metrics are medians over the full
rounds, over every set-up for setup_s. With ``--trace 1`` the run makes
three full rounds and no set-up-only ones, whatever S is: one untraced, one
traced for timings and counts, and one traced with tracemalloc for memory
peaks; the counts of the two traced rounds must agree. On sweep-inst5 that
takes about 45 s, longer than an untraced run of S = 40.
Every round's outputs are checked against reference.py. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
from checks import check_basin, check_sweep
from reference import Reference, write_instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUND_TIMEOUT_S = 170
SETUPS_PER_ROUND = 2

WORKLOADS = {
    "sweep-inst5": {"kind": "sweep", "instance": "inst5", "grid": [0.005, 5.0, 0.005]},
    "sweep-n120-mixed": {"kind": "sweep", "instance": "n120", "grid": [0.25, 5.0, 0.25]},
    "basin-inst5": {"kind": "basin", "instance": "inst5", "pi": 1.7,
                    "radii": [0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.8, 1.2, 1.8, 2.5, 3.5, 5.0],
                    "starts": 12, "start_norm": 10.0},
}


def grid_of(spec) -> np.ndarray:
    lo, hi, step = spec["grid"]
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


def make_inputs(name: str, seed: int, out: Path) -> tuple[dict, Reference]:
    """Write the relabelled instance and the round spec; return the spec
    and the reference built from the same instance text."""
    spec = dict(WORKLOADS[name])
    a2, b = inputs.inst5() if spec["instance"] == "inst5" else inputs.mixed_instance()
    perm = inputs.relabelling(a2.shape[0], seed)
    text = write_instance(*inputs.relabel(a2, b, perm))
    path = out / "instance.txt"
    path.write_text(text)
    spec["instance"] = str(path)
    if spec["kind"] == "basin":
        spec["starts"] = inputs.basin_starts(a2.shape[0], spec["starts"],
                                             spec.pop("start_norm"), perm).tolist()
    (out / "spec.json").write_text(json.dumps(spec))
    return spec, Reference.from_text(text)


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def worker(out: Path, rdir: Path, mode: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(out / "spec.json"), str(rdir), mode],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} round in {rdir} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def full_round(out: Path, rounds: list, mode: str) -> None:
    rdir = out / f"round-{len(rounds)}"
    rdir.mkdir()
    rounds.append(dict(worker(out, rdir, mode), dir=rdir))


def check_rounds(spec: dict, ref: Reference, rounds: list) -> tuple[int, int, list]:
    """Attempted and failed operations over all rounds, and problems."""
    problems: list[str] = []
    failed = 0
    if spec["kind"] == "sweep":
        grid = grid_of(spec)
        per_round = grid.size
        seen: dict[str, int] = {}
        for r in rounds:
            if r["raised"]:
                failed += per_round
                continue
            text = (r["dir"] / "diagram.csv").read_text()
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest not in seen:
                summary = json.loads((r["dir"] / "sweep.json").read_text())
                bad, found = check_sweep(ref, text, summary, grid)
                seen[digest] = len(bad)
                problems += found
            failed += seen[digest]
        if len(seen) > 1:
            problems.append(f"diagram CSV bytes differ across {len(seen)} rounds")
    else:
        per_round = len(spec["radii"]) + len(spec["starts"])
        for r in rounds:
            if r["raised"]:
                failed += per_round
                continue
            with np.load(r["dir"] / "basin.npz") as dump:
                bad, found = check_basin(ref, dict(dump), spec)
            failed += len(bad)
            problems += found
    return per_round * len(rounds), failed, sorted(set(problems))


def end_to_end(rounds: list, setups: list) -> dict:
    return {"wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds)}


def per_layer(rounds: list, problems: list) -> dict:
    plain, timed, memory = rounds
    counts = {k for k, v in timed["layers"].items() if isinstance(v, int)}
    counts.add("equilibria.newton.found_per_run")
    for k in sorted(counts):
        if timed["layers"][k] != memory["layers"][k]:
            problems.append(f"count {k} differs between traced rounds: "
                            f"{timed['layers'][k]} vs {memory['layers'][k]}")
    metrics = dict(timed["layers"])
    for k in ("hypergraph.from_text.peak_mb", "dynamics.integrate.peak_mb"):
        metrics[k] = memory["layers"][k]
    metrics["trace.overhead_s"] = timed["wall_s"] - plain["wall_s"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hyperdecide" / "__init__.py").is_file():
        raise SystemExit(f"no hyperdecide sources under {ROOT / 'src'}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec, ref = make_inputs(args.workload, args.seed, out)

    setups: list[float] = []
    rounds: list[dict] = []
    if args.trace:
        for mode in ("plain", "trace", "trace-memory"):
            full_round(out, rounds, mode)
    else:
        start, longest = time.perf_counter(), 0.0
        while True:
            began = time.perf_counter()
            # Set-up-only rounds before each full round spread the set-ups
            # over the run, so they sample the machine where the full rounds do.
            setups += [worker(out, out, "setup")["setup_s"] for _ in range(SETUPS_PER_ROUND)]
            full_round(out, rounds, "plain")
            longest = max(longest, time.perf_counter() - began)
            if len(rounds) >= 2 and time.perf_counter() - start + longest > args.seconds:
                break

    attempted, failed, problems = check_rounds(spec, ref, rounds)
    values = per_layer(rounds, problems) if args.trace else end_to_end(rounds, setups)
    for i, r in enumerate(rounds):
        print(f"round {i}: setup_s={r['setup_s']:.6f} wall_s={r['wall_s']:.6f} "
              f"peak_rss_mb={r['peak_rss_mb']:.3f}"
              + (f" raised {r['raised']}" if r["raised"] else ""))
    for p in problems:
        print(f"problem: {p}")
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    (out / "result.json").write_text(json.dumps({
        "result": result, "problems": problems, "setups": setups,
        "rounds": [{k: v for k, v in r.items() if k != "dir"} for r in rounds]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
