"""Agreement check: run the same code as two sets of seeded runs and compare.

    python3 benchmarks/agree.py

Run from the repository root. Each of two sets runs run.py on every
workload of BENCHMARK.json with seeds 1..10 (run_seconds from
BENCHMARK.json), then one traced run per workload (seed 1); set 2 starts
after set 1 ends. For every workload and end-to-end metric it prints each
set's median, quartiles and spread (quartile distance over median, from
``statistics.quantiles(n=4)``), the change of set 2's median from set 1's,
and the bound. Agreement fails when any spread exceeds its metric's bound,
when the change exceeds the bound in either direction, when a run is
incorrect, when the share of failed operations differs between the sets,
or when a count of the traced runs differs. Spreads above a third of the
bound are flagged. The raw figures go to benchmarks/out/agree.json.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]

    raw = {"sets": [], "traced": []}
    for k in range(SETS):
        raw["sets"].append({w: [run(w, seed, seconds, 0) for seed in SEEDS]
                            for w in workloads})
        raw["traced"].append({w: run(w, 1, seconds, 1) for w in workloads})
        print(f"set {k + 1} done", flush=True)

    ok = True
    print(f"{'workload':18} {'metric':12} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'change':>7} {'bound':>5}")
    for w in workloads:
        shares = {Fraction(sum(r["failed"] for r in s[w]), sum(r["attempted"] for r in s[w]))
                  for s in raw["sets"]}
        correct = all(r["correct"] for s in raw["sets"] for r in s[w])
        if len(shares) != 1 or not correct:
            ok = False
        for m in declared["end_to_end"]:
            first = None
            for k, s in enumerate(raw["sets"]):
                st = summary([r["metrics"][m["name"]]["value"] for r in s[w]])
                first = first or st["median"]
                change = st["median"] / first - 1.0
                flags = []
                if st["spread"] > m["bound"]:
                    flags.append("SPREAD")
                elif st["spread"] > m["bound"] / 3:
                    flags.append("wide")
                if abs(change) > m["bound"]:
                    flags.append("DRIFT")
                ok &= not any(f.isupper() for f in flags)
                print(f"{w:18} {m['name']:12} {k + 1:>3} {st['median']:10.5g} {st['q1']:10.5g} "
                      f"{st['q3']:10.5g} {st['spread']:7.3f} {change:+7.3f} {m['bound']:5.2f} "
                      + " ".join(flags))
        print(f"{w:18} failed share {' '.join(map(str, shares))} correct={correct}")

    for w in workloads:
        first = raw["traced"][0][w]["metrics"]
        counts = [m["name"] for m in declared["per_layer"]
                  if m["unit"] in ("count", "B", "eq/run")]
        differ = [c for c in counts
                  if any(t[w]["metrics"][c]["value"] != first[c]["value"]
                         for t in raw["traced"][1:])]
        ok &= not differ and all(t[w]["correct"] for t in raw["traced"])
        print(f"{w:18} traced counts {'differ: ' + ', '.join(differ) if differ else 'repeat'}"
              f"; trace.overhead_s "
              + " ".join(f"{t[w]['metrics']['trace.overhead_s']['value']:.3f}"
                         for t in raw["traced"]))

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "agree.json").write_text(json.dumps(raw, indent=1))
    print("agreement", "holds" if ok else "FAILS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
