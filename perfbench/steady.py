"""Steadiness check: two sets of ten runs, each metric's spread against its bound.

    python3 perfbench/steady.py

Each set runs every workload in BENCHMARK.json once per seed (seeds
1..10), one run at a time, with the run length from BENCHMARK.json.  For
every end-to-end metric it prints the median and the spread, the distance
between the first and third quartile as a share of the median, against the
metric's bound, and how far the second set's median moved from the first
in the worse direction.  It checks that the share of failed operations is
identical in every run of a workload.  Results go to perfbench/out/.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["end_to_end"]
    results: dict = {}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for seed in range(1, RUNS + 1):
                t0 = time.perf_counter()
                out = run_once(workload, seed, bench["run_seconds"])
                print(f"{workload} set {s} seed {seed}: {time.perf_counter() - t0:.1f} s wall, "
                      + ", ".join(f"{k} {v['value']:.4g}" for k, v in out["metrics"].items())
                      + f", failed {out['failed']}/{out['attempted']}", flush=True)
                steady &= out["correct"]
                runs.append(out)
            sets.append(runs)
        results[workload] = sets
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) > 1:
            steady = False
        print(f"{workload}: failed share {sorted(shares)}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                sp = spread(values)
                medians.append(statistics.median(values))
                verdict = ("within a third" if sp <= bound / 3 else "within" if sp <= bound
                           else "OVER")
                steady &= sp <= bound
                print(f"  {name:16s} set {s}: median {medians[-1]:.5g} {m['unit']}, "
                      f"spread {sp:.4f}, {verdict} the bound {bound}")
            worse = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            ok = worse <= bound
            steady &= ok
            print(f"  {name:16s} second median worse by {worse:+.4f} "
                  f"(bound {bound}, {'ok' if ok else 'OVER'})")
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"{'steady' if steady else 'NOT steady'}; runs written to {path.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
