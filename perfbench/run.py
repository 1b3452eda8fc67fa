"""shiftop benchmark: one workload, one seed, whole passes for --seconds.

    python3 perfbench/run.py --workload decide_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process, one caller in a closed loop:
each operation starts when the previous one has returned.  With --trace 0
the last line of standard output is a JSON object with the end-to-end
metrics; with --trace 1 the package is wrapped (perfbench/tracing.py) and
the per-layer metrics are reported instead.  Correctness checks run after
the timed region.  See perfbench/README.md.
"""

import os
import sys
import time

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# One CPU for the whole run: migrations between CPUs doubled the spread of
# interpreter-bound timings on the 2-CPU reference machine.
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 9      # fresh set-up-only processes, timed from spawn
MIN_PASSES = 2
TAIL_MIN_OPS = 40


def import_shiftop() -> float:
    """Import the checkout's own shiftop; return the import time in ms."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import shiftop.cli  # noqa: F401
    import_ms = (time.perf_counter() - t0) * 1e3
    if not Path(shiftop.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"shiftop imported from {shiftop.cli.__file__}, not {src}")
    return import_ms


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples above it."""
    return int(100 * (1 - 10 / n))


def run_passes(workload, seconds: float, tracer=None, between=None):
    """Whole passes until `seconds` have elapsed (and at least MIN_PASSES).

    `between(elapsed)` runs after each pass; its time is left out of the
    timed wall time.
    """
    from workloads import OpTimeout

    def on_alarm(signum, frame):
        raise OpTimeout(f"operation over its {workload.time_limit} s CPU limit")

    signal.signal(signal.SIGPROF, on_alarm)
    passes, latencies, pass_s = [], [], []
    t_first = time.perf_counter()
    paused = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - t_first - paused < seconds:
        t_pass = time.perf_counter()
        outs = []
        for op in workload.ops:
            mark = tracer.mark() if tracer else 0
            t0 = time.perf_counter()
            if workload.time_limit:
                signal.setitimer(signal.ITIMER_PROF, workload.time_limit)
            try:
                out = op.fn()
            except OpTimeout as exc:
                out = exc
                if tracer:
                    tracer.rollback(mark)
            except Exception as exc:  # recorded as a failed operation, run goes on
                traceback.print_exc()
                out = exc
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
            latencies.append(time.perf_counter() - t0)
            outs.append(out)
        passes.append(outs)
        pass_s.append(time.perf_counter() - t_pass)
        if between:
            t_between = time.perf_counter()
            between(t_between - t_first - paused)
            paused += time.perf_counter() - t_between
    wall = time.perf_counter() - t_first - paused
    return wall, passes, latencies, pass_s


def setup_samples(args, count: int) -> list[float]:
    """Set-up time of fresh processes, from spawn until they are ready to run.

    Each child starts the interpreter, imports shiftop and builds the
    workload exactly as a run does, prints one line and exits.
    """
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--setup-only"]
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up child exited {proc.returncode}: {line!r}")
        out.append(ready)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="shiftop benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import_ms = import_shiftop()
    except ImportError as exc:
        print(f"cannot import shiftop from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = BENCH_DIR / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        setup: list[float] = []

        def sample_setup(elapsed: float) -> None:
            # spread the set-up samples over the run, so that they see the
            # same machine as the timed operations
            due = min(SETUP_SAMPLES, int(SETUP_SAMPLES * elapsed / args.seconds))
            setup.extend(setup_samples(args, due - len(setup)))

        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        wall, passes, latencies, pass_s = run_passes(
            workload, args.seconds, tracer, None if args.trace else sample_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    unexpected = []
    for p, outs in enumerate(passes):
        for op, out, good in zip(workload.ops, outs, workload.check(outs, passes[0])):
            attempted += 1
            if not good:
                failed += 1
                if op.fault is None:
                    unexpected.append(f"pass {p} {op.label}: {out!r}"[:300])
    for line in unexpected[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    n = len(latencies)
    print("pass seconds " + " ".join(f"{x:.4f}" for x in pass_s))
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, {n} operations "
          f"({failed} failed), {wall:.3f} s timed, BLAS threads {BLAS_THREADS}, CPU {CPU}")

    if args.trace:
        summary = tracer.summary()
        tracer.write(BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.csv.gz")
        for name in sorted(summary):
            row = summary[name]
            print(f"span {name}: {row['calls']} calls, {row['ms']:.3f} ms, "
                  f"self {row['self_ms']:.3f} ms, amount {row['amount']}")
        metrics = tracing.per_layer(summary, len(passes), import_ms)
    else:
        setup += setup_samples(args, SETUP_SAMPLES - len(setup))
        print("setup seconds " + " ".join(f"{x:.4f}" for x in setup))
        lat_ms = sorted(x * 1e3 for x in latencies)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": n / wall, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        if n >= TAIL_MIN_OPS:
            q = tail_percentile(n)
            tail = statistics.quantiles(lat_ms, n=100, method="inclusive")[q - 1]
            print(f"latency_p{q}_ms {tail:.4f} ms (not gated: see README)")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
