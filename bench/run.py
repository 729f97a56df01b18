"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-spec     # regenerate BENCHMARK.json

Run from the repository root; the program is imported from ``src/``.  A
run sets up the workload from the seed, then runs as many rounds of it as
fill ``--seconds`` on the reference machine, checking every output.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  ``correct`` is false
when a returned output fails its check; ``failed`` counts those ops and
also every op whose exception escaped the program.  The line before it records details: the failure share,
the tail percentile and its sample count, escaped exception types, and the
environment (cores, versions, BLAS threads, seed, commit).

``--trace 1`` runs half as many rounds, each twice: untraced and then
traced.  It reports the traced rounds' per-layer values together with the
tracing overhead, the ratio of traced to untraced op time minus one.
"""

import time

# Set-up time counts from here, before numpy and opwick are imported.
_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5
MAX_MEASURE_S = 120.0


def _blas_threads() -> int:
    """Cap the BLAS pool at the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(requested), nproc) if requested.isdigit() else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return threads


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def _source_digest():
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "opwick"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _environment(seed, blas_threads):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# -- measuring -----------------------------------------------------------------


class Tally:
    """Outcomes and latencies of the ops of a run."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.wrong = 0
        self.errors = {}

    @property
    def failed(self):
        return self.wrong + sum(self.errors.values())

    def run_round(self, tasks, live):
        """Run and check one round; return its summed op time and op count."""
        busy, count = 0.0, 0
        for task in tasks:
            for op in task.run(live):
                self.attempted += 1
                if op.latency_s is not None:
                    self.latencies.append(op.latency_s)
                    busy += op.latency_s
                    count += 1
                if op.error is not None:
                    self.errors[op.error] = self.errors.get(op.error, 0) + 1
                elif not _passes(task, op.value):
                    self.wrong += 1
        return busy, count


def _passes(task, value):
    try:
        return bool(task.check(value))
    except Exception:
        # An output the checker cannot even read is a wrong output.
        return False


def measure(workload, seconds, trace):
    """Run the rounds that fill ``seconds`` on the reference machine.

    The round count is fixed by ``seconds``, not by the clock, so a faster
    or slower commit does the same work; a run stops early only when it
    passes ``MAX_MEASURE_S``, to end in time on a much slower commit.
    Returns ``(tally, tracer, overhead_frac, rounds)``; the tracer and the
    overhead are None for an untraced run.
    """
    tally = Tally()
    tracer = None
    plain_busy = traced_busy = 0.0
    if trace:
        import tracing

        tracer = tracing.Tracer()
    planned = max(1, round(seconds / workload.round_seconds))
    if tracer is not None:
        # Each traced round is also run untraced; keep the run's length.
        planned = max(1, planned // 2)
    start = time.perf_counter()
    rounds = 0
    while rounds < planned and time.perf_counter() - start < MAX_MEASURE_S:
        busy, _ = tally.run_round(workload.round(rounds), contextlib.nullcontext)
        if tracer is not None:
            plain_busy += busy
            busy, count = tally.run_round(workload.round(rounds), tracer.installed)
            traced_busy += busy
            tracer.ops += count
        rounds += 1
    overhead = traced_busy / plain_busy - 1.0 if tracer is not None else None
    return tally, tracer, overhead, rounds


def tail(latencies):
    """The highest percentile with at least ten samples above it.

    Returns ``(value, percentile, samples)``; with ten samples or fewer the
    maximum stands in.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _setup_sample(args):
    """Set-up time of a fresh process running the same workload and seed."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from bench/spec.py")
    args = parser.parse_args(argv)

    import spec

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2, ensure_ascii=False)
            fh.write("\n")
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(SRC, "opwick")):
        sys.exit(f"no opwick sources under {SRC}")
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds

    blas_threads = _blas_threads()
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as workdir:
        workload = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(repr(setup_s))
            return 0
        tally, tracer, overhead, rounds = measure(workload, seconds, args.trace)

    lat = tally.latencies
    tail_ms, tail_pct, samples = tail(lat)
    tail_ms *= 1e3
    fail_frac = tally.failed / tally.attempted
    if tracer is not None:
        layers = tracer.layer_metrics(overhead)
        metrics = {m["name"]: _metric(layers[m["name"]], m["unit"])
                   for m in spec.PER_LAYER}
    else:
        setups = [setup_s] + [_setup_sample(args)
                              for _ in range(SETUP_SAMPLES - 1)]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail_ms,
            "ok_frac": 1.0 - fail_frac,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
                   for m in spec.END_TO_END}
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "rounds": rounds,
        "fail_frac": fail_frac,
        "wrong": tally.wrong,
        "errors": tally.errors,
        "op_tail": {"percentile": tail_pct, "samples": samples},
        "env": _environment(args.seed, blas_threads),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
