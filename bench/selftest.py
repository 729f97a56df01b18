"""Self-test of the benchmark, on very short runs.

    python3 bench/selftest.py

Checks that ``BENCHMARK.json`` matches ``bench/spec.py`` and keeps the format
rules, that every run prints every declared metric with its unit for every
workload, traced and untraced, and that corrupting results makes the checker
count them as failed.  Rounds are cut to their first three tasks so the whole
test takes well under a minute.
"""

import contextlib
import dataclasses
import io
import json
import os
import re
import sys
import tempfile

import run
import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TASKS_PER_ROUND = 3


def check_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        written = json.load(fh)
    assert written == spec.benchmark_json(), "BENCHMARK.json is stale"
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16 and 1 <= len(spec.PER_LAYER) <= 128
    names = [w["name"] for w in spec.WORKLOADS]
    names += [m["name"] for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec.WORKLOADS)
    for m in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec.END_TO_END)
    setup = next(m for m in spec.END_TO_END if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec.END_TO_END)


def _shorten(workload_cls):
    original = workload_cls.round

    def short_round(self, index):
        return original(self, index)[:TASKS_PER_ROUND]

    workload_cls.round = short_round
    return original


def check_run_output(name, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                           "--trace", str(trace)])
    assert status == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["correct"] is True
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(result["metrics"]) == {m["name"] for m in declared}, name
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (name, m["name"])
        assert isinstance(got["value"], (int, float)), (name, m["name"])


def _corrupt(value):
    """A wrong version of any workload's op output."""
    if isinstance(value, tuple):  # (status, text) of a CLI request
        status, text = value
        return status, text[:-1] + ("0" if text[-1:] != "0" else "1")
    if isinstance(value, float):  # error of a numeric check
        return value + 1.0
    # Sweep report: one route disagrees, while ``passed`` still says True.
    return dataclasses.replace(value, via_laplacian=value.via_laplacian + 1)


def fail_frac(workload):
    tally = run.measure(workload, 0, trace=False)[0]
    return tally.failed / tally.attempted


def corrupted(workload):
    """The workload with the output of every op made wrong after it ran."""
    original = workload.round

    def corrupted_round(index):
        tasks = original(index)
        for task in tasks:
            task.run = _corrupting(task.run)
        return tasks

    workload.round = corrupted_round
    return workload


def _corrupting(task_run):
    def corrupted_run(live):
        ops = task_run(live)
        for op in ops:
            if op.error is None:
                op.value = _corrupt(op.value)
        return ops

    return corrupted_run


def main():
    check_spec()
    sys.path.insert(0, run.SRC)
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        original = _shorten(cls)
        try:
            for trace in (0, 1):
                check_run_output(name, trace)
            with tempfile.TemporaryDirectory(prefix=".bench_tmp-",
                                             dir=run.ROOT) as workdir:
                clean = fail_frac(workloads.build(name, 7, workdir))
                bad = fail_frac(corrupted(workloads.build(name, 7, workdir)))
            assert bad > clean, (name, clean, bad)
        finally:
            cls.round = original
        print(f"{name}: ok (fail_frac {clean:.3f}, corrupted {bad:.3f})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
