"""Checks of the benchmark itself, and the recorder of expected.json.

    python3 perfbench/run.py --selftest   # from the checkout root
    python3 perfbench/run.py --record     # rewrite perfbench/expected.json

The self-test checks that:
- the copied generators reproduce the test-suite inputs at the default
  seeds (B A total dims 2801, 341, 452, 733, 2007 for seed 42; Ω C total
  dims 63, 351, 19576, 9096, 5843 for seed 43);
- BENCHMARK.json names exactly the metrics the code reports;
- every boundary a workload must reach when traced is one the tracer wraps;
- expected.json holds every job any seed can draw;
- one corrupted expected value makes a run report a failed job;
- the per-job guard turns a hang and a blow-up into failed jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import tempfile

import metrics
import run
import tracer
import workloads
from sweedler import algebras, barcobar
from sweedler.scalars import QQ

BAR_DIMS_SEED_42 = [2801, 341, 452, 733, 2007]
COBAR_DIMS_SEED_43 = [63, 351, 19576, 9096, 5843]
TEST_BAR_TRUNC = workloads.BAR_TRUNC               # test_barcobar.py windows
TEST_COBAR_TRUNC = workloads.graded.Truncation(-6, 6, 5)
HANG_COMMAND = "bar --preset free-algebra:x=1,y=1 --trunc -1:8:5"


def check(results: list, name: str, ok: bool, detail: str = "") -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f"  [{detail}]" if detail
                                                  else ""))


def generated_bar_dims(seed: int) -> list[int]:
    rng = random.Random(seed)
    out = []
    for k in range(5):
        A = workloads.build_algebra(QQ, workloads.draw_algebra(rng), k,
                                    TEST_BAR_TRUNC)
        sA = [(barcobar.s_label(a), A.space.degree_of(a) + 1)
              for a in A.reduced_basis()]
        out.append(algebras.free_word_space(QQ, sA, TEST_BAR_TRUNC)
                   .total_dim())
    return out


def generated_cobar_dims(seed: int) -> list[int]:
    rng = random.Random(seed)
    out = []
    for k in range(5):
        C = workloads.build_coalgebra(QQ, workloads.draw_coalgebra(rng), k,
                                      TEST_COBAR_TRUNC)
        s_inv = [(barcobar.s_inv_label(x), C.space.degree_of(x) - 1)
                 for x in C.space.labels() if x != C.atom]
        out.append(algebras.free_word_space(QQ, s_inv, TEST_COBAR_TRUNC)
                   .total_dim())
    return out


def benchmark_json_names(root: str) -> tuple[set, set]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def corrupted_run(root: str) -> dict:
    """A short sweedler-product run against one corrupted expected value."""
    with open(workloads.EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    key = "diagonal-coalgebra:2 > dual-numbers -6:6:4"
    dims = expected["sweedler-product"][key]["dims"]
    first = sorted(dims)[0]
    dims[first] += 1
    with tempfile.TemporaryDirectory(dir=os.path.dirname(
            workloads.EXPECTED_PATH)) as tmp:
        path = os.path.join(tmp, "expected.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(expected, fh)
        args = argparse.Namespace(workload="sweedler-product", seed=1,
                                  seconds=1, trace=0)
        return run.run_workload(args, root, expected=path)


def guard_failures() -> list[str]:
    """Run a hanging CLI job, a hanging library job and a blow-up under the
    worker's guard; returns the failure reasons it recorded."""
    import worker
    signal.signal(signal.SIGALRM, worker._on_alarm)
    spec = workloads.draw_algebra(random.Random(42))   # B A: 7.7 M labels
    big_bar = workloads.Job("seed-42 algebra 0",
                            lambda: workloads.bar_job(spec, 0))
    args = argparse.Namespace(seconds=1, trace=0)
    worker.JOB_TIMEOUT_S = 2.0
    runner = worker.Runner(args, workloads.Prepared([], {}), {})
    runner.run_job(workloads.Job(HANG_COMMAND, None, HANG_COMMAND.split()))
    runner.run_job(big_bar)
    worker.JOB_TIMEOUT_S = 120.0
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm", encoding="utf-8") as fh:
        used = int(fh.read().split()[0]) * resource.getpagesize()
    resource.setrlimit(resource.RLIMIT_AS, (used + (128 << 20), hard))
    try:
        runner.run_job(big_bar)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    return runner.failures


def main(root: str) -> int:
    results: list[bool] = []
    got = generated_bar_dims(42)
    check(results, "seed 42 reproduces the bar test inputs",
          got == BAR_DIMS_SEED_42, f"B A dims {got}")
    got = generated_cobar_dims(43)
    check(results, "seed 43 reproduces the cobar test inputs",
          got == COBAR_DIMS_SEED_43, f"Ω C dims {got}")

    e2e, layers = benchmark_json_names(root)
    for kind, named, coded in (("end_to_end", e2e, metrics.END_TO_END),
                               ("per_layer", layers, metrics.PER_LAYER)):
        diff = sorted(named ^ set(coded))
        check(results, f"BENCHMARK.json {kind} names match the code",
              not diff, f"differ: {diff}" if diff else "")

    wrapped = set(tracer.Tracer().names) | {f"{m}.{a}"
                                            for m, a in tracer.COUNTED}
    unknown = sorted({b for bs in metrics.EXERCISED.values() for b in bs}
                     - wrapped)
    check(results, "every exercised boundary is traced", not unknown,
          f"not traced: {unknown}" if unknown else "")

    with open(workloads.EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    for name in metrics.WORKLOADS:
        missing = [j.key for j in workloads.recordable_jobs(name)
                   if j.key not in expected.get(name, {})]
        check(results, f"expected.json covers every {name} job",
              not missing, f"missing {missing[:3]}" if missing else "")

    res = corrupted_run(root)
    check(results, "a corrupted expected value fails its job",
          res["failed"] >= 1 and all("dual-numbers -6:6:4" in f
                                     for f in res["failures"]),
          f"{res['failed']}/{res['attempted']} failed")

    reasons = guard_failures()
    check(results, "guard: a hanging CLI command is a timed-out job",
          len(reasons) > 0 and reasons[0].endswith("timeout"), reasons[0])
    check(results, "guard: a hanging library job is a timed-out job",
          len(reasons) > 1 and reasons[1].endswith("timeout"), reasons[1])
    check(results, "guard: a blow-up past the address-space cap is a "
          "failed job", len(reasons) > 2 and reasons[2].endswith("memory cap"),
          reasons[2] if len(reasons) > 2 else "")
    print("selftest:", "PASS" if all(results) else "FAIL")
    return 0 if all(results) else 1


def record(root: str) -> int:
    """Rewrite expected.json with the digests of the current code."""
    import worker
    signal.signal(signal.SIGALRM, worker._on_alarm)
    out = {}
    for name in metrics.WORKLOADS:
        runner = worker.Runner(argparse.Namespace(seconds=0, trace=0),
                               workloads.Prepared([], {}), {})
        runner.hard_stop = float("inf")
        out[name] = {job.key: runner.call(job)
                     for job in workloads.recordable_jobs(name)}
        print(f"recorded {len(out[name])} {name} jobs", flush=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    return 0
