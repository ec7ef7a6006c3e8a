"""The sweedler benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a sweedler checkout.  Each run starts the workload in
a fresh child interpreter (`perfbench/worker.py`, with `src` on PYTHONPATH
and an address-space cap), one child at a time, and prints human-readable
lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones (see perfbench/README.md).  `--workload all` runs every
workload in turn and prints a table.  `--selftest` checks the benchmark
itself; `--record` rewrites perfbench/expected.json from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import (END_TO_END, WORKLOADS, end_to_end_metrics,  # noqa: E402
                     host_scale, per_layer_metrics, raw_timings, start_scale,
                     trace_consistency, unreached)

AS_LIMIT_MB = 2048          # per child; bar-random at the test size needs 1.2 GB
RUN_GRACE_S = 120           # a worker still running this long after --seconds
                            # is killed


class BenchError(Exception):
    pass


def checkout_root() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sweedler", "__init__.py")):
        raise BenchError(f"{root} is not a sweedler checkout (no src/sweedler)")
    return root


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def environment_stamp(root: str) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    pkg = os.path.join(root, "src", "sweedler")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {"commit": commit, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "src_lines": src_lines}


def worker_cmd(args, expected: str | None = None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if expected:
        cmd += ["--expected", expected]
    return cmd


def _limit_as():
    # inherited by the CLI processes a readme-cli worker starts
    limit = AS_LIMIT_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def start_worker(cmd, root: str):
    """Start a worker and wait until it has set up."""
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                            stdout=subprocess.PIPE, text=True,
                            preexec_fn=_limit_as)
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start: {line.strip()!r}")
    return proc


def run_workload(args, root: str, expected: str | None = None):
    """Run one worker; returns its result."""
    proc = start_worker(worker_cmd(args, expected=expected), root)
    try:
        out, _ = proc.communicate(timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded its time budget and was killed")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def report(args, root: str, result: dict) -> dict:
    """Print the run's details; return the result object of the last line."""
    print("# env " + json.dumps(environment_stamp(root)))
    print(f"# workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    print("# sizes " + json.dumps(result["sizes"]))
    attempted, failed = result["attempted"], result["failed"]
    for line in result["failures"]:
        print(f"# FAILED {line}")
    correct = failed == 0
    if args.trace:
        metrics = per_layer_metrics(result)
        ok, detail = trace_consistency(result)
        print(f"# trace consistency: {detail}")
        missing = unreached(args.workload, result)
        print("# exercised boundaries: " + (
            f"FAILED: no calls to {', '.join(missing)}" if missing else "ok"))
        correct = correct and ok and not missing
        for name, row in sorted(result["tables"][-1].items()):
            print(f"# span {name} " + json.dumps(row))
    else:
        metrics = end_to_end_metrics(result)
        walls = ", ".join(f"{w:.4f}" for w in result["walls"])
        setups = ", ".join(f"{t:.4f}" for t in result["setup_samples"])
        print(f"# pass walls [{walls}] s; {len(result['latencies'])} jobs "
              f"(the job_p50_s/job_p90_s sample count)")
        print(f"# set-up samples [{setups}] s")
        raw = ", ".join(f"{n} {t:.6g}" for n, t in raw_timings(result).items())
        print(f"# as measured: {raw} s; fastest host probe "
              f"{min(result['probes']) * 1e3:.3f} ms of {len(result['probes'])}"
              f", host_scale {host_scale(result):.4f}; median bare start "
              f"{statistics.median(result['bare_starts']) * 1e3:.3f} ms, "
              f"start_scale {start_scale(result):.4f}")
    print(f"# fail_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args, root: str) -> int:
    rows = []
    for name in WORKLOADS:
        args.workload = name
        result = run_workload(args, root)
        m = end_to_end_metrics(result)
        rows.append((name, m, result["failed"] / result["attempted"]))
    print(f"{'workload':18s}" + "".join(f"{n:>16s}" for n in END_TO_END)
          + f"{'fail_ratio':>12s}")
    print(f"{'':18s}" + "".join(f"{END_TO_END[n]['unit']:>16s}"
                               for n in END_TO_END) + f"{'ratio':>12s}")
    for name, m, fail_ratio in rows:
        print(f"{name:18s}" + "".join(f"{m[n]['value']:16.4f}"
                                      for n in END_TO_END)
              + f"{fail_ratio:12.4f}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    try:
        root = checkout_root()
        if args.selftest or args.record:
            os.environ.update(child_env(root))
            sys.path.insert(0, os.path.join(root, "src"))
            import selftest
            return selftest.record(root) if args.record else \
                selftest.main(root)
        if args.workload is None:
            ap.error("--workload is required")
        if args.workload == "all":
            args.trace = 0
            return run_all(args, root)
        out = report(args, root, run_workload(args, root))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
