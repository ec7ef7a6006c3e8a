"""Benchmark child: prepares one workload's jobs and runs them in passes.

Started by run.py in a fresh interpreter, with `src` on PYTHONPATH and an
address-space cap that the processes it starts inherit.  It prints `ready`
once the import and input generation are done, then runs whole passes over
the job list (a closed loop: one job at a time, back to back) until the time
is spent, and prints one JSON object with its measurements as its last line.
After each untraced pass it times one set-up-only copy of itself, from start
to `ready`, while it waits for it, then a bare interpreter start, and then a
host probe in its own process.

Each job runs under a wall-clock timeout.  A job fails on an exception, a
digest that differs from expected.json, a timeout or a memory error; a
failed job is counted and the run goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction

T0 = time.perf_counter()
import sweedler  # noqa: E402  (timed: the import is part of set-up)
import sweedler.cli  # noqa: E402
IMPORT_S = time.perf_counter() - T0

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from metrics import WORKLOADS  # noqa: E402

JOB_TIMEOUT_S = 30.0
GRACE_S = 60.0          # a run stops starting jobs this long after its end
MAX_FAILURES_SHOWN = 5


def setup_sample(args) -> tuple[float, float]:
    """Seconds from starting a fresh set-up-only worker to its `ready`, and
    then seconds for a bare interpreter start (BARE_START) right after."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        raise RuntimeError(f"set-up sample did not start: {line.strip()!r}")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", BARE_START], check=True)
    return ready_s, time.perf_counter() - t0


# Interpreter start with a few standard imports and no sweedler code: the
# reference that set-up samples are scaled by.
BARE_START = "import argparse, fractions, json"


def host_probe() -> float:
    """Seconds for a fixed pure-Python task shaped like the kernel, about
    50 ms: a tensor-like dict of 48,400 pair labels, then sparse elimination
    over exact fractions.  Its fastest time over a run gauges how fast the
    host ran in that run.  It runs no sweedler code."""
    gc.disable()   # collections would scan the worker's heap as well
    try:
        return _probe_task()
    finally:
        gc.enable()


def _probe_task() -> float:
    t0 = time.perf_counter()
    words = [("w", i) for i in range(220)]
    labels = {(x, y): n for n, (x, y) in
              enumerate((x, y) for x in words for y in words)}
    pivots: dict = {}
    for r in range(120):
        row = {c: Fraction((r * 7 + c * 3) % 11 - 5, (r + c) % 5 + 1)
               for c in range(r % 7, 160, 5)}
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                break
            pivot = pivots[c]
            f = row[c] / pivot[c]
            for k, v in pivot.items():
                new = row.get(k, 0) - f * v
                if new:
                    row[k] = new
                else:
                    row.pop(k, None)
    del labels
    return time.perf_counter() - t0


# `python -m sweedler.cli` that writes its peak RSS to stderr at exit.
# VmHWM counts from exec; ru_maxrss would also count the pages of the
# worker that the process was forked from.
CLI_MAIN = """\
import atexit, runpy, sys
def _peak_rss():
    with open("/proc/self/status") as fh:
        sys.stderr.write("".join(l for l in fh if l.startswith("VmHWM:")))
atexit.register(_peak_rss)
runpy.run_module("sweedler.cli", run_name="__main__", alter_sys=True)
"""


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout("job timed out")


class Runner:
    def __init__(self, args, prepared, expected):
        self.args = args
        self.jobs = prepared.jobs
        self.expected = expected
        self.in_process_cli = args.trace == 1
        self.deadline = time.perf_counter() + args.seconds
        self.hard_stop = self.deadline + GRACE_S
        self.attempted = 0
        self.cli_rss_kb = 0
        self.peak_rss_kb = 0        # of this process, over the first pass
        self.failures: list[str] = []
        self.latencies: list[list[float]] = [[] for _ in self.jobs]

    # -- one job ------------------------------------------------------------------
    def _timeout(self) -> float:
        left = self.hard_stop - time.perf_counter()
        return max(0.1, min(JOB_TIMEOUT_S, left))

    def _cli_subprocess(self, job) -> dict:
        # run_job's timer bounds the wait
        proc = subprocess.Popen([sys.executable, "-c", CLI_MAIN, *job.argv],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate()
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        for line in err.splitlines():
            if line.startswith("VmHWM:"):
                self.cli_rss_kb = max(self.cli_rss_kb, int(line.split()[1]))
        return workloads.cli_digest(proc.returncode, out)

    def _cli_in_process(self, job) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = sweedler.cli.main(job.argv)
        return workloads.cli_digest(code, out.getvalue())

    def call(self, job) -> dict:
        """Run one job; returns its digest."""
        if job.argv is None:
            return job.run()
        if self.in_process_cli:
            return self._cli_in_process(job)
        return self._cli_subprocess(job)

    def run_job(self, job, tracer=None) -> float:
        """Run, time and check one job; returns its latency in seconds."""
        self.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, self._timeout())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                digest = self.call(job)
            else:
                digest = tracer.run_root(lambda: self.call(job))
            latency = time.perf_counter() - t0
        except JobTimeout:
            return self._fail(job, "timeout", t0)
        except MemoryError:
            return self._fail(job, "memory cap", t0)
        except Exception as exc:  # a failed job must not end the run
            return self._fail(job, f"{type(exc).__name__}: {exc}", t0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        want = self.expected.get(job.key)
        if digest != want:
            self.failures.append(f"{job.key}: got {json.dumps(digest)}, "
                                 f"expected {json.dumps(want)}")
        return latency

    def _fail(self, job, reason: str, t0: float) -> float:
        self.failures.append(f"{job.key}: {reason}")
        return time.perf_counter() - t0

    # -- passes -------------------------------------------------------------------
    def run_pass(self, tracer=None) -> float:
        t0 = time.perf_counter()
        for job, latencies in zip(self.jobs, self.latencies):
            if time.perf_counter() > self.hard_stop:
                self.attempted += 1
                self.failures.append(f"{job.key}: run budget exhausted")
                continue
            latency = self.run_job(job, tracer)
            if tracer is None:
                latencies.append(latency)
        return time.perf_counter() - t0

    def _time_left_for(self, pass_s: float) -> bool:
        # start another pass if it ends nearer the deadline than stopping now
        return time.perf_counter() + pass_s / 2 <= self.deadline

    def run_untraced(self) -> tuple[list[float], list[tuple], list[float]]:
        """Passes, each followed by a set-up sample and a host probe;
        returns the pass times, the set-up samples and the probe times.

        The samples are spread over the run like the passes, so that their
        fastest, like each job's, falls in a quiet stretch of the host.  The
        probes run in this process, next to the jobs, and only after the
        first pass has set peak_rss_kb, so that their memory does not count.
        """
        walls, setups, probes = [], [], []
        while True:
            walls.append(self.run_pass())
            if len(walls) == 1:
                self.peak_rss_kb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss
            setups.append(setup_sample(self.args))
            probes.append(host_probe())
            if not self._time_left_for(walls[-1]):
                return walls, setups, probes

    def run_traced(self) -> tuple[list[float], list[float], list[dict]]:
        """Alternate untraced and traced passes; at least one of each."""
        tr = tracing.Tracer()
        plain, traced, tables = [], [], []
        while True:
            plain.append(self.run_pass())
            tr.install()
            try:
                traced.append(self.run_pass(tr))
            finally:
                tr.uninstall()
            tables.append(tr.collect())
            if not self._time_left_for(plain[-1] + traced[-1]):
                return plain, traced, tables


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--expected", default=workloads.EXPECTED_PATH)
    args = ap.parse_args(argv)

    prepared = workloads.prepare(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]

    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(args, prepared, expected)
    result = {"import_s": IMPORT_S, "sizes": prepared.sizes}
    if args.trace:
        plain, traced, tables = runner.run_traced()
        result.update(plain_walls=plain, traced_walls=traced, tables=tables)
    else:
        result["walls"], setups, result["probes"] = runner.run_untraced()
        result["setup_samples"] = [ready for ready, _ in setups]
        result["bare_starts"] = [bare for _, bare in setups]
    result.update(
        latencies=runner.latencies, attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures[:MAX_FAILURES_SHOWN],
        # the process that runs the jobs: CLI jobs run in children
        peak_rss_kb=runner.cli_rss_kb if args.workload == "readme-cli"
        else runner.peak_rss_kb)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
