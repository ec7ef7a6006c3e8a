"""Workload and metric names of the benchmark, and how each is computed.

BENCHMARK.json lists the same names; `run.py --selftest` checks that they
agree.
"""

from __future__ import annotations

import statistics

WORKLOADS = ("bar-random", "sweedler-product", "cobar-hom-qq", "readme-cli")

# Measured with tracing off.  Bounds are shares of the parent's median.
#
# Timings are scaled to the reference host's speed.  Each job's latency is
# the fastest of its samples, and setup_s the median of the run's set-up
# samples; both are spread over the whole run.  The host (a shared 2-core
# VM) slows by ±20% from one second to the next, and interference only adds
# time.  It also has slow phases that last minutes, in which every sample
# of a 28 s run is 30-90% slower.  A fixed pure-Python probe, timed after
# each pass, shows those phases: job timings are multiplied by host_scale,
# PROBE_REF_S over the run's fastest probe.  Set-up is mostly process start,
# which those phases move less, so setup_s is multiplied by start_scale,
# START_REF_S over the median time of a bare interpreter start taken next
# to each set-up sample.  Neither reference runs sweedler code, so a change
# to the program moves the timings and not the scales.  perfbench/README.md
# gives the spreads, scaled and unscaled.
PROBE_REF_S = 0.055    # the host probe's fastest time on the reference host
START_REF_S = 0.050    # a bare interpreter start's median time there

END_TO_END = {
    "wall_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "job_p50_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "job_p90_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "peak_rss_mb": {"unit": "MB", "better": "lower", "bound": 0.15},
    "setup_s": {"unit": "s", "better": "lower", "bound": 0.25},
}

# Per-layer metrics of the spans that tracer.py records.  kernel_basis and
# solve_membership are traced too, but no workload reaches them.

_SPAN_METRICS = {
    "graded.tensor_space": ("calls", "self_s", "labels"),
    "coalgebras.tensor_coalgebra": ("self_s",),
    "coalgebras.coextend_coderivation": ("calls", "self_s"),
    "coalgebras.coshuffle_comult": ("self_s",),
    "algebras.normal_forms": ("calls", "self_s"),
    "algebras.free_word_space": ("self_s", "words"),
    "algebras.extend_derivation": ("calls", "self_s"),
    "linalg.RowSpace.add": ("calls", "self_s", "zero", "kept_ratio"),
    "linalg.RowSpace.reduce": ("calls", "self_s"),
    "linalg.rank_of_columns": ("calls", "self_s"),
    "complexes.homology": ("calls", "self_s"),
    "complexes.check_square_zero": ("calls", "self_s"),
    "barcobar.bar": ("self_s",),
    "barcobar.cobar": ("self_s",),
    "barcobar.anticommutator_issues": ("self_s",),
    "barcobar.bialgebra_compat_issues": ("self_s",),
    "sweedler_ops.sweedler_product": ("self_s",),
    "sweedler_ops.example_construction": ("self_s",),
    "sweedler_ops.verify_measuring": ("self_s",),
    "presets.load_preset": ("self_s",),
    "presentation.PresentationFile.build": ("self_s",),
    "presentation.parse_text": ("self_s",),
    "cli.main": ("calls", "self_s", "total_s"),
    "job": ("self_s",),
    "graded.GradedSpace.add": ("calls",),
    "scalars.Field.add": ("calls",),
    "scalars.Field.mul": ("calls",),
    "scalars.Field.inv": ("calls",),
}

_UNITS = {"calls": "count", "labels": "count", "words": "count",
          "zero": "count", "kept_ratio": "ratio", "self_s": "s",
          "total_s": "s"}

# Measured with tracing on, per traced pass (median over the run's passes).
PER_LAYER = {f"{b}.{f}": {"unit": _UNITS[f], "better":
                          "higher" if f == "kept_ratio" else "lower"}
             for b, fields in _SPAN_METRICS.items() for f in fields}
PER_LAYER.update({
    "import.sweedler_s": {"unit": "s", "better": "lower"},
    "trace.raised": {"unit": "count", "better": "lower"},
    "trace.wall_s": {"unit": "s", "better": "lower"},
    "trace.self_sum_s": {"unit": "s", "better": "lower"},
    "trace.overhead_s": {"unit": "s", "better": "lower"},
})

# Top-level self times must add up to the traced pass time within this share.
TRACE_TOLERANCE = 0.02

# Boundaries a traced run of each workload must reach: the entry points its
# jobs call and the layers its reason to exist names (the "exercised by"
# column of perfbench/README.md's layer map).  A boundary the tracer no
# longer wraps, or that a change bypasses, then fails the run instead of
# reading 0, and the layer map is due for an update.
EXERCISED = {
    "bar-random": ("algebras.normal_forms", "barcobar.bar",
                   "graded.tensor_space", "complexes.check_square_zero",
                   "barcobar.anticommutator_issues", "complexes.homology"),
    "sweedler-product": ("presets.load_preset",
                         "sweedler_ops.example_construction",
                         "sweedler_ops.sweedler_product",
                         "algebras.normal_forms", "linalg.RowSpace.add"),
    "cobar-hom-qq": ("barcobar.cobar", "algebras.extend_derivation",
                     "linalg.RowSpace.add", "complexes.check_square_zero",
                     "complexes.homology"),
    "readme-cli": ("cli.main", "presets.load_preset",
                   "presentation.parse_text",
                   "presentation.PresentationFile.build"),
}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def host_scale(result: dict) -> float:
    """PROBE_REF_S over the run's fastest host probe: below 1 in a run where
    the host never ran as fast as the reference host at its fastest."""
    return PROBE_REF_S / min(result["probes"])


def start_scale(result: dict) -> float:
    """START_REF_S over the run's median bare interpreter start."""
    return START_REF_S / statistics.median(result["bare_starts"])


def raw_timings(result: dict) -> dict:
    """The timing metrics as measured, before host_scale and start_scale."""
    best = [min(lat) for lat in result["latencies"] if lat]
    return {
        "wall_s": sum(best),
        "job_p50_s": statistics.median(best),
        "job_p90_s": statistics.quantiles(best, n=10, method="inclusive")[8],
        "setup_s": statistics.median(result["setup_samples"]),
    }


def end_to_end_metrics(result: dict) -> dict:
    raw = raw_timings(result)
    values = {name: raw[name] * host_scale(result)
              for name in ("wall_s", "job_p50_s", "job_p90_s")}
    values["setup_s"] = raw["setup_s"] * start_scale(result)
    values["peak_rss_mb"] = result["peak_rss_kb"] / 1024
    return {name: _metric(values[name], spec["unit"])
            for name, spec in END_TO_END.items()}


def _layer_value(name: str, table: dict):
    if name == "trace.raised":
        return sum(row.get("raised", 0) for row in table.values())
    if name == "trace.self_sum_s":
        return table_self_sum(table)
    boundary, field = name.rsplit(".", 1)
    row = table[boundary]
    if field == "kept_ratio":
        calls = row["calls"]
        return (calls - row["zero"]) / calls if calls else 0.0
    return row[field]


def table_self_sum(table: dict) -> float:
    return sum(row.get("self_s", 0.0) for row in table.values())


def per_layer_metrics(result: dict) -> dict:
    tables, traced = result["tables"], result["traced_walls"]
    plain = result["plain_walls"]
    special = {
        "import.sweedler_s": result["import_s"],
        "trace.wall_s": statistics.median(traced),
        # best-of, like wall_s: host drift between passes exceeds the cost
        "trace.overhead_s": min(traced) - min(plain),
    }
    out = {}
    for name, spec in PER_LAYER.items():
        if name in special:
            value = special[name]
        else:
            value = statistics.median(_layer_value(name, t) for t in tables)
        out[name] = _metric(value, spec["unit"])
    return out


def trace_consistency(result: dict) -> tuple[bool, str]:
    """Self times of all spans must add up to each traced pass's wall time.

    Summed over all spans, self times collapse to the durations of the
    top-level job spans, so this bounds the time a pass spends between jobs
    (the loop's own overhead); it cannot see a wrong nesting.
    """
    worst = 0.0
    for table, wall in zip(result["tables"], result["traced_walls"]):
        worst = max(worst, abs(table_self_sum(table) - wall) / wall)
    ok = worst <= TRACE_TOLERANCE
    return ok, (f"{'ok' if ok else 'FAILED'}: self-time sum within "
                f"{worst:.2%} of traced wall_s (tolerance "
                f"{TRACE_TOLERANCE:.0%})")


def unreached(workload: str, result: dict) -> list[str]:
    """EXERCISED boundaries of the workload that a traced pass never called."""
    return sorted({name for table in result["tables"]
                   for name in EXERCISED[workload]
                   if table[name]["calls"] == 0})
