"""Turns the scoreboard runner's raw samples into named metrics.

Pure functions only (no I/O), so test_summary.py can pin the math:

* percentiles are nearest-rank, and the tail rule picks the highest
  percentile that still has at least ten samples beyond it;
* every fraction carries its base, and a fraction of an empty base is 0
  with base 0, never a division error;
* counters the program reports about itself are optional: a missing one
  makes its metric "absent", not an error;
* outcome counting separates what fails a diagnosis (fail_frac) from what
  fails the run (the result line's `failed`);
* a run split over several runner processes pools their samples.
"""

import math

# Outcome names written by the runner (runner/reference.h).
FAILED_OUTCOMES = ("missed", "wrong", "degraded", "refused", "fabricated")
# Counted in fail_frac but not a failed operation: the fuzzer finding nothing
# where the reference says it cannot (the bug needs an injected IRQ).
EXPECTED_MISS = "expected_miss"
CAPPED = "capped"

# The runner keeps this many notes about non-ok answers (runner/workloads.cc).
MAX_NOTES = 8

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10

# Layers that have spans in the traced pass ("diag" is the root).
LAYERS = ("ingest", "fuzz", "trace", "lifs", "ca", "report", "svc")

PER_LAYER = {
    "ingest.ms_per_diag": "ms",
    "ingest.mb_per_s": "MB/s",
    "ingest.time_frac": "frac",
    "report.ms_per_diag": "ms",
    "report.kb_per_diag": "KB",
    "report.time_frac": "frac",
    "lifs.ms_per_diag": "ms",
    "lifs.discovery_ms_per_diag": "ms",
    "lifs.depth_ms_per_diag": "ms",
    "lifs.schedules_per_diag": "count",
    "lifs.schedules_per_s": "1/s",
    "lifs.steps_per_schedule": "count",
    "lifs.pruned_frac": "frac",
    "lifs.time_frac": "frac",
    "hv.steps_per_s": "1/s",
    "hv.enforcer_overhead": "x",
    "hv.retries": "count",
    "sim.steps_per_s": "1/s",
    "ca.ms_per_diag": "ms",
    "ca.flips_per_diag": "count",
    "ca.ms_per_flip": "ms",
    "ca.time_frac": "frac",
    "analysis.skipped_frac": "frac",
    "fuzz.ms_per_diag": "ms",
    "fuzz.attempts_per_crash": "count",
    "fuzz.miss_frac": "frac",
    "fuzz.time_frac": "frac",
    "trace.ms_per_diag": "ms",
    "trace.slices_per_history": "count",
    "trace.slices_tried_per_diag": "count",
    "trace.time_frac": "frac",
    "svc.cache_hit_frac": "frac",
    "svc.overhead_ms_p50": "ms",
    "svc.time_frac": "frac",
    "bench.trace_overhead_frac": "frac",
    "bench.unattributed_frac": "frac",
}


def _rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (the epsilon
    absorbs float error in p * n, e.g. 99.9 * 10000)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile; None for no samples."""
    if not values:
        return None
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p) if n else 0


def tail_percentile(n, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """Highest percentile of `ladder` with at least `min_beyond` samples
    beyond it, or None when even the lowest has too few (median only)."""
    for p in sorted(ladder, reverse=True):
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def fraction(part, base):
    """(value, base): a fraction that always states its base."""
    return (part / base if base else 0.0), base


def count_outcomes(outcomes):
    """Splits answers into what fail_frac, capped_frac and the result line's
    `failed` count."""
    failed = sum(1 for o in outcomes if o in FAILED_OUTCOMES)
    expected = sum(1 for o in outcomes if o == EXPECTED_MISS)
    capped = sum(1 for o in outcomes if o == CAPPED)
    return {"attempted": len(outcomes), "failed": failed,
            "fail": failed + expected, "capped": capped}


def optional_ratio(counters, part, *rest):
    """part / (part + rest...) over counters the program may not report.
    Returns ("absent", None) when any of them is missing."""
    names = (part,) + rest
    if any(name not in counters for name in names):
        return "absent", None
    base = sum(counters[name] for name in names)
    return fraction(counters[part], base)


def metric(value, unit, samples, **extra):
    out = {"value": value, "unit": unit, "samples": samples}
    out.update(extra)
    return out


def merge_processes(parts):
    """One untraced raw document from the runner processes a run was split
    into: samples and set-ups pooled, times and counters summed, peak RSS the
    largest of them (on benign, the capped search's process), notes capped
    as the runner caps them. Program counters are summed, except peaks
    (names ending in "_peak"), which take the largest."""
    out = dict(parts[0])
    out["seconds"] = sum(p["seconds"] for p in parts)
    out["setup_s"] = [s for p in parts for s in p["setup_s"]]
    out["peak_rss_kb"] = max(p["peak_rss_kb"] for p in parts)
    counters = {}
    for p in parts:
        for name, value in p["timed"]["program_counters"].items():
            if name.endswith("_peak"):
                counters[name] = max(counters.get(name, value), value)
            else:
                counters[name] = counters.get(name, 0.0) + value
    out["timed"] = {
        "elapsed_s": sum(p["timed"]["elapsed_s"] for p in parts),
        "latency_ms": [x for p in parts for x in p["timed"]["latency_ms"]],
        "outcomes": [o for p in parts for o in p["timed"]["outcomes"]],
        "notes": [n for p in parts for n in p["timed"]["notes"]][:MAX_NOTES],
        "program_counters": counters,
    }
    return out


def end_to_end(raw):
    timed = raw["timed"]
    lat = timed["latency_ms"]
    n = len(lat)
    counts = count_outcomes(timed["outcomes"])
    attempted = counts["attempted"]
    tail_p = raw["tail_percentile"]
    fail_frac, _ = fraction(counts["fail"], attempted)
    capped_frac, _ = fraction(counts["capped"], attempted)
    setups = raw["setup_s"]
    return {
        "setup_s": metric(percentile(setups, 50), "s", len(setups), percentile=50),
        "throughput_dps": metric(n / timed["elapsed_s"], "1/s", n),
        "latency_ms_p50": metric(percentile(lat, 50), "ms", n, percentile=50),
        "latency_ms_tail": metric(percentile(lat, tail_p), "ms", n, percentile=tail_p,
                                  samples_beyond=samples_beyond(n, tail_p)),
        "correct_frac": metric(1.0 - fail_frac, "frac", attempted),
        "complete_frac": metric(1.0 - capped_frac, "frac", attempted),
        "peak_rss_mb": metric(raw["peak_rss_kb"] / 1024.0, "MB", 1),
    }


def supplementary(raw):
    """fail_frac and capped_frac, which the result line carries as their
    complements (they are 0 on most workloads), and the tail at the highest
    percentile with ten samples beyond it."""
    timed = raw["timed"]
    n = len(timed["latency_ms"])
    counts = count_outcomes(timed["outcomes"])
    rule_p = tail_percentile(n)
    fail, base = fraction(counts["fail"], counts["attempted"])
    capped, _ = fraction(counts["capped"], counts["attempted"])
    out = {
        "fail_frac": metric(fail, "frac", base),
        "capped_frac": metric(capped, "frac", base),
    }
    if rule_p is not None:
        out["latency_ms_p%g" % rule_p] = metric(
            percentile(timed["latency_ms"], rule_p), "ms", n, percentile=rule_p,
            samples_beyond=samples_beyond(n, rule_p))
    return out


def self_times(spans):
    """Seconds of self time per span name: each span's duration minus the
    part its direct children cover. Rows are [name, diag, parent, start_us,
    dur_us]; children of one span never overlap (they run serially)."""
    child_us = [0.0] * len(spans)
    for name, _diag, parent, _start, dur in spans:
        if parent >= 0:
            child_us[parent] += dur
    out = {}
    for i, (name, _diag, _parent, _start, dur) in enumerate(spans):
        out[name] = out.get(name, 0.0) + max(0.0, dur - child_us[i]) / 1e6
    return out


def root_seconds(spans):
    return sum(dur for _name, _diag, parent, _start, dur in spans if parent < 0) / 1e6


def per_layer(raw):
    timed = raw["timed"]
    traced = raw["traced"]
    c = dict(traced["counts"])
    get = lambda name: c.get(name, 0.0)
    n = len(traced["latency_ms"])
    self_s = self_times(traced["spans"])
    total_s = root_seconds(traced["spans"])
    layer_s = {layer: self_s.get(layer, 0.0) for layer in LAYERS}
    per_diag_ms = lambda seconds: fraction(seconds * 1e3, n)[0]

    sim_rate, _ = fraction(get("sim.steps"), get("sim.seconds"))
    hv_rate, _ = fraction(get("lifs.steps") + get("ca.steps"), layer_s["lifs"] + layer_s["ca"])
    timed_mean, _ = fraction(timed["elapsed_s"], len(timed["latency_ms"]))
    traced_mean, _ = fraction(traced["elapsed_s"], n)

    values = {
        "ingest.ms_per_diag": (per_diag_ms(layer_s["ingest"]), n),
        "ingest.mb_per_s": fraction(get("ingest.bytes") / 1e6, layer_s["ingest"]),
        "report.ms_per_diag": (per_diag_ms(layer_s["report"]), n),
        "report.kb_per_diag": fraction(get("report.bytes") / 1024.0, n),
        "lifs.ms_per_diag": (per_diag_ms(layer_s["lifs"]), n),
        "lifs.discovery_ms_per_diag": (per_diag_ms(get("lifs.discovery_s")), n),
        "lifs.depth_ms_per_diag": (per_diag_ms(get("lifs.depth_s")), n),
        "lifs.schedules_per_diag": fraction(get("lifs.schedules"), n),
        "lifs.schedules_per_s": fraction(get("lifs.schedules"), layer_s["lifs"]),
        "lifs.steps_per_schedule": fraction(get("lifs.steps"), get("lifs.schedules")),
        "lifs.pruned_frac": fraction(get("lifs.pruned"),
                                     get("lifs.schedules") + get("lifs.pruned")),
        "hv.steps_per_s": (hv_rate, get("lifs.steps") + get("ca.steps")),
        "hv.enforcer_overhead": fraction(sim_rate, hv_rate),
        "hv.retries": (get("hv.retries"), get("lifs.searches") + get("ca.analyses")),
        "sim.steps_per_s": (sim_rate, get("sim.steps")),
        "ca.ms_per_diag": (per_diag_ms(layer_s["ca"]), n),
        "ca.flips_per_diag": fraction(get("ca.flips"), n),
        "ca.ms_per_flip": fraction(layer_s["ca"] * 1e3, get("ca.flips")),
        "analysis.skipped_frac": fraction(get("ca.tested") - get("ca.flips"), get("ca.tested")),
        "fuzz.ms_per_diag": (per_diag_ms(layer_s["fuzz"]), n),
        "fuzz.attempts_per_crash": fraction(get("fuzz.attempts"), get("fuzz.crashes")),
        "fuzz.miss_frac": fraction(get("fuzz.campaigns") - get("fuzz.crashes"),
                                   get("fuzz.campaigns")),
        "trace.ms_per_diag": (per_diag_ms(layer_s["trace"]), n),
        "trace.slices_per_history": fraction(get("trace.slices"), get("trace.histories")),
        "trace.slices_tried_per_diag": fraction(get("trace.slices_tried"),
                                                get("trace.histories")),
        "svc.cache_hit_frac": fraction(get("svc.cache_hits"), get("svc.requests")),
        "svc.overhead_ms_p50": (percentile(traced["svc_overhead_ms"], 50) or 0.0,
                                len(traced["svc_overhead_ms"])),
        "bench.trace_overhead_frac": ((traced_mean / timed_mean - 1.0) if timed_mean else 0.0,
                                      n),
        "bench.unattributed_frac": fraction(self_s.get("diag", 0.0), total_s),
    }
    for layer in LAYERS:
        values[layer + ".time_frac"] = fraction(layer_s[layer], total_s)
    # Every per-layer metric comes from the n traced diagnoses; `base` is the
    # denominator it was divided by (a count, or seconds for rates and shares).
    return {name: metric(values[name][0], unit, n, base=values[name][1])
            for name, unit in PER_LAYER.items()}


def optional_counters(raw):
    """Program-reported counters read only while the program reports them."""
    counters = raw["timed"]["program_counters"]
    hit_frac, base = optional_ratio(counters, "ckpt.hits", "ckpt.misses")
    peak = counters.get("svc.queue_depth_peak", "absent")
    return {
        "ckpt.hit_frac": metric(hit_frac, "frac", base),
        "svc.queue_peak": metric(peak, "count", 1 if peak != "absent" else None),
    }


def result_line(raw, trace):
    """The one-line result: end-to-end metrics untraced, per-layer traced."""
    outcomes = list(raw["timed"]["outcomes"])
    if trace:
        outcomes += raw["traced"]["outcomes"]
    counts = count_outcomes(outcomes)
    metrics = per_layer(raw) if trace else end_to_end(raw)
    return {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }
