#!/usr/bin/env python3
"""The whole-diagnosis scoreboard: one command, four workloads.

Run from the root of a source checkout:

  python3 scoreboard/run.py --workload corpus --seed 1 --seconds 25 --trace 0
  python3 scoreboard/run.py --all --seed 1 --seconds 25

It builds the runner (scoreboard/CMakeLists.txt, a Release build of ../src)
into $CARGO_TARGET_DIR or .bench_build, runs one workload, checks every
answer against its reference, writes the full artifact (provenance, every
metric with unit, sample count and percentile) to .bench_out/, and prints
the result as the last line of standard output:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--all runs every workload (untraced and traced) and prints one table.
Exit codes: 0 ran (see "correct"), 2 usage or build error, 3 the runner
failed or overran its time.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import summary  # noqa: E402

WORKLOADS = ("corpus", "benign", "history", "daemon")
# Runner processes an untraced run is split into, one after another; the
# result pools their samples. The same work ran at a different speed in each
# process, beyond the machine's drift within one process (2.5 s slices of
# corpus: interquartile range 15.5% across processes, 7.8% across windows of
# one process), and pooling several processes averages that out. Corpus,
# history and daemon run all their inputs in each process for a fifth of
# --seconds; benign divides its one round between the processes.
PROCESSES = 5
# Every run must end within this many seconds, its build check included.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 880

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "scoreboard")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def die(code, message):
    print("scoreboard: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "scoreboard")


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (a build's compilers too) and waits. Returns the exit code, None on
    timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(2, "no AITIA sources next to scoreboard/ (expected src/CMakeLists.txt)")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    deadline = time.monotonic() + BUILD_LIMIT_S
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "scoreboard",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        with open(log, "w") as log_file:
            code = run_group(cmd, max(1, deadline - time.monotonic()), stdout=log_file,
                             stderr=subprocess.STDOUT)
        if code != 0:
            with open(log) as f:
                tail = f.read()[-4000:]
            die(2, "build failed (%s):\n%s" % (" ".join(cmd[:2]), tail))
    return os.path.join(out, "scoreboard")


def git_revision():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    # Not a git checkout: identify the sources by content instead.
    digest = hashlib.sha256()
    for top in ("src", "scoreboard"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_runner(binary, workload, seed, seconds, trace, started, part=0):
    os.makedirs(OUT_DIR, exist_ok=True)
    raw_path = os.path.join(OUT_DIR, "raw-%s-seed%d-trace%d.json" % (workload, seed, trace))
    parts = PROCESSES if not trace else 1
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--part", str(part), "--parts", str(parts), "--out", raw_path]
    code = run_group(cmd, max(1, RUN_LIMIT_S - (time.monotonic() - started)))
    if code is None:
        die(3, "%s overran the %ds run limit" % (workload, RUN_LIMIT_S))
    if code != 0:
        die(3, "runner exited with %d on %s" % (code, workload))
    with open(raw_path) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace, started):
    """One run: a traced run in one process; an untraced one split over
    PROCESSES processes, process i with workload seed seed * PROCESSES + i
    (the seed orders each process's rounds)."""
    if trace:
        return run_runner(binary, workload, seed, seconds, 1, started)
    parts = [run_runner(binary, workload, seed * PROCESSES + i, seconds / PROCESSES, 0,
                        started, part=i)
             for i in range(PROCESSES)]
    raw = summary.merge_processes(parts)
    raw["seed"] = seed
    raw["processes"] = PROCESSES
    return raw


def artifact(raw, trace, revision):
    line = summary.result_line(raw, trace)
    doc = {
        "correct": line["correct"],
        "attempted": line["attempted"],
        "failed": line["failed"],
        "git_revision": revision,
        "hardware_concurrency": raw["hardware_concurrency"],
        "build_type": raw["build_type"],
        "workload": raw["workload"],
        "seed": raw["seed"],
        "seconds": raw["seconds"],
        "processes": raw.get("processes", 1),
        "trace": trace,
        "end_to_end": summary.end_to_end(raw),
        "supplementary": summary.supplementary(raw),
        "program_counters": summary.optional_counters(raw),
        "notes": raw["timed"]["notes"],
    }
    if trace:
        doc["per_layer"] = summary.per_layer(raw)
        doc["notes"] += raw["traced"]["notes"]
        doc["composition"] = (
            "Per-layer numbers come from a traced pass that calls each layer itself "
            "(ScenarioFromAitText, FuzzUntilFailure, BuildSlices, Lifs::Run, "
            "CausalityAnalysis::Run, ReportToJson/ReportToSarif, Daemon::HandleLine). "
            "The facade shares one replay store between LIFS and CA; the traced "
            "composition does not, so its LIFS/CA split and bench.trace_overhead_frac "
            "include that difference. On daemon, LIFS and CA run inside the service's "
            "workers, so they are part of the svc span.")
    return doc


def show(name, m):
    extra = ""
    if "percentile" in m:
        extra = "  p%g" % m["percentile"]
    value = m["value"]
    text = value if isinstance(value, str) else "%.6g" % value
    return "  %-30s %14s %-6s n=%s%s" % (name, text, m["unit"], m["samples"], extra)


def one(args):
    started = time.monotonic()
    binary = build()
    raw = run_workload(binary, args.workload, args.seed, args.seconds, args.trace, started)
    doc = artifact(raw, args.trace, git_revision())
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                            args.trace))
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    print("scoreboard %s seed=%d trace=%d rev=%s build=%s cpus=%d" % (
        args.workload, args.seed, args.trace, doc["git_revision"], doc["build_type"],
        doc["hardware_concurrency"]))
    section = doc["per_layer"] if args.trace else doc["end_to_end"]
    for name, m in list(section.items()) + list(doc["supplementary"].items()):
        print(show(name, m))
    for note in doc["notes"]:
        print("  note: " + note)
    print("  artifact: " + os.path.relpath(path, ROOT))
    print(json.dumps(summary.result_line(raw, args.trace), sort_keys=True))


def everything(args):
    revision = git_revision()
    binary = build()
    docs = {}
    for workload in WORKLOADS:
        docs[workload] = {}
        for trace in (0, 1):
            raw = run_workload(binary, workload, args.seed, args.seconds, trace,
                               time.monotonic())
            docs[workload][trace] = artifact(raw, trace, revision)
    first = docs[WORKLOADS[0]][0]
    print("scoreboard seed=%d seconds=%g rev=%s build=%s cpus=%d" % (
        args.seed, args.seconds, revision, first["build_type"],
        first["hardware_concurrency"]))
    for workload in WORKLOADS:
        print(workload)
        untraced = docs[workload][0]
        for name, m in list(untraced["end_to_end"].items()) + list(
                untraced["supplementary"].items()) + list(
                untraced["program_counters"].items()):
            print(show(name, m))
        for name, m in docs[workload][1]["per_layer"].items():
            print(show(name, m))
    combined = {"git_revision": revision, "seed": args.seed, "seconds": args.seconds,
                "workloads": {w: {"untraced": docs[w][0], "traced": docs[w][1]}
                              for w in WORKLOADS}}
    path = os.path.join(OUT_DIR, "all-seed%d.json" % args.seed)
    with open(path, "w") as f:
        json.dump(combined, f, indent=1, sort_keys=True)
    print("artifact: " + os.path.relpath(path, ROOT))
    correct = all(d[t]["correct"] for d in docs.values() for t in (0, 1))
    print(json.dumps({"correct": correct, "artifact": os.path.relpath(path, ROOT)}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or (args.workload is None) == (not args.all):
        parser.error("give exactly one of --workload NAME or --all, and --seconds >= 1")
    everything(args) if args.all else one(args)


if __name__ == "__main__":
    main()
