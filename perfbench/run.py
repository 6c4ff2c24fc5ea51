"""Benchmark of the Jarvis reproduction: two closed-loop workloads driven
through the program's public entry points, outputs checked against
reference results, end-to-end metrics (or, with --trace 1, per-layer
metrics) printed as the last line of standard output in JSON.

    python3 perfbench/run.py --workload pingmesh-1src --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. The first run compiles the program and
the benchmark (see build.py); everything it writes goes under .bench_build/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ["pingmesh-1src", "model-sweep"]

# A timed model-sweep run is split over this many JVMs, whose samples are
# pooled: the JIT compiles the models differently from one JVM to the next,
# and one JVM's median can sit 10-25% off another's. Each JVM's first, cold
# sweep is one set-up sample.
SWEEP_FORKS = 3

# Every run must end within this many seconds, compiling excluded.
RUN_DEADLINE_S = 170

JVM_HEAP = "-Xmx2g"
MODULE_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


class RunError(Exception):
    pass


def jvm(classes, args, extra_env, deadline):
    """Run one benchmark JVM; return its parsed result line."""
    out = build.OUT
    for d in ("spark-local", "tmp", "warehouse"):
        (out / d).mkdir(parents=True, exist_ok=True)
    cmd = ([build.java(), JVM_HEAP, JVM_HEAP.replace("-Xmx", "-Xms"), "-Xss8m"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in MODULE_OPENS]
           + ["-Djdk.reflect.useDirectMethodHandle=false",
              "-Dspark.ui.enabled=false",
              "-Dspark.driver.host=127.0.0.1",
              f"-Dspark.local.dir={out / 'spark-local'}",
              f"-Dspark.sql.warehouse.dir={out / 'warehouse'}",
              f"-Djava.io.tmpdir={out / 'tmp'}",
              f"-Dlog4j2.configurationFile={build.BENCH / 'log4j2.properties'}",
              "-cp", f"{classes}{os.pathsep}{build.jars()}",
              "perfbench.Bench"] + [str(a) for a in args] + [str(out)])
    env = dict(os.environ, **extra_env)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a JVM")
    try:
        done = subprocess.run(cmd, cwd=build.ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"benchmark JVM {args[:1] + args[4:5]} exceeded the time limit")
    lines = [l for l in done.stdout.splitlines() if l.startswith("PERFBENCH_RESULT ")]
    if done.returncode != 0 or not lines:
        raise RunError(f"benchmark JVM {args} failed (exit {done.returncode}):\n"
                       + done.stderr[-3000:])
    return json.loads(lines[-1][len("PERFBENCH_RESULT "):])


def value(res, name):
    m = res["metrics"].get(name)
    return None if m is None else m["value"]


def tail(xs, beyond=10):
    """The highest whole percentile with at least `beyond` samples above it,
    and its nearest-rank value (the rule of Stats.tail in the JVM)."""
    s = sorted(xs)
    n = len(s)
    pct = max(0, 100 * (n - beyond) // n)
    return pct, s[max(1, math.ceil(pct / 100 * n)) - 1]


def window_tail(runs, window):
    """`tail` in each `window` consecutive samples of each run, and the
    median of those tails (the rule of Stats.windowTail in the JVM). A run
    shorter than `window` counts as one window."""
    tails = []
    for xs in runs:
        if len(xs) < window:
            tails.append(tail(xs))
        else:
            tails += [tail(xs[i:i + window]) for i in range(0, len(xs) - window + 1, window)]
    return tails[0][0], statistics.median(t for _, t in tails), len(tails)


def pooled_sweeps(forks):
    """One model-sweep result from the timed sweeps of several JVMs."""
    runs = [f["notes"]["sweep_ms"] for f in forks]
    ms = [x for xs in runs for x in xs]
    attempted = sum(f["attempted"] for f in forks)
    failed = sum(f["failed"] for f in forks)
    problems = [p for f in forks for p in f["problems"]]
    digests = sorted({f["notes"]["sweep_digest"] for f in forks})
    if len(digests) > 1:
        problems.append(f"JVMs computed different sweeps: {digests}")
    window = forks[0]["notes"]["tail_window"]
    pct, t, windows = window_tail(runs, window)
    metrics = {
        "sweep_ms_p50": (statistics.median(ms), "ms"),
        "sweep_ms_tail": (t, "ms"),
        "sweeps_per_s": (len(ms) / (sum(ms) / 1000), "1/s"),
        "lost_epoch_pct": (0.0, "%"),
        "error_pct": (100.0 * failed / attempted, "%"),
    }
    return {
        "problems": problems, "attempted": attempted, "failed": failed,
        "setup_s": [f["setup_s"][0] for f in forks],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": {"machine": forks[0]["notes"]["machine"], "sweep_digest": digests[0],
                  "shape_checks": forks[0]["notes"]["shape_checks"],
                  "sweeps_timed": len(ms), "tail_percentile": pct,
                  "tail_window": window, "tail_windows": windows,
                  "pooled_tail": dict(zip(("percentile", "ms"), tail(ms))),
                  "sweep_ms_p50_per_jvm": [value(f, "sweep_ms_p50") for f in forks]},
    }


def end_to_end(workload, main, setup_samples):
    """The contract metrics, named for every workload alike: an operation is
    an epoch on the Spark workloads and one full sweep on model-sweep."""
    spark = workload == "pingmesh-1src"
    return {
        "op_ms_p50": (value(main, "epoch_ms_p50" if spark else "sweep_ms_p50"), "ms"),
        "op_ms_tail": (value(main, "epoch_ms_tail" if spark else "sweep_ms_tail"), "ms"),
        "items_per_s": (value(main, "records_per_s" if spark else "sweeps_per_s"), "1/s"),
        "delivered_pct": (100.0 - value(main, "lost_epoch_pct"), "%"),
        "correct_pct": (100.0 - value(main, "error_pct"), "%"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def check_fingerprint(workload, main):
    """Compare this run's control trajectory or sweep digest with the first
    run recorded in this checkout; return a flag line when they differ."""
    key = "trajectory_digest" if workload == "pingmesh-1src" else "sweep_digest"
    digest = main["notes"].get(key)
    if digest is None:
        return None
    store = build.OUT / "fingerprints.json"
    seen = json.loads(store.read_text()) if store.is_file() else {}
    first = seen.setdefault(workload, digest)
    store.write_text(json.dumps(seen, indent=1))
    if first != digest:
        return f"FLAG: {key} {digest[:16]} differs from the first run in this checkout ({first[:16]})"
    return None


def report(workload, traced, main, extra, flag):
    """Human-readable lines ahead of the JSON result."""
    mem_kb = 0
    try:
        with open("/proc/meminfo") as f:
            mem_kb = next(int(l.split()[1]) for l in f if l.startswith("MemTotal:"))
    except (OSError, StopIteration):
        pass
    machine = dict(main["notes"].get("machine", {}))
    machine.update(nproc_os=os.cpu_count(), mem_total_gb=round(mem_kb / 1048576, 1),
                   jvm_heap=JVM_HEAP)
    print(f"workload: {workload}   run: {'traced' if traced else 'timed'}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    notes = {k: v for k, v in main["notes"].items() if k not in ("machine", "sweep_ms")}
    print("notes: " + json.dumps(notes, sort_keys=True))
    for name, m in main["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, (v, unit) in extra.items():
        print(f"  {name:40s} {v:.6g} {unit}")
    print(f"  set-up samples (s): {main['setup_s']}")
    if flag:
        print(flag)
    for p in main["problems"]:
        print(f"PROBLEM: {p}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    spec = json.loads((build.ROOT / "BENCHMARK.json").read_text())
    try:
        classes = build.build()
        deadline = time.monotonic() + RUN_DEADLINE_S
        extra = {}
        if a.workload == "model-sweep" and not a.trace:
            main_res = pooled_sweeps([
                jvm(classes, [a.workload, a.seed, a.seconds / SWEEP_FORKS, 0, "run"], {}, deadline)
                for _ in range(SWEEP_FORKS)])
        else:
            main_res = jvm(classes, [a.workload, a.seed, a.seconds, a.trace, "run"], {}, deadline)
        problems = list(main_res["problems"])
        if a.trace and a.workload == "pingmesh-1src":
            one = jvm(classes, [a.workload, a.seed, a.seconds / 2, 1, "onethread"],
                      {"SPARK_MASTER": "local[1]"}, deadline)
            problems += one["problems"]
            extra["dataflow.epoch_ms_1thread"] = (value(one, "dataflow.epoch_ms_1thread"), "ms")
    except (build.BuildError, RunError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    flag = check_fingerprint(a.workload, main_res)
    report(a.workload, a.trace, main_res, extra, flag)
    if a.trace:
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] in extra:
                v = extra[m["name"]][0]
            else:
                v = value(main_res, m["name"])
            metrics[m["name"]] = {"value": 0.0 if v is None else v, "unit": m["unit"]}
        absent = [m["name"] for m in spec["per_layer"]
                  if value(main_res, m["name"]) is None and m["name"] not in extra]
        if absent:
            print("not measured on this workload (reported as 0): " + ", ".join(absent))
    else:
        e2e = end_to_end(a.workload, main_res, main_res["setup_s"])
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {
        "correct": not problems and main_res["failed"] == 0,
        "attempted": main_res["attempted"],
        "failed": main_res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
