#!/usr/bin/env python3
"""Build mts_perf and run the benchmark (stdlib only).

    python3 perf/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
    python3 perf/run.py [--seed N] [--trace] [--out FILE]

With --workload, runs that one workload and prints, as the last line of
stdout, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json untraced, the
per-layer ones with --trace 1.  Without --workload, runs the self-test
and then every workload, prints one line per metric (workload, metric,
median, unit, q1, q3, min, max, n), writes the same data as JSON to
--out, and exits nonzero if any run failed.  Compare two such files
with perf/compare.py.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-perf")
EXE = os.path.join(BUILD, "mts_perf")
WORKLOADS = ["paper50", "arena10k", "users", "sweep"]
# Wall-clock budget of one workload (its check and timed children).
WORKLOAD_BUDGET_S = 170
MAX_UNATTRIBUTED_PCT = 5.0
# Below this many samples a 5% share is under the sampling resolution
# (the traced sweep samples only its mostly idle supervisor).
MIN_SAMPLES_FOR_SHARE_CHECK = 100


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures build-perf/ and (re)builds the mts_perf target."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "mts_perf",
                 "-j", jobs]):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          env=env).returncode != 0:
            log("build failed:", " ".join(cmd))
            return False
    return True


def run_child(args, deadline):
    """Runs mts_perf, returns (parsed stdout JSON or None, peak RSS MiB).

    The child is killed if it is still running at `deadline` (a
    time.monotonic() value).  It is reaped with wait4 so its own
    ru_maxrss is read, which on Linux also covers the fabric workers it
    forked and reaped.
    """
    out_path = os.path.join(BUILD, "child-%d.json" % os.getpid())
    # The fabric would otherwise promote each finished sweep into the
    # campaign cache under the checkout.
    env = dict(os.environ, MTS_BENCH_NO_CACHE="1")
    with open(out_path, "w") as out:
        proc = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=out, env=env)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline:
            log("mts_perf ran past the %ds budget; killing it"
                % WORKLOAD_BUDGET_S)
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    os.remove(out_path)
    if proc.returncode != 0:
        log("mts_perf exited with", proc.returncode)
        return None, 0.0
    try:
        rec = json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("mts_perf printed no result")
        return None, 0.0
    return rec, usage.ru_maxrss / 1024.0


def self_test():
    rec, _ = run_child(["--self-test"], time.monotonic() + 60)
    if rec is None or not rec.get("ok"):
        log("self-test failed:", json.dumps(rec))
        return False
    return True


def check_pins(workload, rec, errors):
    """Counts timed runs whose outcome differs from the pinned one."""
    pins = load_json(os.path.join(HERE, "fingerprints.json"))
    if rec["pinned_seed"] != pins["seed"]:
        errors.append("mts_perf pins seed %d, fingerprints.json seed %d"
                      % (rec["pinned_seed"], pins["seed"]))
        return 1
    want = pins["workloads"][workload]
    bad = 0
    for label, fp in want["fingerprints"].items():
        got = rec["fingerprints"].get(label)
        if got != fp:
            bad += 1
            errors.append("%s: fingerprint %s, pinned %s" % (label, got, fp))
    for label, head in want.get("headline", {}).items():
        if rec["headline"].get(label) != head:
            errors.append("%s: headline %s, pinned %s"
                          % (label, rec["headline"].get(label), head))
    return bad


def run_workload(bench, workload, seed, seconds, trace):
    """Runs the --seed check and then the timed workload, each in a child
    of its own; returns the result record."""
    work_dir = os.path.join(BUILD, "work-%d" % os.getpid())
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    checked, _ = run_child(["--check", "--workload", workload, "--seed",
                            str(seed), "--work-dir", work_dir], deadline)
    rec, rss = (None, 0.0) if checked is None else run_child(
        ["--workload", workload, "--seconds", str(seconds), "--trace",
         "1" if trace else "0", "--work-dir", work_dir], deadline)
    shutil.rmtree(work_dir, ignore_errors=True)
    if rec is None:
        return None
    errors = checked["errors"] + rec["errors"]
    attempted = checked["attempted"] + rec["attempted"]
    failed = (checked["failed"] + rec["failed"]
              + check_pins(workload, rec, errors))
    correct = failed == 0

    samples = {}
    if not trace:
        samples["sim_s_per_s"] = rec["sim_s_per_s"]
        samples["setup_s"] = rec["setup_s"]
        samples["peak_rss_mib"] = [rss]
        wanted = bench["end_to_end"]
    else:
        total = sum(rec["samples"].values())
        for m in bench["per_layer"]:
            name = m["name"]
            if name.endswith(".self_pct"):
                bucket = name[: -len(".self_pct")]
                samples[name] = [100.0 * rec["samples"].get(bucket, 0) / total
                                 if total else 0.0]
        samples["trace.samples"] = [total]
        for name, v in {**rec["counts"], **rec["traced"]}.items():
            samples[name] = [v]
        wanted = bench["per_layer"]
        unattributed = samples["unattributed.self_pct"][0]
        if total == 0 or (total >= MIN_SAMPLES_FOR_SHARE_CHECK
                          and unattributed > MAX_UNATTRIBUTED_PCT):
            correct = False
            errors.append("unattributed samples %.2f%% of %d (limit %.0f%%)"
                          % (unattributed, total, MAX_UNATTRIBUTED_PCT))
    metrics = {}
    for m in wanted:
        if m["name"] not in samples:
            correct = False
            errors.append("metric %s not measured" % m["name"])
            continue
        metrics[m["name"]] = dict(m, samples=samples[m["name"]])
    for e in errors:
        log("%s: %s" % (workload, e))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def print_table(workload, result):
    for name, m in result["metrics"].items():
        v = m["samples"]
        q1, q3 = quartiles(v)
        print("%-9s %-28s %14.6g %-6s q1 %.6g q3 %.6g min %.6g max %.6g n %d"
              % (workload, name, statistics.median(v), m["unit"], q1, q3,
                 min(v), max(v), len(v)))
    print("%-9s %-28s %14.6g %-6s (%d of %d runs failed)"
          % (workload, "fail_ratio",
             result["failed"] / max(1, result["attempted"]), "ratio",
             result["failed"], result["attempted"]), flush=True)


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--out", help="write every workload's result as JSON")
    args = ap.parse_args()

    if not build():
        return 1
    if (args.trace or not args.workload) and not self_test():
        return 1
    results = {}
    for w in [args.workload] if args.workload else WORKLOADS:
        log("== %s (seed %d, %gs, trace %d)"
            % (w, args.seed, args.seconds, args.trace))
        result = run_workload(bench, w, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print_table(w, result)
        results[w] = result
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "trace": args.trace,
                       "seconds": args.seconds, "workloads": results},
                      f, indent=1)
    if args.workload:
        r = results[args.workload]
        print(json.dumps({
            "correct": r["correct"], "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {n: {"value": statistics.median(m["samples"]),
                            "unit": m["unit"]}
                        for n, m in r["metrics"].items()}}))
        return 0
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
