#!/usr/bin/env python3
"""End-to-end benchmark runner for the cloud-vs-grid characterization repo.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. One run:

1. builds perfbench_run (perfbench/CMakeLists.txt, which compiles ../src)
   into .bench_build/;
2. generates the workload's inputs from --seed in a fresh scratch
   directory (the load generator's work; not timed);
3. runs cold iterations, one process each, until --seconds is spent.
   With --trace 1, untraced and traced iterations alternate: the traced
   ones give the per-layer numbers, the pair gives obs.trace_overhead;
4. checks every iteration and the agreement between iterations;
5. prints a stamp line, a line of the workload's own metrics, and, last,
   {"correct", "attempted", "failed", "metrics"}.

Exits 1 if the build fails, any check fails or an iteration errors.
Workloads, metrics and the layer map are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_run")
RUNS = os.path.join(BUILD, "runs")
# Metric names and units are declared once, in BENCHMARK.json.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

# Every workload runs at CGC_THREADS=1. Extra workers slow sim and stream
# today, and plan_matrix at CGC_THREADS=2 ran 7-15% apart run to run on a
# shared 4-vCPU box against 2% at CGC_THREADS=1, which still runs its
# scenarios on two threads (the pool worker and the caller).
CGC_THREADS = 1
LAYERS = ["gen", "sim", "store", "trace", "analysis", "stream", "plan", "check"]
MIN_ITERATIONS = 3
RUN_DEADLINE_S = 170  # the whole run, build excluded, ends within this


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "--target", "perfbench_run", "-j", jobs],
        ):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may
    have no .git, so this stands in for the revision there)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    """HEAD of the checkout, or "unknown" when ROOT is not a git work tree
    of its own (a nested copy must not report its parent's revision)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def child_env(threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CGC_")}
    env["CGC_THREADS"] = str(threads)
    return env


def run_child(args, env, deadline, stdin_path=None):
    """Runs one perfbench_run step; returns (stdout, start_ns). The child
    is killed and reaped if this process stops early for any reason."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before " + " ".join(args[:2]))
    with open(stdin_path or os.devnull, "rb") as stdin:
        start_ns = time.monotonic_ns()
        proc = subprocess.Popen([BINARY] + args, stdin=stdin,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, cwd=ROOT)
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException as error:
            proc.kill()
            proc.communicate()
            if isinstance(error, subprocess.TimeoutExpired):
                fail("timed out: " + " ".join(args[:2]))
            raise
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace")[-4000:])
        fail(f"{' '.join(args[:2])} exited {proc.returncode}")
    return out.decode(), start_ns


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def span_times(path):
    """Per span name: total duration and total self time, in seconds."""
    with open(path) as f:
        doc = json.load(f)
    spans = doc["spans"]
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    total, self_time = {}, {}
    for i, s in enumerate(spans):
        dur = s["end_ns"] - s["start_ns"]
        total[s["name"]] = total.get(s["name"], 0.0) + dur / 1e9
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + (dur - child[i]) / 1e9
    return total, self_time


def obs_span_durations(path, name):
    """Durations (s) of the library's own spans called `name`."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [e["dur"] / 1e6 for e in events if e["name"] == name]


def layer_metrics(it, untraced_work_s):
    """Per-layer metrics of one traced iteration."""
    total, self_time = span_times(os.path.join(it["scratch"], "spans.json"))
    counts = it["counts"]

    def span(name):
        return total.get(name, 0.0)

    def count(name):
        return float(counts.get(name, 0))

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    m = {}
    m["gen.sim_workload_s"] = span("gen.sim_workload")
    m["gen.specs"] = count("gen.specs")
    m["gen.ns_per_spec"] = per(m["gen.sim_workload_s"] * 1e9, m["gen.specs"])
    m["sim.run_s"] = span("sim.run")
    for name in ("events", "schedule_passes", "evicted", "max_pending_depth",
                 "attempt_gap"):
        m["sim." + name] = count("sim." + name)
    m["sim.ns_per_event"] = per(m["sim.run_s"] * 1e9, m["sim.events"])
    m["store.encode_s"] = span("store.encode")
    m["store.decode_s"] = span("store.decode")
    m["store.bytes"] = count("store.bytes")
    m["store.decode_mb_per_s"] = per(m["store.bytes"] / 1e6, m["store.decode_s"])
    m["store.chunks_quarantined"] = count("store.chunks_quarantined")
    for fmt in ("google_csv", "swf", "gwa"):
        m["trace.load_s." + fmt] = span("trace.load." + fmt)
    for name in ("input_bytes", "rows", "bad_lines", "validate_issues"):
        m["trace." + name] = count("trace." + name)
    load_s = sum(m["trace.load_s." + f] for f in ("google_csv", "swf", "gwa"))
    m["trace.ns_per_row"] = per(load_s * 1e9, m["trace.rows"])
    for name in ("hostload", "workload", "compare"):
        m[f"analysis.{name}_s"] = span("analysis." + name)
    m["stream.parse_s"] = self_time.get("stream.parse", 0.0)
    m["stream.window_ingest_s"] = span("stream.window_ingest")
    m["stream.flush_s"] = span("stream.flush")
    m["stream.query_s"] = span("stream.query")
    for name in ("windows_closed", "late", "dropped", "bad_lines"):
        m["stream." + name] = count("stream." + name)
    m["plan.expand_s"] = span("plan.expand")
    m["plan.run_s"] = span("plan.run")
    m["plan.render_s"] = span("plan.render")
    scenario_s = obs_span_durations(os.path.join(it["scratch"], "obs_spans.json"),
                                    "plan.scenario_ns")
    m["plan.scenario_p50_ms"] = quantile(scenario_s, 0.50) * 1e3 if scenario_s else 0.0
    m["plan.scenario_p99_ms"] = quantile(scenario_s, 0.99) * 1e3 if scenario_s else 0.0
    m["plan.failed"] = count("plan.failed")
    workers = count("exec.workers")
    # A parallel region runs on the pool's workers plus the calling
    # thread, so CGC_THREADS=N executes scenarios on N + 1 threads.
    m["exec.parallel_efficiency"] = (
        per(sum(scenario_s), (workers + 1) * untraced_work_s) if scenario_s else 0.0)
    with open(os.path.join(it["scratch"], "metrics.json")) as f:
        registry = json.load(f)
    for name in ("exec.regions", "exec.chunks"):
        m[name] = float(registry.get("counters", {}).get(name, 0))
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(v for k, v in self_time.items()
                                   if k.split(".")[0] == layer)
    return m


def main():
    # A SIGTERM unwinds like an error, so run_child kills its child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env(CGC_THREADS)
    run_dir = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
    inputs = os.path.join(run_dir, "inputs")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(inputs)
    try:
        result = measure(args, env, run_dir, inputs, deadline)
    finally:
        # Inputs and stores are large; keep only the record of the run.
        for name in os.listdir(run_dir):
            path = os.path.join(run_dir, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(result["record"], f, indent=1)
    for line in result["lines"]:
        print(line)
    print(json.dumps(result["final"]))
    if not result["final"]["correct"]:
        sys.exit(1)


def measure(args, env, run_dir, inputs, deadline):
    out, _ = run_child(["inputs", args.workload, str(args.seed), inputs], env, deadline)
    input_meta = json.loads(out.strip().splitlines()[-1])
    # Write the generated inputs back now, so their writeback does not
    # land inside the measured iterations.
    os.sync()
    stdin_path = (os.path.join(inputs, "task_events.csv")
                  if args.workload == "cgcd_ingest" else None)

    iterations = []
    budget_end = time.monotonic() + args.seconds
    longest = 0.0
    need = MIN_ITERATIONS + args.trace
    while True:
        traced = args.trace == 1 and len(iterations) % 2 == 1
        now = time.monotonic()
        if len(iterations) >= need and now + longest > budget_end:
            break
        scratch = os.path.join(run_dir, f"iter{len(iterations)}")
        out, start_ns = run_child(
            ["iterate", args.workload, str(args.seed), inputs, scratch,
             "1" if traced else "0"], env, deadline, stdin_path)
        longest = max(longest, time.monotonic() - now)
        it = json.loads(out.strip().splitlines()[-1])
        it["traced"] = traced
        it["scratch"] = scratch
        it["setup_s"] = (it["first_call_ns"] - start_ns) / 1e9
        it["wall_s"] = (it["done_ns"] - it["first_call_ns"]) / 1e9
        iterations.append(it)
        # Drop the iteration's stores before their dirty pages are written
        # back during the next iteration; keep its JSON records.
        for name in os.listdir(scratch):
            if not name.endswith(".json"):
                os.remove(os.path.join(scratch, name))

    checks = check_run(args, iterations, input_meta, inputs, env, deadline)
    untraced = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    med = statistics.median
    wall_s = med(it["wall_s"] for it in untraced)
    units_per_s = med(it["work_units"] / it["wall_s"] for it in untraced)
    stage_rate = med(it["work_units"] / it["work_s"] for it in untraced)

    if args.trace == 0:
        values = {
            "setup_s": med(it["setup_s"] for it in untraced),
            "wall_s": wall_s,
            "peak_rss_mb": med(it["peak_rss_kib"] for it in untraced) / 1024,
            "ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
            "work_units_per_s": units_per_s,
        }
        declared = SPEC["end_to_end"]
    else:
        untraced_work_s = med(it["work_s"] for it in untraced)
        per_iteration = [layer_metrics(it, untraced_work_s) for it in traced]
        values = {name: med(m[name] for m in per_iteration)
                  for name in per_iteration[0]}
        batch_ms = [b for it in untraced for b in it["batch_ms"]]
        values["stream.batch_p50_ms"] = quantile(batch_ms, 0.50) if batch_ms else 0.0
        values["stream.batch_p99_ms"] = quantile(batch_ms, 0.99) if batch_ms else 0.0
        values["obs.trace_overhead"] = med(it["wall_s"] for it in traced) / wall_s - 1
        declared = SPEC["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail("metrics not computed: " + ", ".join(missing))
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}

    first = iterations[0]
    stamp = {
        "stamp": {
            "workload": args.workload, "seed": args.seed, "scale": first["scale"],
            "input": input_meta, "build_type": first["build_type"],
            "compiler": first["compiler"], "CGC_THREADS": env["CGC_THREADS"],
            "workers": first["workers"], "nproc": os.cpu_count(),
            "hardware_concurrency": first["hardware_concurrency"],
            "git_rev": git_revision(), "source_digest": source_digest(),
            "iterations": len(untraced), "traced_iterations": len(traced),
        }
    }
    workload_line = {"workload_metrics": workload_metrics(
        args.workload, untraced, stage_rate, attempted, failed)}
    final = {
        "correct": all(ok for _, ok in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(stamp, **workload_line, checks=dict(checks), result=final,
                  iterations=[{k: v for k, v in it.items() if k != "batch_ms"}
                              for it in iterations])
    for it in traced:  # spans and registry copies outlive the scratch dirs
        for name in ("spans.json", "metrics.json", "obs_spans.json"):
            shutil.copy(os.path.join(it["scratch"], name),
                        f"{it['scratch']}.{name}")
    lines = [json.dumps(stamp), json.dumps(workload_line)]
    lines += [f"check {name}: {'ok' if ok else 'FAILED'}" for name, ok in checks]
    return {"lines": lines, "final": final, "record": record}


def workload_metrics(workload, untraced, rate, attempted, failed):
    """The workload's own headline numbers (median over untraced
    iterations), printed beside the contract metrics. `rate` is work
    units per second of the stage that does them."""
    out = {"fail_ratio": failed / attempted if attempted else 0.0}
    if workload == "hostload_month":
        out["sim_events_per_s"] = rate
    elif workload == "trace_files":
        out["trace_rows_per_s"] = rate
    elif workload == "cgcd_ingest":
        batch_ms = [b for it in untraced for b in it["batch_ms"]]
        out["ingest_events_per_s"] = rate
        out["ingest_batch_p50_ms"] = quantile(batch_ms, 0.50)
        out["ingest_batch_p99_ms"] = quantile(batch_ms, 0.99)
        out["ingest_batch_samples"] = len(batch_ms)
    else:
        out["scenarios_per_s"] = rate
    return out


def check_run(args, iterations, input_meta, inputs, env, deadline):
    """Per-iteration checks plus agreement across the run's iterations."""
    checks = []
    for name in iterations[0]["checks"]:
        checks.append((name, all(it["checks"].get(name) for it in iterations)))
    for key in iterations[0]["outputs"]:
        values = {it["outputs"].get(key) for it in iterations}
        checks.append((f"{key}_identical_across_iterations", len(values) == 1))
    if args.workload == "cgcd_ingest":
        checks.append(("rows_delivered_eq_rows_fed", all(
            int(it["outputs"]["rows_delivered"]) == input_meta["rows"]
            for it in iterations)))
        reference = os.path.join(inputs, "reference.json")
        run_child(["reference", inputs, reference], env, deadline)
        with open(reference) as f:
            daemon = f.read()
        # run_daemon prints {"summary": ..., "queries": {...}}.
        daemon_queries = daemon[daemon.index('"queries": {'):].rstrip()[:-1]
        same = True
        for it in iterations:
            with open(os.path.join(it["scratch"], "queries.json")) as f:
                same = same and f.read() == daemon_queries
        checks.append(("queries_equal_run_daemon", same))
    return checks


if __name__ == "__main__":
    main()
