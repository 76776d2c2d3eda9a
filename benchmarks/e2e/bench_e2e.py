"""End-to-end benchmark: six seeded workloads, from process start to output.

One run of one workload (what an automated harness calls; the last
line of stdout is one JSON object)::

    python benchmarks/e2e/bench_e2e.py --workload NAME --seed N \\
        --seconds S --trace 0|1

Every workload, with a printed report and a results file::

    python benchmarks/e2e/bench_e2e.py [--seed N] [--repeat K] [--smoke]
        [--trace 0|1|FILE] [--output FILE]

Compare two results files, each metric against its regression bound::

    python benchmarks/e2e/bench_e2e.py compare A.json B.json

``--trace 1`` adds a traced pass and reports per-layer metrics; any
other value than ``0``/``1`` is also the path the Chrome trace-event
JSON is written to.  ``--smoke`` runs tiny inputs with every reference
check and refuses to overwrite a full-mode results file.  See README.md
for the workloads, metrics, bounds and the layer map.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from report import compare, format_compare, spread, tail  # noqa: E402
from spans import chrome_trace  # noqa: E402

#: why each workload exists (also in BENCHMARK.json and README.md)
WORKLOADS = {
    "table9-audit": "Table IX corpus, cold `tabby chains`: Algorithm 1 on the two recursion "
                    "clusters dominates, search is negligible (RQ2)",
    "bulk-classpath": "generated 1024-class classpath, cold `tabby analyze`: jasm parse, linear "
                      "Algorithm 1, ORG/PCG and v3 save; no recursion clusters (RQ1)",
    "bulk-rerun": "the same classpath rerun with a filled --cache-dir: summary-cache reads "
                  "replace Algorithm 1, so only cache work moves it",
    "snapshot-read": "in-process chain searches and Cypher queries on a mmap'd v3 snapshot: "
                     "no parse or build runs, only storage, query and search",
    "incremental-edit": "seeded 1-class edits and their reverts through "
                        "IncrementalAnalyzer.update: dirty sets, patch, renumber, re-search",
    "serve-mix": "2 closed-loop clients on `tabby serve --workers 2`: store hits, attaches, "
                 "and heavy-tailed computes, so queueing and dedup show",
}

#: bounds: run-to-run spreads of 5-15% were measured on a shared 2-CPU
#: machine whose speed drifts by ~7% within minutes (see README.md)
END_TO_END = [
    {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.20},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

#: span names whose self time is reported as a share of the traced ops
LAYERS = (
    "process", "import", "jvm.load_classpath", "jvm.hierarchy", "cpg.build",
    "cpg.summaries", "cpg.assemble", "search", "storage.save", "query",
    "incremental.update", "incremental.dirty", "incremental.patch",
    "incremental.renumber", "serve.job", "serve.submit", "serve.queue",
    "serve.service",
)

PER_LAYER = [{"name": f"{layer}.self_pct", "unit": "%", "better": "lower"} for layer in LAYERS] + [
    {"name": "import.s", "unit": "s", "better": "lower"},
    {"name": "trace.overhead_pct", "unit": "%", "better": "lower"},
    {"name": "jvm.classes", "unit": "count", "better": "lower"},
    {"name": "jvm.jasm_kb_per_s", "unit": "KiB/s", "better": "higher"},
    {"name": "controllability.methods", "unit": "count", "better": "lower"},
    {"name": "controllability.recursive_methods", "unit": "count", "better": "lower"},
    {"name": "controllability.cycle_tainted", "unit": "count", "better": "lower"},
    {"name": "summary_cache.hits", "unit": "count", "better": "higher"},
    {"name": "summary_cache.misses", "unit": "count", "better": "lower"},
    {"name": "summary_cache.methods_reused", "unit": "count", "better": "higher"},
    {"name": "cpg.nodes", "unit": "count", "better": "lower"},
    {"name": "cpg.edges", "unit": "count", "better": "lower"},
    {"name": "cpg.pruned_call_sites", "unit": "count", "better": "higher"},
    {"name": "search.chains", "unit": "count", "better": "higher"},
    {"name": "search.paths_visited", "unit": "count", "better": "lower"},
    {"name": "search.reachability_pruned", "unit": "count", "better": "higher"},
    {"name": "search.negative_cache_hits", "unit": "count", "better": "higher"},
    {"name": "query.rows", "unit": "count", "better": "higher"},
    {"name": "storage.bytes", "unit": "B", "better": "lower"},
    {"name": "incremental.classes_reanalyzed", "unit": "count", "better": "lower"},
    {"name": "incremental.methods_reanalyzed", "unit": "count", "better": "lower"},
    {"name": "incremental.sinks_researched_ratio", "unit": "ratio", "better": "lower"},
    {"name": "incremental.full_rebuilds", "unit": "count", "better": "lower"},
    {"name": "serve.store_hit_ratio", "unit": "ratio", "better": "higher"},
    {"name": "serve.polls_per_job", "unit": "count", "better": "lower"},
    {"name": "serve.attached", "unit": "count", "better": "higher"},
]

RUN_SECONDS = 10
SMOKE_SECONDS = 1
#: a run that has not ended by then is killed (the harness allows 180 s)
RUN_TIMEOUT_S = 170
RESULTS = os.path.join(HERE, "BENCH_e2e.json")
WORK = os.path.join(ROOT, ".bench_build", "e2e")


class BenchError(Exception):
    pass


def run_workload(workload, seed, seconds, trace, smoke):
    """One run in a fresh worker process; returns the worker's document
    plus ``worker_rss_kb``, the worker's own peak RSS."""
    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "result.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--size", "smoke" if smoke else "full",
            "--work", work, "--out", out]
    log = os.path.join(work, "worker.log")
    try:
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    cwd=ROOT, start_new_session=True)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        pid = 0
        try:
            while not pid:
                if time.monotonic() > deadline:
                    raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S}s")
                time.sleep(0.02)
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        finally:
            # the worker's own children (CLI runs, the server) share its
            # session; none may outlive the run
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if not pid:
                os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(log, errors="replace") as fh:
                raise BenchError(f"{workload}: worker exited {proc.returncode}:\n"
                                 + fh.read()[-4000:])
        with open(out) as fh:
            doc = json.load(fh)
        doc["worker_rss_kb"] = usage.ru_maxrss
        return doc
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(doc):
    """The end-to-end metrics of one run, with their sample counts."""
    latencies = doc["latency_ms"]
    rss = doc["rss_kb"] or [doc["worker_rss_kb"]]
    values = {
        "latency_ms": (statistics.median(latencies), len(latencies)),
        "ops_per_s": ((doc["units"] or len(latencies)) / doc["busy_s"], len(latencies)),
        "peak_rss_mb": (max(rss) / 1024.0, len(rss)),
        "setup_s": (statistics.median(doc["setup_s"]), len(doc["setup_s"])),
    }
    return {
        spec["name"]: {"value": values[spec["name"]][0], "unit": spec["unit"],
                       "samples": values[spec["name"]][1]}
        for spec in END_TO_END
    }


def per_layer(doc):
    """The per-layer metrics of a traced run."""
    traced = doc["traced"]
    layers, counters = traced["layers"], dict(traced["counters"])
    values = {f"{layer}.self_pct": 100.0 * layers.get(layer, {}).get("share", 0.0)
              for layer in LAYERS}
    values["import.s"] = counters.pop("import.s", doc["import_s"])
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced["latency_ms"]) / statistics.median(doc["latency_ms"]) - 1.0
    )
    parse_s = layers.get("jvm.load_classpath", {}).get("self_s", 0.0)
    values["jvm.jasm_kb_per_s"] = counters.pop("jvm.jasm_kb", 0.0) / parse_s if parse_s else 0.0
    for spec in PER_LAYER:
        values.setdefault(spec["name"], counters.get(spec["name"], 0))
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in PER_LAYER}


def result_line(doc, trace):
    metrics = per_layer(doc) if trace else end_to_end(doc)
    return {
        "correct": doc["failed"] == 0 and doc["attempted"] > 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }


def write_trace(path, docs):
    with open(path, "w") as fh:
        json.dump(chrome_trace({w: d["traced"]["spans"] for w, d in docs.items()}), fh)


def git_state():
    def git(*args):
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"sha": sha, "dirty": bool(status) if status is not None else None}


def refuse_overwrite(path, mode):
    """Full-mode numbers are never replaced by a smoke run's."""
    if mode != "smoke" or not os.path.exists(path):
        return
    with open(path) as fh:
        try:
            existing = json.load(fh).get("mode")
        except json.JSONDecodeError:
            existing = None
    if existing == "full":
        raise BenchError(f"refusing to overwrite full-mode results in {path} "
                         "with a smoke run (pass --output)")


def write_results(path, report):
    refuse_overwrite(path, report["mode"])
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def timing(values):
    """Median, the highest percentile with ten samples beyond it, and n."""
    text = f"median {statistics.median(values):.4f}"
    if tail(values):
        text += " p{:g} {:.4f}".format(*tail(values))
    return f"{text} (n={len(values)})"


def describe(name, doc, metrics):
    lines = [f"{name}: {doc['attempted']} attempted, {doc['failed']} failed"]
    for metric, entry in metrics.items():
        lines.append(f"  {metric:<12}{entry['value']:>12.4f} {entry['unit']:<4} "
                     f"n={entry['samples']}")
    lines.append(f"  op latency ms: {timing(doc['latency_ms'])}")
    if doc.get("job_ms"):
        lines.append(f"  job latency ms: {timing(doc['job_ms'])}")
    for failure in doc["failures"]:
        lines.append(f"  FAILED: {failure}")
    return "\n".join(lines)


def describe_layers(doc):
    traced = doc["traced"]
    lines = [f"  traced ops: {len(traced['latency_ms'])}, median "
             f"{statistics.median(traced['latency_ms']):.2f} ms vs untraced "
             f"{statistics.median(doc['latency_ms']):.2f} ms"]
    for layer, row in sorted(traced["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"    {layer:<24}{row['self_s']:>10.4f} s {100 * row['share']:>6.1f}%")
    for name, value in sorted(traced["counters"].items()):
        lines.append(f"    {name:<40}{value:>14.6g}")
    return "\n".join(lines)


def suite(args):
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else RUN_SECONDS)
    mode = "smoke" if args.smoke else "full"
    refuse_overwrite(args.output, mode)  # before minutes of runs, not after
    report = {
        "benchmark": "e2e",
        "mode": mode,
        "seed": args.seed,
        "repeat": args.repeat,
        "seconds": seconds,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git": git_state(),
        "metrics": END_TO_END,
        "workloads": {},
    }
    traced_docs = {}
    for name in WORKLOADS:
        runs = []
        for k in range(args.repeat):
            doc = run_workload(name, args.seed + k, seconds, False, args.smoke)
            metrics = end_to_end(doc)
            print(describe(f"{name} (seed {args.seed + k})", doc, metrics), flush=True)
            runs.append({
                "seed": args.seed + k, "attempted": doc["attempted"], "failed": doc["failed"],
                "failures": doc["failures"], "metrics": metrics,
                "timings": {key: {"median": statistics.median(doc[key]),
                                  "tail": tail(doc[key]), "n": len(doc[key])}
                            for key in ("latency_ms", "job_ms") if doc.get(key)},
            })
        entry = {"why": WORKLOADS[name], "runs": runs}
        if len(runs) > 1:
            entry["spread"] = {m["name"]: spread([r["metrics"][m["name"]]["value"] for r in runs])
                               for m in END_TO_END}
        if args.trace != "0":
            doc = run_workload(name, args.seed, seconds, True, args.smoke)
            print(f"{name} traced:\n{describe_layers(doc)}", flush=True)
            entry["layers"] = per_layer(doc)
            entry["traced_failed"] = doc["failed"]
            traced_docs[name] = doc
        report["workloads"][name] = entry
    if args.trace not in ("0", "1"):
        write_trace(args.trace, traced_docs)
        print(f"wrote {args.trace}")
    write_results(args.output, report)
    print(f"wrote {args.output}")
    failed = sum(r["failed"] for w in report["workloads"].values() for r in w["runs"])
    failed += sum(w.get("traced_failed", 0) for w in report["workloads"].values())
    return 1 if failed else 0


def single(args):
    doc = run_workload(args.workload, args.seed, args.seconds or RUN_SECONDS,
                       args.trace != "0", args.smoke)
    if args.trace not in ("0", "1"):
        write_trace(args.trace, {args.workload: doc})
    for failure in doc["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    line = result_line(doc, args.trace != "0")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: bench_e2e.py compare A.json B.json", file=sys.stderr)
            return 2
        with open(argv[1]) as fa, open(argv[2]) as fb:
            rows = compare(json.load(fa), json.load(fb))
        print(format_compare(rows))
        return 1 if any(r["verdict"] == "regressed" for r in rows) else 0

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="run this workload once and print one JSON result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured time per run (default {RUN_SECONDS}, "
                        f"{SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", default="0", metavar="0|1|FILE",
                        help="add a traced pass; a FILE also receives the Chrome trace")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, reference checks only")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+K-1 (suite mode)")
    parser.add_argument("--output", default=RESULTS, help="suite mode results file")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
              "is missing", file=sys.stderr)
        return 2
    try:
        return single(args) if args.workload else suite(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
