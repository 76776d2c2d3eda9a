"""Workload bodies of the end-to-end benchmark, run in a child process.

    python worker.py --workload NAME --seed N --seconds S --trace 0|1
                     --size full|smoke --work DIR --out FILE

One run of one workload: its set-up (several times, keeping the last),
its measured closed loop, an optional traced pass, and the reference
checks.  It writes one JSON document to ``--out``, which
``bench_e2e.py`` turns into metrics.
"""

import argparse
import copy
import hashlib
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import zipfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from replay import CPG_PHASES, chain_records, search_counts  # noqa: E402
from spans import Tracer, layer_table  # noqa: E402

SIZES = {
    "full": {
        "component": None,  # every Table IX component
        "bulk_kb": 2000,
        "setups": 3,
        # serve round: store hits on the hot bundle, light variants (plus
        # one variant of each heavy component); each variant is sent twice
        "serve_round": (30, 9),
        # traced pass: replays, blocks of reads, edit pairs or rounds
        "traced": 3,
        "cold_checks": 2,
        "sampled_jobs": 10,
    },
    "smoke": {
        "component": "commons-collections(3.2.1)",
        "bulk_kb": 64,
        "setups": 1,
        "serve_round": (6, 2),
        "traced": 1,
        "cold_checks": 1,
        "sampled_jobs": 2,
    },
}

#: the Table IX components whose recursion clusters dominate Algorithm 1
HEAVY_COMPONENTS = ("Clojure", "Jython1")

SEARCH_DEPTHS = (8, 10, 12)
STARTS_WITH = ("read", "get", "set", "to", "invoke", "transform", "put", "hash")
QUERY_TEMPLATES = (
    "MATCH (m:Method {IS_SINK: true}) RETURN m.SIGNATURE ORDER BY m.SIGNATURE",
    "MATCH (a:Method)-[c:CALL]->(b:Method {IS_SINK: true}) "
    "RETURN a.SIGNATURE, b.NAME ORDER BY a.SIGNATURE, b.NAME",
    "MATCH (c:Class)-[:HAS]->(m:Method) WHERE m.IS_SINK = true "
    "RETURN c.NAME, count(m) AS sinks ORDER BY c.NAME",
    "MATCH (a:Method)-[:CALL|ALIAS*1..3]->(b:Method {IS_SINK: true}) "
    "RETURN DISTINCT a.SIGNATURE ORDER BY a.SIGNATURE",
    "MATCH (a:Method {IS_SOURCE: true})-[:CALL]->(b:Method) "
    "RETURN a.NAME, b.NAME ORDER BY a.NAME, b.NAME LIMIT 25",
    "MATCH (m:Method) WHERE m.NAME STARTS WITH '{prefix}' "
    "RETURN m.SIGNATURE ORDER BY m.SIGNATURE",
    "MATCH (c:Class {NAME: '{cls}'})-[:HAS]->(m:Method) "
    "RETURN m.NAME ORDER BY m.NAME",
)

EDIT_KINDS = ("drop-method", "add-method", "drop-class")

SERVE_OPTIONS = ({}, {"sources": "native"}, {"max_depth": 8}, "package-filter")
SERVE_POLL_S = 0.002
#: holds two rounds of results plus the hot bundle, so the server's
#: memory stops growing after the second round whatever the run length
SERVE_STORE_CAPACITY = 24

#: IncrementalStatistics.phase_seconds keys -> layer names
INCREMENTAL_PHASES = {
    "dirty": "incremental.dirty",
    "summaries": "cpg.summaries",
    "patch": "incremental.patch",
    "renumber": "incremental.renumber",
    "search": "search",
}


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


class Result:
    """What one run reports back to bench_e2e.py."""

    def __init__(self):
        self.doc = {
            "import_s": None,
            "setup_s": [],
            "latency_ms": [],
            "busy_s": 0.0,
            # work items completed in busy_s, when they are not the ops
            # (serve-mix times rounds but counts jobs)
            "units": None,
            "attempted": 0,
            "failed": 0,
            "failures": [],
            "rss_kb": [],
            "traced": None,
        }

    def check(self, ok, message):
        """Count one operation or reference check; record it if it failed."""
        self.doc["attempted"] += 1
        if not ok:
            self.doc["failed"] += 1
            if len(self.doc["failures"]) < 20:
                self.doc["failures"].append(message)
        return ok

    def op(self, seconds):
        self.doc["latency_ms"].append(seconds * 1000.0)
        self.doc["busy_s"] += seconds


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # every measured process compiles from source, so the first run of a
    # fresh checkout costs the same as every later one
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def tabby_argv(*args):
    return [sys.executable, "-m", "repro.cli", *args]


def run_child(argv, stdout_path):
    """Run a process to completion.  Returns ``(start_ns, end_ns,
    exit code, peak RSS in KiB)``; stdout goes to ``stdout_path``."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage.ru_maxrss


def closed_loop(seconds, op):
    """Call ``op(i)`` back to back until ``seconds`` have passed (at
    least once): one client that waits for each reply."""
    deadline = time.monotonic() + seconds
    i = 0
    while i == 0 or time.monotonic() < deadline:
        op(i)
        i += 1


def timed_setups(result, size, build):
    """Run ``build(k)`` once per set-up repetition; keep the last value."""
    value = None
    for k in range(size["setups"]):
        started = time.perf_counter()
        value = build(k)
        result.doc["setup_s"].append(time.perf_counter() - started)
    return value


def records_digest(records):
    """Order-free sha256 of a chain list."""
    lines = sorted(json.dumps(r, sort_keys=True) for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def content_digest(graph):
    """sha256 over a graph's nodes and relationships without their ids,
    so a pinned value survives changes to id allocation and to
    ``graph_fingerprint``'s own format."""
    def dump(value):
        return json.dumps(value, sort_keys=True, default=repr)

    names = {
        node.id: dump([sorted(node.labels), node.properties]) for node in graph.nodes()
    }
    lines = sorted(names.values())
    lines += sorted(
        dump([rel.type, names[rel.start_id], names[rel.end_id], rel.properties])
        for rel in graph.relationships()
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def known_found(records, specs):
    """Ground-truth chains (by endpoints) present in a chain list."""
    ends = {(r["steps"][0], r["steps"][-1]) for r in records}
    return sum(
        1
        for spec in specs
        for known in spec.known_chains
        if (".".join(known.source), ".".join(known.sink)) in ends
    )


def jasm_bytes(paths):
    """Uncompressed jasm text in the given jars."""
    total = 0
    for path in paths:
        with zipfile.ZipFile(path) as jar:
            total += sum(i.file_size for i in jar.infolist() if i.filename.endswith(".jasm"))
    return total


def load_references():
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def corpus_specs(size):
    from repro.corpus import COMPONENT_NAMES, build_component

    names = [size["component"]] if size["component"] else COMPONENT_NAMES
    return [build_component(n) for n in names]


def corpus_classes(specs):
    from repro.corpus import build_lang_base

    classes = list(build_lang_base())
    for spec in specs:
        classes.extend(spec.classes)
    return classes


def traced_replays(ctx, kind, jars, classes, verify, cache_dir=None):
    """The traced pass of a batch workload: replays, each in a fresh
    process whose spans are adopted under a ``process`` span covering
    spawn to exit, and whose output ``verify(label, code, out,
    counters)`` checks; then the Algorithm-1 attribution over
    ``classes``.  Returns each replay's wall time in ms and the
    counters, with ``jvm.jasm_kb`` totalled over the replays."""
    walls, counters = [], {}
    for n in range(ctx.size["traced"]):
        trace_path = os.path.join(ctx.work, f"replay-{n}.json")
        out = os.path.join(ctx.work, f"replay-{n}.out")
        argv = [sys.executable, os.path.join(HERE, "replay.py"), "--kind", kind,
                "--out", trace_path, "--result", out]
        if cache_dir:
            argv += ["--cache-dir", cache_dir]
        start, end, code, _ = run_child(argv + list(jars), out + ".log")
        root = ctx.tracer.add("process", start, end, op=f"replay-{n}", command=kind)
        counters = {}
        if code == 0:
            with open(trace_path) as fh:
                replay = json.load(fh)
            ctx.tracer.adopt(replay["spans"], root)
            counters = replay["counters"]
        verify(f"traced replay {n}", code, out, counters)
        walls.append((end - start) / 1e6)
    counters["jvm.jasm_kb"] = len(walls) * jasm_bytes(jars) / 1024.0

    # Algorithm 1 once more, outside any op, for its counters
    from repro.core.controllability import ControllabilityAnalysis
    from repro.jvm.hierarchy import ClassHierarchy

    with ctx.tracer.span("controllability") as args:
        analysis = ControllabilityAnalysis(ClassHierarchy(classes))
        summaries = analysis.analyze_all()
        args.update(methods=len(summaries))
    counters.update({
        "controllability.methods": len(summaries),
        "controllability.recursive_methods": len(analysis.recursive_methods),
        "controllability.cycle_tainted": len(analysis.cycle_tainted),
    })
    return walls, counters


def finish_trace(ctx, traced_ms, counters):
    ctx.result.doc["traced"] = {
        "latency_ms": traced_ms,
        "layers": layer_table(ctx.tracer.spans),
        "counters": counters,
        "spans": ctx.tracer.spans,
    }


def add_counts(counters, row):
    for key, value in row.items():
        counters[key] = counters.get(key, 0) + value


# ---------------------------------------------------------------------------
# batch workloads: one CLI process per op
# ---------------------------------------------------------------------------


def table9_audit(ctx):
    specs = corpus_specs(ctx.size)

    def setup(k):
        from repro.cli import main as tabby

        directory = os.path.join(ctx.work, f"jars-{k}")
        only = ["--component", ctx.size["component"]] if ctx.size["component"] else []
        tabby(["corpus", "export", directory, *only])
        return [os.path.join(directory, name) for name in sorted(os.listdir(directory))]

    jars = timed_setups(ctx.result, ctx.size, setup)
    ctx.rng.shuffle(jars)  # classpath order must not matter

    if ctx.size["component"] is None:
        expected = load_references()["table9"]
    else:
        from repro.core import Tabby

        records = chain_records(Tabby().add_classes(corpus_classes(specs)).find_gadget_chains())
        expected = {"chains_sha256": records_digest(records),
                    "known_found": known_found(records, specs)}

    def verify(label, code, out):
        if not ctx.result.check(code == 0, f"{label}: exit code {code}"):
            return
        with open(out) as fh:
            records = json.load(fh)
        ctx.result.check(
            records_digest(records) == expected["chains_sha256"]
            and known_found(records, specs) == expected["known_found"],
            f"{label}: chain list differs from the reference "
            f"({len(records)} chains, {known_found(records, specs)} known found)",
        )

    outputs = []

    def op(i):
        out = os.path.join(ctx.work, f"chains-{i}.json")
        start, end, code, rss = run_child(tabby_argv("chains", *jars, "--json"), out)
        ctx.result.op((end - start) / 1e9)
        ctx.result.doc["rss_kb"].append(rss)
        outputs.append((out, code))

    closed_loop(ctx.seconds, op)
    for i, (out, code) in enumerate(outputs):
        verify(f"chains run {i}", code, out)

    if ctx.trace:
        finish_trace(ctx, *traced_replays(
            ctx, "chains", jars, corpus_classes(specs),
            lambda label, code, out, _: verify(label, code, out)))


def bulk_classpath(ctx, rerun=False):
    from repro.corpus import generate_corpus
    from repro.jvm.jar import write_jar

    def setup(k):
        directory = os.path.join(ctx.work, f"bulk-{k}")
        jars = os.path.join(directory, "jars")
        os.makedirs(jars)
        archives = generate_corpus(ctx.size["bulk_kb"], seed=ctx.seed)
        for archive in archives:
            write_jar(archive, os.path.join(jars, archive.name))
        cache = None
        if rerun:
            from repro.core import Tabby

            # the same entries an earlier `tabby analyze --cache-dir` run
            # writes (keys hash class text, not jars), without its parse
            cache = os.path.join(directory, "cache")
            Tabby(cache_dir=cache).add_classes(
                [c for archive in archives for c in archive.classes]
            ).build_cpg()
        return archives, jars, cache

    archives, jars, cache = timed_setups(ctx.result, ctx.size, setup)
    classes = [c for archive in archives for c in archive.classes]
    cache_args = ["--cache-dir", cache] if cache else []
    outputs = []

    def op(i):
        out = os.path.join(ctx.work, f"out-{i}.cpg")
        log = out + ".log"
        start, end, code, rss = run_child(
            tabby_argv("analyze", jars, "-o", out, *cache_args), log
        )
        ctx.result.op((end - start) / 1e9)
        ctx.result.doc["rss_kb"].append(rss)
        outputs.append((out, log, code))

    closed_loop(ctx.seconds, op)

    # references, outside the timed window: an in-memory build of the
    # generated classes (no jars, no CLI), and the pinned content digest
    from repro.core import Tabby
    from repro.graphdb.snapshot import fingerprint_digest
    from repro.graphdb.storage import load_graph

    reference = Tabby().add_classes(classes).build_cpg().graph
    expected_fp = fingerprint_digest(reference)
    pins = load_references()["bulk"]
    pinned = None
    if pins["target_kb"] == ctx.size["bulk_kb"]:
        pinned = pins["content_sha256"].get(str(ctx.seed))
    checked = {}  # output file sha256 -> verdict

    def verify(label, code, out, class_count):
        if not ctx.result.check(code == 0, f"{label}: exit code {code}"):
            return
        ctx.result.check(
            class_count == len(classes),
            f"{label}: {class_count} classes analyzed, {len(classes)} generated",
        )
        with open(out, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        if sha not in checked:
            graph = load_graph(out)
            checked[sha] = fingerprint_digest(graph) == expected_fp and (
                pinned is None or content_digest(graph) == pinned
            )
        ctx.result.check(checked[sha], f"{label}: CPG differs from the reference build")

    for i, (out, log, code) in enumerate(outputs):
        with open(log) as fh:
            printed = re.search(r"^analyzed (\d+) classes", fh.read(), re.M)
        verify(f"analyze run {i}", code, out, printed and int(printed.group(1)))

    if ctx.trace:
        jar_paths = sorted(os.path.join(jars, n) for n in os.listdir(jars))
        finish_trace(ctx, *traced_replays(
            ctx, "analyze", jar_paths, classes,
            lambda label, code, out, counters: verify(label, code, out, counters.get("jvm.classes")),
            cache))


# ---------------------------------------------------------------------------
# in-process workloads: this process is the measured program
# ---------------------------------------------------------------------------


def snapshot_read(ctx):
    from repro.core import Tabby
    from repro.graphdb.traversal import Uniqueness

    specs = corpus_specs(ctx.size)
    classes = corpus_classes(specs)
    packages = sorted({spec.package for spec in specs if spec.package})
    source_filter = ctx.rng.choice(packages)
    ops = [
        ("search", depth, uniqueness, flt)
        for depth in SEARCH_DEPTHS
        for uniqueness in (Uniqueness.RELATIONSHIP_PATH, Uniqueness.NODE_PATH)
        for flt in (None, source_filter)
    ]
    params = {"prefix": ctx.rng.choice(STARTS_WITH),
              "cls": ctx.rng.choice(sorted(c.name for c in classes))}
    ops += [("query", t.replace("{prefix}", params["prefix"]).replace("{cls}", params["cls"]))
            for t in QUERY_TEMPLATES]

    def run_op(tabby, op):
        if op[0] == "search":
            chains = tabby.find_gadget_chains(max_depth=op[1], uniqueness=op[2], source_filter=op[3])
            return [chain.key for chain in chains]
        return tabby.query(op[1]).rows

    def setup(k):
        path = os.path.join(ctx.work, f"table9-{k}.cpg")
        Tabby().add_classes(corpus_classes(specs)).save_cpg(path, format="v3")
        decoded = Tabby.load_cpg(path, mmap=False)
        return Tabby.load_cpg(path), [run_op(decoded, op) for op in ops]

    tabby, expected = timed_setups(ctx.result, ctx.size, setup)
    order = list(range(len(ops)))
    queue = []

    def op(i):
        if not queue:
            ctx.rng.shuffle(order)
            queue.extend(order)
        index = queue.pop()
        started = time.perf_counter()
        value = run_op(tabby, ops[index])
        ctx.result.op(time.perf_counter() - started)
        ctx.result.check(value == expected[index], f"op {ops[index]!r} differs from reference")

    closed_loop(ctx.seconds, op)

    if ctx.trace:
        traced, counters = [], {"query.rows": 0}
        for block in range(ctx.size["traced"]):
            for index in order:
                kind = ops[index][0]
                with ctx.tracer.span(kind, op=f"read-{block}-{index}"):
                    value = run_op(tabby, ops[index])
                span = ctx.tracer.spans[-1]
                traced.append((span["end_ns"] - span["start_ns"]) / 1e6)
                ctx.result.check(value == expected[index], f"traced op {ops[index]!r} differs")
                if kind == "search":
                    add_counts(counters, search_counts(tabby.last_search_stats))
                else:
                    counters["query.rows"] += len(value)
        finish_trace(ctx, traced, counters)


def incremental_edit(ctx):
    from repro.core.incremental import IncrementalAnalyzer
    from repro.corpus import build_lang_base
    from repro.graphdb.snapshot import fingerprint_digest
    from repro.jvm.model import JavaMethod

    specs = corpus_specs(ctx.size)

    def setup(k):
        classes = corpus_classes(specs)
        session = IncrementalAnalyzer(classes)
        return classes, session, [c.key for c in session.chains], fingerprint_digest(session.cpg.graph)

    classes, session, initial_keys, initial_fp = timed_setups(ctx.result, ctx.size, setup)
    # edits stay out of the shared base and the recursion clusters: an
    # edit inside a cluster re-runs ~1 s of Algorithm 1 (table9-audit
    # measures that), and a few such draws would dominate a run
    fixed = {c.name for c in build_lang_base()} | {
        c.name for spec in specs if spec.name in HEAVY_COMPONENTS for c in spec.classes
    }
    parents = {name for c in classes for name in (c.super_name, *c.interface_names)}

    def body_methods(cls):
        return [key for key, m in cls.methods.items() if m.has_body]

    candidates = {
        "drop-method": [i for i, c in enumerate(classes)
                        if c.name not in fixed and len(body_methods(c)) > 1],
        "add-method": [i for i, c in enumerate(classes)
                       if c.name not in fixed and body_methods(c)],
        "drop-class": [i for i, c in enumerate(classes)
                       if c.name not in fixed and c.name not in parents],
    }

    def edit(i, rng):
        """A seeded 1-class edit of the original classes."""
        kind = EDIT_KINDS[i % len(EDIT_KINDS)]
        index = rng.choice(candidates[kind])
        edited = list(classes)
        if kind == "drop-class":
            del edited[index]
            return edited
        cls = copy.deepcopy(classes[index])
        keys = body_methods(cls)
        if kind == "drop-method":
            del cls.methods[keys[-1]]
        else:
            source = cls.methods[keys[0]]
            method = JavaMethod(source.name + "Edited", source.param_types,
                                source.return_type, source.modifiers, source.param_names)
            method.body = copy.deepcopy(source.body)
            cls.add_method(method)
        edited[index] = cls
        return edited

    def reverted(label):
        return ctx.result.check(
            [c.key for c in session.chains] == initial_keys
            and fingerprint_digest(session.cpg.graph) == initial_fp,
            f"{label}: revert did not restore the initial chains and fingerprint",
        )

    def op(i):
        edited = edit(i, ctx.rng)
        started = time.perf_counter()
        session.update(edited)
        session.update(classes)
        ctx.result.op(time.perf_counter() - started)
        reverted(f"edit {i}")

    closed_loop(ctx.seconds, op)

    if ctx.trace:
        traced, counters = [], {"incremental.full_rebuilds": 0}
        researched = total = 0
        for i in range(ctx.size["traced"]):
            edited = edit(i, ctx.rng)
            pair_ms = 0.0
            for version in (edited, classes):
                with ctx.tracer.span("incremental.update", op=f"edit-{i}"):
                    result = session.update(version)
                update = ctx.tracer.spans[-1]
                stats = result.statistics
                ctx.tracer.phases(update["id"], [
                    (INCREMENTAL_PHASES.get(phase, f"incremental.{phase}"), seconds)
                    for phase, seconds in stats.phase_seconds.items()
                ])
                pair_ms += (update["end_ns"] - update["start_ns"]) / 1e6
                add_counts(counters, {
                    "incremental.classes_reanalyzed": stats.classes_reanalyzed,
                    "incremental.methods_reanalyzed": stats.methods_reanalyzed,
                    "incremental.full_rebuilds": int(stats.full_rebuild),
                })
                add_counts(counters, search_counts(session.last_search_stats))
                researched += stats.sinks_researched
                total += stats.sinks_total
            traced.append(pair_ms)
            reverted(f"traced edit {i}")
        counters["incremental.sinks_researched_ratio"] = researched / total if total else 0.0
        finish_trace(ctx, traced, counters)

    # sampled edited states against a cold rebuild, after the timed and
    # traced updates (the rebuilds leave a larger heap behind)
    check_rng = random.Random(ctx.seed + 1)
    for n in range(ctx.size["cold_checks"]):
        edited = edit(check_rng.randrange(len(EDIT_KINDS)), check_rng)
        session.update(edited)
        cold = IncrementalAnalyzer([copy.deepcopy(c) for c in edited])
        ctx.result.check(
            [c.key for c in session.chains] == [c.key for c in cold.chains]
            and fingerprint_digest(session.cpg.graph) == fingerprint_digest(cold.cpg.graph),
            f"cold check {n}: edited state differs from a cold rebuild",
        )
        session.update(classes)
        reverted(f"cold check {n}")


# ---------------------------------------------------------------------------
# serve-mix: a `tabby serve` child and two closed-loop clients
# ---------------------------------------------------------------------------


class Conn:
    """One keep-alive connection speaking the job API's JSON."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method, path, body=None):
        self.conn.request(method, path, body=body)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self):
        self.conn.close()


def start_server():
    proc = subprocess.Popen(
        tabby_argv("serve", "--port", "0", "--workers", "2",
                   "--store-capacity", str(SERVE_STORE_CAPACITY)),
        stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, env=child_env(), cwd=ROOT,
    )
    line = b""
    for line in proc.stderr:
        if b"listening on http://" in line:
            break
    else:
        stop_server(proc)
        raise RuntimeError(f"tabby serve did not start: {line!r}")
    return proc, int(line.split(b"listening on http://", 1)[1].split(b" ")[0].rsplit(b":", 1)[1])


def stop_server(proc):
    """Interrupt (drain and exit), reap, and return the peak RSS in KiB."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.stderr.read()
    finally:
        proc.stderr.close()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except ChildProcessError:  # already reaped by poll()
        return 0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def run_job(conn, body):
    """POST a submission and poll until it ends; returns the timings,
    the POST status and the final job document."""
    start = time.monotonic_ns()
    _, doc = conn.request("POST", "/jobs", body)
    posted = time.monotonic_ns()
    status, polls = doc.get("status"), 0
    while doc.get("state") not in ("done", "failed", "cancelled"):
        time.sleep(SERVE_POLL_S)
        polls += 1
        _, doc = conn.request("GET", f"/jobs/{doc['id']}")
    return {"start": start, "posted": posted, "end": time.monotonic_ns(),
            "status": status, "polls": polls, "doc": doc}


def serve_mix(ctx):
    from repro.core import SourceCatalog, Tabby
    from repro.corpus import build_lang_base
    from repro.jvm import jasm

    specs = {spec.name: spec for spec in corpus_specs(ctx.size)}
    base = jasm.dumps(build_lang_base())
    bundles = {name: base + "\n" + jasm.dumps(spec.classes) for name, spec in specs.items()}
    heavy = sorted(n for n in specs if n in HEAVY_COMPONENTS)
    light = sorted(n for n in specs if n not in HEAVY_COMPONENTS)
    hot = ctx.rng.choice(light)
    n_hot, n_light = ctx.size["serve_round"]

    def options(component, index):
        choice = SERVE_OPTIONS[index]
        if choice == "package-filter":
            return {"source_filter": specs[component].package}
        return dict(choice)

    def body(component, index, tag):
        text = bundles[component] + (f"\n// round {tag}\n" if tag is not None else "")
        return json.dumps({"classes": text, "options": options(component, index)}).encode()

    hot_body = body(hot, 0, None)

    def round_requests(r):
        """One request list per client.  Store hits on the hot bundle,
        split evenly; ``n_light`` light variants, each sent by both
        clients (the first computes, the second attaches or hits); and
        one variant of each heavy component, both sent by the first
        client, so every round has the same heavy tail and the two
        heavy jobs never run at once.  Every round's variants are new
        content, so each round computes again."""
        lists = [[("hot", hot_body)] * (n_hot // 2), [("hot", hot_body)] * (n_hot - n_hot // 2)]
        lists[0] += [((c, i, r), body(c, i, r))
                     for c in heavy for i in [ctx.rng.randrange(len(SERVE_OPTIONS))]]
        variants = [(c, i) for c in light for i in range(len(SERVE_OPTIONS))]
        for c, i in ctx.rng.sample(variants, n_light):
            lists[0].append(((c, i, r), body(c, i, r)))
            lists[1].append(((c, i, r), body(c, i, r)))
        for requests in lists:
            ctx.rng.shuffle(requests)
        return lists

    servers = []

    def setup(k):
        proc, port = start_server()
        servers.append(proc)
        conn = Conn(port)
        job = run_job(conn, hot_body)
        conn.close()
        return port, job["doc"]

    conns = []
    try:
        port, prewarm = timed_setups(ctx.result, ctx.size, setup)
        for proc in servers[:-1]:
            stop_server(proc)
        conns = [Conn(port), Conn(port)]
        fingerprints = {"hot": prewarm.get("fingerprint")}
        jobs, makespans = run_rounds(ctx, conns, round_requests, fingerprints, 0)
        for seconds in makespans:
            ctx.result.op(seconds)
        ctx.result.doc["units"] = len(jobs)
        ctx.result.doc["job_ms"] = [(j["end"] - j["start"]) / 1e6 for j in jobs]

        if ctx.trace:
            _, before = conns[0].request("GET", "/stats")
            offset = time.time_ns() - time.monotonic_ns()
            traced_jobs, traced = run_rounds(ctx, conns, round_requests, fingerprints,
                                             len(makespans), rounds=ctx.size["traced"])
            _, after = conns[0].request("GET", "/stats")
            counters = serve_trace(ctx, traced_jobs, before, after, offset)
            finish_trace(ctx, [seconds * 1000.0 for seconds in traced], counters)

        # references, outside the window: the pre-warmed bundle and a
        # seeded sample of computed jobs against direct library calls
        def direct(component, index, tag):
            opts = options(component, index)
            sources = SourceCatalog.native() if opts.get("sources") == "native" else None
            text = bundles[component] + (f"\n// round {tag}\n" if tag is not None else "")
            chains = Tabby(sources=sources).add_classes(jasm.loads(text)).find_gadget_chains(
                max_depth=opts.get("max_depth", 12), source_filter=opts.get("source_filter"))
            return chain_records(chains)

        computed = [j for j in jobs if j["status"] == "new"]
        sample = [(prewarm["id"], (hot, 0, None))] + [
            (j["doc"]["id"], j["key"])
            for j in ctx.rng.sample(computed, min(ctx.size["sampled_jobs"], len(computed)))
        ]
        for job_id, key in sample:
            _, served = conns[0].request("GET", f"/jobs/{job_id}/chains")
            ctx.result.check(served.get("chains") == direct(*key),
                             f"job {job_id} {key[:2]}: chains differ from a direct call")
    finally:
        for conn in conns:
            conn.close()
        ctx.result.doc["rss_kb"] = [stop_server(proc) for proc in servers if proc.returncode is None]


def run_rounds(ctx, conns, round_requests, fingerprints, first, rounds=None):
    """Rounds of submissions, one closed-loop client thread per
    connection working through its own list; a round ends when its last
    job is done, and new rounds start until the deadline has passed (or
    ``rounds`` rounds ran).  Returns the jobs and each round's makespan
    in seconds."""
    deadline = time.monotonic() + ctx.seconds
    jobs, makespans = [], []
    lock = threading.Lock()
    while (len(makespans) < rounds) if rounds else (
            not makespans or time.monotonic() < deadline):
        r = first + len(makespans)

        def client(conn, requests):
            for key, payload in requests:
                try:
                    job = run_job(conn, payload)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    with lock:
                        ctx.result.check(False, f"round {r} {key!r}: {exc!r}")
                    return
                job["key"] = key
                doc = job["doc"]
                with lock:
                    jobs.append(job)
                    expected = fingerprints.setdefault(key, doc.get("fingerprint"))
                    ctx.result.check(
                        doc.get("state") == "done" and doc.get("fingerprint") == expected,
                        f"job {doc.get('id')} {key!r}: {doc.get('state')}, "
                        f"fingerprint {doc.get('fingerprint')} (expected {expected})",
                    )

        started = time.monotonic()
        threads = [threading.Thread(target=client, args=pair)
                   for pair in zip(conns, round_requests(r))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        makespans.append(time.monotonic() - started)
    return jobs, makespans


def serve_trace(ctx, jobs, before, after, offset):
    """Spans and counters for a traced round: the client's view of each
    job, with the server's queue/service intervals and build/search
    phases from the job document placed inside it."""
    counters = {"serve.attached": 0}
    polled = []

    def mono(wall_seconds):
        return int(wall_seconds * 1e9) - offset

    for n, job in enumerate(jobs):
        doc = job["doc"]
        root = ctx.tracer.add("serve.job", job["start"], job["end"], op=f"job-{n}",
                              status=job["status"])
        ctx.tracer.add("serve.submit", job["start"], job["posted"], parent=root)
        if job["status"] == "cached":
            continue
        polled.append(job["polls"])
        counters["serve.attached"] += job["status"] == "attached"
        # the client's view: server time from the moment the POST returned
        started = max(mono(doc["started"]), job["posted"])
        ctx.tracer.add("serve.queue", max(mono(doc["created"]), job["posted"]), started,
                       parent=root)
        service = ctx.tracer.add("serve.service", started, mono(doc["finished"]), parent=root)
        if job["status"] != "new":
            continue
        cpg, search = doc["progress"]["cpg"], doc["progress"]["search"]
        ctx.tracer.phases(service, [(layer, cpg["phase_seconds"][phase])
                                    for phase, layer in CPG_PHASES]
                          + [("search", search["search_seconds"])])
        add_counts(counters, {
            "cpg.nodes": cpg["class_nodes"] + cpg["method_nodes"],
            "cpg.edges": cpg["relationship_edges"],
            "cpg.pruned_call_sites": cpg["pruned_call_sites"],
            "search.chains": search["chains_found"],
            "search.paths_visited": search["paths_visited"],
            "search.reachability_pruned": search["reachability_pruned"],
            "search.negative_cache_hits": search["negative_cache_hits"],
        })
    hits = after["store"]["hits"] - before["store"]["hits"]
    misses = after["store"]["misses"] - before["store"]["misses"]
    counters["serve.store_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    counters["serve.polls_per_job"] = sum(polled) / len(polled) if polled else 0.0
    return counters


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class Context:
    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.size = SIZES[args.size]
        self.work = args.work
        self.rng = random.Random(args.seed)
        self.result = Result()
        self.tracer = Tracer()


RUNNERS = {
    "table9-audit": table9_audit,
    "bulk-classpath": bulk_classpath,
    "bulk-rerun": lambda ctx: bulk_classpath(ctx, rerun=True),
    "snapshot-read": snapshot_read,
    "incremental-edit": incremental_edit,
    "serve-mix": serve_mix,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(RUNNERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    ctx = Context(args)
    with ctx.tracer.span("import"):
        import repro.cli  # noqa: F401
    span = ctx.tracer.spans[0]
    ctx.result.doc["import_s"] = (span["end_ns"] - span["start_ns"]) / 1e9
    try:
        RUNNERS[args.workload](ctx)
    finally:
        with open(args.out, "w") as fh:
            json.dump(ctx.result.doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
