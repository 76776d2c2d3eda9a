"""Serve benchmark: latency/throughput of the ``tabby serve`` job API.

Three measurements against an in-process server, all over persistent
HTTP/1.1 connections:

* **serial baseline** — a 1-worker server computing N *distinct*
  submissions back-to-back (submit, poll to done, repeat).  Every job
  misses the result store, so this is the throughput of the service
  when each request pays for a full parse -> CPG -> search pipeline
  serially: the "1 worker serial baseline" of the acceptance gate.

* **warm cache** — one bundle is computed once, then ``clients``
  threads each fire M identical POST /jobs; every response must come
  back ``status == "cached"``.  Reported per client count (1 and 8 in
  full mode) with p50/p99 latency and aggregate throughput.

* **equivalence** (every mode, smoke included) — the chains fetched
  over the live HTTP API are diffed against a direct
  ``Tabby.find_gadget_chains`` call on the same classes; any
  divergence fails the run.

The full run asserts warm-cache throughput at 8 concurrent clients is
>= 2x the serial baseline and writes ``BENCH_serve.json``; ``--smoke``
shrinks the request counts and skips the throughput gate (equivalence
is always enforced), which is what CI runs.
A ``--smoke`` run refuses to overwrite a full-mode results file, so
pass ``--output`` elsewhere when smoke-testing.
"""

import argparse
import http.client
import json
import statistics
import sys
import threading
import time

sys.path.insert(0, "src")

from repro.core import SourceCatalog, Tabby
from repro.jvm import jasm
from repro.jvm.builder import ProgramBuilder
from repro.jvm.model import SERIALIZABLE
from repro.serve import create_server
from smoke_guard import refuses_smoke_overwrite

OPTIONS = {"sources": "native"}


def gadget_classes(tag):
    """The Figure-1 three-class gadget program, parameterised by package
    so distinct tags produce distinct content hashes."""
    pb = ProgramBuilder(jar=f"{tag}.jar")
    obj = pb.cls("java.lang.Object", extends=None)
    obj.abstract_method("toString", returns="java.lang.String")
    obj.finish()
    with pb.cls(f"{tag}.EvilObjectB", implements=[SERIALIZABLE]) as c:
        c.field("val2", "java.lang.Object")
        with c.method("toString", returns="java.lang.String") as m:
            v = m.get_field(m.this, "val2")
            cmd = m.invoke(
                v, "java.lang.Object", "toString", returns="java.lang.String"
            )
            rt = m.invoke_static(
                "java.lang.Runtime", "getRuntime", returns="java.lang.Runtime"
            )
            m.invoke(rt, "java.lang.Runtime", "exec", [cmd])
            m.ret(cmd)
    with pb.cls(f"{tag}.EvilObjectA", implements=[SERIALIZABLE]) as c:
        c.field("val1", "java.lang.Object")
        with c.method("readObject", params=["java.io.ObjectInputStream"]) as m:
            v = m.get_field(m.this, "val1")
            m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")
            m.ret()
    return pb.build()


def submission_body(tag):
    return json.dumps(
        {"classes": jasm.dumps(gadget_classes(tag)), "options": OPTIONS}
    ).encode()


class Conn:
    """One persistent keep-alive connection speaking the JSON protocol."""

    def __init__(self, host, port):
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def request(self, method, path, body=None):
        self.conn.request(method, path, body=body)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def poll_done(self, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, doc = self.request("GET", f"/jobs/{job_id}")
            assert status == 200, doc
            if doc["state"] in ("done", "failed", "cancelled"):
                return doc
        raise AssertionError(f"job {job_id} did not finish within {timeout}s")

    def close(self):
        self.conn.close()


def percentiles(latencies):
    ordered = sorted(latencies)
    return {
        "p50_ms": statistics.median(ordered) * 1000,
        "p99_ms": ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))] * 1000,
        "mean_ms": statistics.fmean(ordered) * 1000,
    }


def serial_baseline(host, port, jobs, failures):
    """1-worker server, distinct bundles, submit-and-wait serially:
    end-to-end job latency with every request paying full compute."""
    conn = Conn(host, port)
    latencies = []
    started = time.perf_counter()
    for i in range(jobs):
        body = submission_body(f"cold{i}")
        t0 = time.perf_counter()
        status, doc = conn.request("POST", "/jobs", body)
        if doc.get("status") != "new":
            failures.append(
                f"serial baseline job {i}: expected a fresh compute, "
                f"got {doc.get('status')!r}"
            )
        final = conn.poll_done(doc["id"])
        latencies.append(time.perf_counter() - t0)
        if final["state"] != "done":
            failures.append(f"serial baseline job {i}: state {final['state']}")
    wall = time.perf_counter() - started
    conn.close()
    return {"jobs": jobs, "throughput_rps": jobs / wall, **percentiles(latencies)}


def warm_cache_run(host, port, clients, requests_each, body, failures):
    """``clients`` threads x ``requests_each`` identical POSTs, all of
    which must be served from the result store."""
    latencies = []
    lock = threading.Lock()

    def client_thread():
        conn = Conn(host, port)
        local = []
        for _ in range(requests_each):
            t0 = time.perf_counter()
            status, doc = conn.request("POST", "/jobs", body)
            local.append(time.perf_counter() - t0)
            if status != 200 or doc.get("status") != "cached":
                with lock:
                    failures.append(
                        f"warm run (clients={clients}): expected a cache "
                        f"hit, got HTTP {status} status={doc.get('status')!r}"
                    )
                return
        conn.close()
        with lock:
            latencies.extend(local)

    threads = [threading.Thread(target=client_thread) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    total = clients * requests_each
    return {
        "clients": clients,
        "requests": total,
        "throughput_rps": total / wall,
        **percentiles(latencies or [wall]),
    }


def check_equivalence(host, port, failures):
    """Round-trip a bundle through the live API and diff against the
    direct library call."""
    conn = Conn(host, port)
    classes = gadget_classes("equiv")
    body = json.dumps({"classes": jasm.dumps(classes), "options": OPTIONS}).encode()
    _, doc = conn.request("POST", "/jobs", body)
    final = conn.poll_done(doc["id"])
    if final["state"] != "done":
        failures.append(f"equivalence job failed: {final.get('error')}")
        conn.close()
        return False
    _, payload = conn.request("GET", f"/jobs/{doc['id']}/chains")
    conn.close()
    chains = (
        Tabby(sources=SourceCatalog.native())
        .add_classes(classes)
        .find_gadget_chains()
    )
    expected = [
        {
            "steps": [step.qualified for step in chain.steps],
            "sink_category": chain.sink_category,
        }
        for chain in chains
    ]
    if payload["chains"] != expected:
        failures.append(
            "HTTP chains diverge from the direct API: "
            f"{payload['chains']!r} != {expected!r}"
        )
        return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny request counts, equivalence checks only (no throughput gate)",
    )
    parser.add_argument("--output", default="BENCH_serve.json")
    args = parser.parse_args(argv)
    if refuses_smoke_overwrite(args):
        return 2

    if args.smoke:
        baseline_jobs, requests_each, client_counts = 4, 20, [1, 4]
    else:
        baseline_jobs, requests_each, client_counts = 40, 300, [1, 2, 8]

    failures = []
    report = {
        "benchmark": "serve",
        "mode": "smoke" if args.smoke else "full",
        "options": OPTIONS,
    }

    # -- serial baseline: its own 1-worker server, nothing pre-warmed
    server = create_server(workers=1)
    server.run_forever_in_thread()
    host, port = "127.0.0.1", server.port
    print(f"serial baseline: {baseline_jobs} distinct jobs, 1 worker ...")
    baseline = serial_baseline(host, port, baseline_jobs, failures)
    report["serial_baseline"] = baseline
    print(f"  {baseline['throughput_rps']:7.1f} jobs/s  "
          f"p50 {baseline['p50_ms']:6.2f}ms  p99 {baseline['p99_ms']:6.2f}ms")
    server.close()

    # -- warm cache: a fresh server, one computed bundle, hammered
    server = create_server(workers=2)
    server.run_forever_in_thread()
    host, port = "127.0.0.1", server.port
    body = submission_body("hot")
    warmer = Conn(host, port)
    _, doc = warmer.request("POST", "/jobs", body)
    warmer.poll_done(doc["id"])
    warmer.close()

    report["warm_cache"] = []
    for clients in client_counts:
        entry = warm_cache_run(host, port, clients, requests_each, body, failures)
        report["warm_cache"].append(entry)
        print(f"warm cache, {clients} client(s): "
              f"{entry['throughput_rps']:7.1f} rps  "
              f"p50 {entry['p50_ms']:6.2f}ms  p99 {entry['p99_ms']:6.2f}ms")

    equivalent = check_equivalence(host, port, failures)
    print(f"HTTP vs direct API equivalence: {'ok' if equivalent else 'FAILED'}")

    _, stats = Conn(host, port).request("GET", "/stats")
    store = stats["store"]
    lookups = store["hits"] + store["misses"]
    report["warm_hit_ratio"] = store["hits"] / lookups if lookups else 0.0
    print(f"result-store hit ratio on the warm server: "
          f"{report['warm_hit_ratio']:.4f} "
          f"({store['hits']} hits / {lookups} lookups)")
    server.close()

    concurrent = report["warm_cache"][-1]
    speedup = concurrent["throughput_rps"] / baseline["throughput_rps"]
    report["speedup_8_clients_warm_vs_serial"] = speedup
    print(f"warm throughput at {concurrent['clients']} clients vs serial "
          f"recompute baseline: {speedup:.1f}x")

    if not args.smoke and speedup < 2.0:
        failures.append(
            f"expected >=2x throughput at 8 concurrent warm-cache clients "
            f"vs the 1-worker serial baseline, got {speedup:.2f}x"
        )

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
