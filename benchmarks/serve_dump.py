"""Dump every ``tabby serve`` endpoint's JSON for one body per job kind.

Run it with one checkout's ``src`` on ``PYTHONPATH``, then again with
another's, and diff the two dumps: a serve refactor that claims to
leave every endpoint's output as it was should produce identical
files.  Wall-clock fields (job timestamps, the timings in the progress
rows and the refinement statistics) are dropped, since no two runs
share them.

    PYTHONPATH=src python benchmarks/serve_dump.py WORKDIR > new.json
    PYTHONPATH=../parent/src python benchmarks/serve_dump.py WORKDIR > old.json
    diff old.json new.json

WORKDIR keeps the snapshot and live CPG files between runs: the first
run writes them and later runs reuse them, so every checkout searches
the same bytes.  Bodies are submitted over HTTP to a server whose job
manager runs inline, so the job ids and counters are deterministic.
Each body is submitted twice; the second answer comes from the result
store.
"""

import argparse
import http.client
import json
import os
import sys
from urllib.parse import urlencode

from repro.core import Tabby
from repro.corpus import build_component, build_lang_base
from repro.jvm import jasm
from repro.serve.app import TabbyServer
from repro.serve.jobs import JobManager

QUERY = "MATCH (m:Method {IS_SINK: true}) RETURN m.SIGNATURE AS sink ORDER BY sink"


def classes_of(*components):
    classes = build_lang_base()
    for name in components:
        classes += build_component(name).classes
    return classes


def bodies():
    old = jasm.dumps(classes_of("CommonsBeanutils1"))
    new = jasm.dumps(classes_of("CommonsBeanutils1", "BeanShell1"))
    return [
        {"classes": jasm.dumps(classes_of("BeanShell1")),
         "options": {"sources": "native", "refine": "guards"}},
        {"components": ["commons-collections(3.2.1)", "BeanShell1"],
         "options": {"refine": "guards,rta,taint", "max_depth": 10}},
        {"diff": {"old": old, "new": new}, "options": {"refine": "guards"}},
        {"snapshot": "prog.cpg", "options": {"max_depth": 11}},
        {"live": True, "options": {"sources": "native"}},
    ]


def ensure_files(workdir):
    snaps = os.path.join(workdir, "snaps")
    os.makedirs(snaps, exist_ok=True)
    snapshot = os.path.join(snaps, "prog.cpg")
    live = os.path.join(workdir, "live.cpg")
    if not os.path.exists(snapshot):
        Tabby().add_classes(classes_of("commons-collections(3.2.1)")).save_cpg(snapshot)
    if not os.path.exists(live):
        Tabby().add_classes(classes_of("Spring")).save_cpg(live)
    return snaps, live


#: wall-clock members of job documents, their progress rows and the
#: refinement statistics
WALL_CLOCK = ("created", "started", "finished", "build_seconds",
              "search_seconds", "phase_seconds", "seconds")


def without_wall_clock(value):
    """``value`` minus job timestamps and progress timings.  A diff
    document's ``incremental`` row is kept whole: whether it carries
    timings is part of what the dump compares."""
    if isinstance(value, dict):
        return {
            key: item if key == "incremental" else without_wall_clock(item)
            for key, item in value.items()
            if key not in WALL_CLOCK
        }
    if isinstance(value, list):
        return [without_wall_clock(item) for item in value]
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir")
    args = parser.parse_args(argv)
    snaps, live = ensure_files(args.workdir)
    manager = JobManager(workers=1, inline=True, snapshot_dir=snaps, live=live)
    server = TabbyServer(("127.0.0.1", 0), manager)
    server.run_forever_in_thread()
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)

    def get(path, body=None):
        conn.request("POST" if body is not None else "GET", path,
                     body=None if body is None else json.dumps(body))
        response = conn.getresponse()
        return {"status": response.status, "body": json.loads(response.read())}

    dump = []
    try:
        for body in bodies():
            for _ in range(2):
                posted = get("/jobs", body)
                job_id = posted["body"]["id"]
                dump.append({
                    "kind": next(k for k in body if k != "options"),
                    "post": posted,
                    "job": get(f"/jobs/{job_id}"),
                    **{endpoint: get(f"/jobs/{job_id}/{endpoint}")
                       for endpoint in ("chains", "lint", "verdicts", "diff")},
                    "query": get(f"/jobs/{job_id}/query?{urlencode({'q': QUERY})}"),
                })
        dump.append({"jobs": get("/jobs"), "stats": get("/stats")})
    finally:
        conn.close()
        server.close()
    json.dump(without_wall_clock(dump), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
