"""Traced stand-in for one ``tabby chains``/``tabby analyze`` process.

    python replay.py --kind chains|analyze --out SPANS --result FILE
                     [--cache-dir DIR] JAR...

A CLI process cannot be traced from outside, so the traced pass of a
batch workload runs this instead: a fresh process that makes the same
library calls the CLI makes, with a span around each.  It writes the
command's output to ``--result`` and its spans and counters to
``--out``.  It imports little beyond what the CLI imports, so its wall
time stays comparable with the CLI's.
"""

import time

#: taken before any other import, so the import span starts as close
#: to interpreter start as Python code can get
STARTED_NS = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from spans import Tracer  # noqa: E402

#: CPGStatistics.phase_seconds keys -> layer names
CPG_PHASES = (("summaries", "cpg.summaries"), ("org", "cpg.assemble"),
              ("pcg", "cpg.assemble"), ("mag", "cpg.assemble"))


def chain_records(chains):
    """The ``tabby chains --json`` record of each chain."""
    return [
        {"steps": [s.qualified for s in chain.steps], "sink_category": chain.sink_category}
        for chain in chains
    ]


def search_counts(stats):
    return {
        "search.chains": stats.chains_found,
        "search.paths_visited": stats.paths_visited,
        "search.reachability_pruned": stats.reachability_pruned,
        "search.negative_cache_hits": stats.negative_cache_hits,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("chains", "analyze"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("jars", nargs="+")
    args = parser.parse_args(argv)

    tracer = Tracer()
    import repro.cli  # noqa: F401  (what the CLI imports before it runs)
    from repro.core.cpg import CPGBuilder
    from repro.core.pathfinder import GadgetChainFinder
    from repro.core.sources import SourceCatalog
    from repro.graphdb.storage import save_graph
    from repro.jvm.hierarchy import ClassHierarchy
    from repro.jvm.jar import load_classpath

    imported = time.monotonic_ns()
    tracer.add("import", STARTED_NS, imported)
    counters = {"import.s": (imported - STARTED_NS) / 1e9}
    with tracer.span("jvm.load_classpath"):
        classes = [c for archive in load_classpath(args.jars) for c in archive.classes]
    counters["jvm.classes"] = len(classes)
    with tracer.span("jvm.hierarchy"):
        hierarchy = ClassHierarchy(classes)
    with tracer.span("cpg.build") as span_args:
        cpg = CPGBuilder(
            hierarchy, sources=SourceCatalog.extended(), parallel=1, cache=args.cache_dir
        ).build()
    stats = cpg.statistics
    tracer.phases(tracer.spans[-1]["id"],
                  [(layer, stats.phase_seconds[phase]) for phase, layer in CPG_PHASES])
    span_args.update(analyzed_methods=stats.analyzed_method_count)
    counters.update({
        "cpg.nodes": stats.class_node_count + stats.method_node_count,
        "cpg.edges": stats.relationship_edge_count,
        "cpg.pruned_call_sites": stats.pruned_call_sites,
        "summary_cache.hits": stats.cache_hits,
        "summary_cache.misses": stats.cache_misses,
        "summary_cache.methods_reused": stats.cached_method_count,
    })
    if args.kind == "chains":
        with tracer.span("search"):
            finder = GadgetChainFinder(cpg, workers=1)
            chains = finder.find_chains()
        counters.update(search_counts(finder.last_search_stats))
        with tracer.span("emit"):
            with open(args.result, "w") as fh:
                fh.write(json.dumps(chain_records(chains), indent=2))
    else:
        with tracer.span("storage.save"):
            save_graph(cpg.graph, args.result, format="v3")
        counters["storage.bytes"] = os.path.getsize(args.result)
    with open(args.out, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": counters}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
