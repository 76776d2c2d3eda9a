"""Command-line interface (the ``tabby`` entry point).

Subcommands::

    tabby analyze PATH [PATH...]     build a CPG from jars, save it
                                     (--format v3|json, default v3)
    tabby chains PATH [PATH...]      find (and optionally verify) chains
    tabby chains --cpg FILE          ... over a persisted CPG (warm start)
    tabby diff OLD NEW               compare chains across two classpath
                                     versions (appeared / disappeared /
                                     survived, incremental re-analysis)
    tabby lint [PATH...] [--corpus]  dataflow-based IR lint (repro.lint)
    tabby query CPG "MATCH ..."      run a Cypher-subset query on a CPG
    tabby bench {table8,table9,table10,table11}
                                     regenerate an evaluation table
    tabby corpus export DIR          write the synthetic corpus as jars
    tabby corpus list                list components and scenes
    tabby serve                      run the analysis-as-a-service HTTP
                                     API (see repro.serve)

``PATH`` arguments are jasm jar files or directories of them (see
``repro.jvm.jar``); ``tabby corpus export`` produces a ready-made set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.core import SourceCatalog, Tabby
from repro.core.chains import chain_record
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def _workers_arg(value: str) -> int:
    """``tabby serve --workers``: a count >= 1, or 'auto' (returned as
    0) for one job thread per schedulable CPU.  ``0`` and negative
    counts fail argument parsing (exit 2)."""
    if value == "auto":
        return 0
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid worker count: {value!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(
            "worker count must be >= 1 (or 'auto' for one per CPU)"
        )
    return count


def _port_arg(value: str) -> int:
    try:
        port = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid port: {value!r}")
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError("port must be in [0, 65535]")
    return port


def _positive_float_arg(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {value!r}")
    if number <= 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return number


def _positive_int_arg(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid count: {value!r}")
    if number < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return number


def _nonnegative_int_arg(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid count: {value!r}")
    if number < 0:
        raise argparse.ArgumentTypeError("value must be >= 0")
    return number


def _refine_modes_arg(value: str) -> tuple:
    """Comma-separated subset of the refinement modes (guards,rta,taint),
    in canonical order."""
    from repro.analysis.chain_refiner import parse_refine_modes

    try:
        return parse_refine_modes(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabby",
        description="Gadget-chain detection for Java deserialization "
        "vulnerabilities (Tabby reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="build and persist a CPG")
    analyze.add_argument("classpath", nargs="+", help="jar files or directories")
    analyze.add_argument("-o", "--output", default=None,
                         help="output path (default: tabby.cpg for v3, "
                         "tabby.cpg.json.gz for json)")
    analyze.add_argument("--format", choices=("v3", "json"), default="v3",
                         help="snapshot format: 'v3' is the mmap-able "
                         "zero-copy snapshot (default; opens in O(header) and "
                         "shares one physical copy across processes); 'json' "
                         "emits the byte-stable v1 document for diffing. "
                         "Readers auto-detect either format.")
    analyze.add_argument("--sources", choices=("native", "extended"), default="extended")
    analyze.add_argument("--validate", action="store_true",
                         help="run Soot-style body/linkage validation first")
    analyze.add_argument("--check-cpg", action="store_true",
                         help="verify CPG structural invariants after the build")
    analyze.add_argument("--refine", type=_refine_modes_arg, default=None,
                         metavar="MODES",
                         help="comma-separated refinement passes to run "
                         "before saving: 'rta' marks type-unreachable "
                         "dispatch edges (persisted in the snapshot), "
                         "'taint' precomputes field-sensitive taint "
                         "summaries (warming --cache-dir when set); "
                         "'guards' persists nothing and is rejected")
    _add_build_flags(analyze)

    chains = sub.add_parser("chains", help="find gadget chains")
    chains.add_argument("classpath", nargs="*")
    chains.add_argument("--cpg", default=None, metavar="FILE",
                        help="search a CPG persisted by 'tabby analyze' "
                        "(either format, auto-detected) instead of building "
                        "one from a classpath")
    chains.add_argument("--sources", choices=("native", "extended"), default="extended")
    _add_build_flags(chains)
    chains.add_argument("--max-depth", type=int, default=12)
    chains.add_argument("--source-filter", default=None, metavar="PACKAGE_PREFIX")
    chains.add_argument("--verify", action="store_true", help="run the PoC oracle")
    chains.add_argument("--payload", action="store_true",
                        help="synthesise exploit recipes (§V-C)")
    chains.add_argument("--check-cpg", action="store_true",
                        help="verify CPG structural invariants after the build")
    chains.add_argument("--refine", type=_refine_modes_arg, default=None,
                        metavar="MODES",
                        help="comma-separated refinement passes "
                        "(guards,rta,taint): refute chains behind "
                        "constant-false guards, via type reachability "
                        "and/or via taint summaries; the refined list is "
                        "a verbatim subset of the unrefined one "
                        "(extension, off by default)")
    chains.add_argument("--json", action="store_true", help="machine-readable output")

    diff = sub.add_parser(
        "diff", help="compare gadget chains across two classpath versions"
    )
    diff.add_argument("old", nargs=1, help="old-version jar file or directory")
    diff.add_argument("new", nargs=1, help="new-version jar file or directory")
    diff.add_argument("--sources", choices=("native", "extended"), default="extended")
    _add_build_flags(diff)
    diff.add_argument("--max-depth", type=int, default=12)
    diff.add_argument("--source-filter", default=None, metavar="PACKAGE_PREFIX")
    diff.add_argument("--refine", type=_refine_modes_arg, default=None,
                      metavar="MODES",
                      help="comma-separated refinement passes "
                      "(guards,rta,taint) over the appeared chains")
    diff.add_argument("--json", action="store_true",
                      help="emit the versioned tabby-diff/v2 document")

    lint = sub.add_parser(
        "lint", help="dataflow-based lint over jasm classes or the corpus"
    )
    lint.add_argument("classpath", nargs="*", help="jar files or directories")
    lint.add_argument("--corpus", action="store_true",
                      help="lint the built-in synthetic corpus instead")
    lint.add_argument("--json", action="store_true", help="machine-readable output")
    lint.add_argument("--fail-on-error", action="store_true",
                      help="exit 1 if any unsuppressed error-severity issue")
    lint.add_argument("--interprocedural", action="store_true",
                      help="also run the whole-program summary-backed "
                      "rules (taint-unreachable-sink, "
                      "alias-never-instantiated); noisy on decoy-rich "
                      "inputs like the corpus")

    query = sub.add_parser("query", help="query a persisted CPG")
    query.add_argument("cpg", help="a CPG file written by 'tabby analyze'")
    query.add_argument("cypher", help="a Cypher-subset query string")
    query.add_argument("--json", action="store_true")
    query.add_argument("--explain", action="store_true",
                       help="print the query plan instead of running it")
    query.add_argument("--profile", action="store_true",
                       help="run the query and print the plan with "
                       "per-operator row/time counters to stderr")

    bench = sub.add_parser("bench", help="regenerate an evaluation table")
    bench.add_argument(
        "table", choices=("table8", "table9", "table10", "table11")
    )
    bench.add_argument("--components", nargs="*", default=None,
                       help="restrict table9 to these components")
    bench.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="shared summary cache for table9 CPG builds")
    bench.add_argument("--refine", type=_refine_modes_arg, default=None,
                       metavar="MODES",
                       help="table9: also report FPR with these refinement "
                       "passes (guards,rta,taint) on; baseline columns "
                       "unchanged")

    sinks = sub.add_parser("sinks", help="print the 38-entry sink catalog (Table VII)")
    sinks.add_argument("--category", default=None, help="filter by category")

    serve = sub.add_parser(
        "serve", help="run the analysis-as-a-service HTTP job-queue API"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=_port_arg, default=8787, metavar="P",
                       help="bind port, 0 = ephemeral (default 8787)")
    serve.add_argument("--workers", type=_workers_arg, default=2, metavar="N",
                       help="job worker threads ('auto' = one per CPU, "
                       "default 2)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent per-class summary cache shared by "
                       "every job's pipeline")
    serve.add_argument("--rate", type=_positive_float_arg, default=None,
                       metavar="R",
                       help="per-client submissions per second "
                       "(default: unlimited)")
    serve.add_argument("--burst", type=_positive_float_arg, default=None,
                       metavar="B",
                       help="per-client burst allowance (default: R)")
    serve.add_argument("--store-capacity", type=_positive_int_arg, default=256,
                       metavar="N",
                       help="LRU capacity of the content-hash result store")
    serve.add_argument("--max-queue", type=_nonnegative_int_arg, default=0,
                       metavar="N",
                       help="bound the job queue; a full queue answers 503 "
                       "(0 = unbounded)")
    serve.add_argument("--snapshot-dir", default=None, metavar="DIR",
                       help="serve 'snapshot' jobs over persisted CPG files "
                       "in DIR (v3 snapshots are mmap'd and shared across "
                       "concurrent jobs; disabled when unset)")
    serve.add_argument("--live", default=None, metavar="CPG",
                       help="serve 'live' jobs over one shared MVCC-versioned "
                       "CPG loaded from this snapshot file; jobs pin an "
                       "immutable committed version at submission and "
                       "POST /live/refresh commits on-disk updates as new "
                       "versions without blocking readers (disabled when "
                       "unset)")
    serve.add_argument("--no-drain", action="store_true",
                       help="on shutdown, cancel queued jobs instead of "
                       "draining them")

    corpus = sub.add_parser("corpus", help="synthetic corpus utilities")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    export = corpus_sub.add_parser("export", help="write corpus jars to a directory")
    export.add_argument("directory")
    export.add_argument("--component", default=None, help="one Table IX component")
    corpus_sub.add_parser("list", help="list components and scenes")

    return parser


def _add_build_flags(parser: argparse.ArgumentParser) -> None:
    """CPG-build tuning shared by ``analyze``, ``chains`` and ``diff``."""
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent per-class summary cache; entries are keyed by "
        "content hash, so stale results are impossible",
    )
    parser.add_argument(
        "--cache-max-mb", type=_positive_float_arg, default=None, metavar="MB",
        help="LRU size cap for --cache-dir: when the cache exceeds this "
        "many megabytes, least-recently-used entries are evicted "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print per-phase timings and cache counters",
    )


def _build_tabby(args: argparse.Namespace) -> Tabby:
    return Tabby(
        sources=SourceCatalog.named(args.sources),
        cache_dir=args.cache_dir,
        cache_max_mb=getattr(args, "cache_max_mb", None),
    ).load_classpath(args.classpath)


def _print_profile(args: argparse.Namespace, tabby: Tabby) -> None:
    # stderr so --profile composes with --json pipelines
    if args.profile:
        for line in tabby.build_cpg().statistics.profile_lines():
            print(line, file=sys.stderr)


def _check_cpg(tabby: Tabby) -> int:
    """Run the structural verifier; returns the number of violations."""
    issues = tabby.check_cpg()
    for issue in issues:
        print(issue, file=sys.stderr)
    if issues:
        print(
            f"error: CPG verification failed ({len(issues)} issue(s))",
            file=sys.stderr,
        )
    else:
        print("CPG verification: all invariants hold", file=sys.stderr)
    return len(issues)


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.refine and "guards" in args.refine:
        print("error: --refine guards judges chains and persists nothing; "
              "use it with 'tabby chains' or 'tabby diff'", file=sys.stderr)
        return 2
    output = args.output
    if output is None:
        output = "tabby.cpg.json.gz" if args.format == "json" else "tabby.cpg"
    tabby = _build_tabby(args)
    if args.validate:
        from repro.jvm.validate import validate_classes

        issues = validate_classes(list(tabby._classes))
        for issue in issues:
            print(issue, file=sys.stderr)
        if any(i.severity == "error" for i in issues):
            print("error: validation failed", file=sys.stderr)
            return 1
        print(f"validation: {len(issues)} warning(s), no errors")
    cpg = tabby.build_cpg()
    if args.check_cpg and _check_cpg(tabby):
        return 1
    if args.refine and "rta" in args.refine:
        rta = tabby.annotate_rta()
        print(
            f"RTA refinement: {rta.dead_edges} dispatch edge(s) marked dead "
            f"({rta.dead_call_edges} CALL, {rta.dead_alias_edges} ALIAS) "
            f"from {rta.instantiated_count} instantiable type(s)"
        )
    if args.refine and "taint" in args.refine:
        from repro.analysis.taint import TaintSummaryEngine

        engine = TaintSummaryEngine(cpg.hierarchy, cache_dir=args.cache_dir)
        engine.compute_all()
        print(
            f"taint summaries: {engine.stats['methods']} method(s) over "
            f"{engine.stats['sccs']} SCC(s)"
            + (f" (cache warmed: {args.cache_dir})" if args.cache_dir else "")
        )
    tabby.save_cpg(output, format=args.format)
    stats = cpg.statistics
    print(
        f"analyzed {tabby.class_count} classes from {stats.jar_count} jar(s): "
        f"{stats.class_node_count} class nodes, {stats.method_node_count} "
        f"method nodes, {stats.relationship_edge_count} edges "
        f"({stats.pruned_call_sites} uncontrollable call sites pruned) "
        f"in {stats.build_seconds:.2f}s"
    )
    _print_profile(args, tabby)
    print(f"CPG written to {output} ({args.format})")
    return 0


def _cmd_chains(args: argparse.Namespace) -> int:
    if args.cpg is None and not args.classpath:
        print("error: provide jar paths or --cpg", file=sys.stderr)
        return 2
    if args.cpg is not None:
        if args.classpath:
            print("error: --cpg is incompatible with classpath arguments",
                  file=sys.stderr)
            return 2
        needs_classes = [
            flag for flag, on in (
                ("--verify", args.verify),
                ("--payload", args.payload),
                ("--refine", args.refine),
                ("--check-cpg", args.check_cpg),
            ) if on
        ]
        if needs_classes:
            print(f"error: {', '.join(needs_classes)} need the original "
                  "classes; pass a classpath instead of --cpg",
                  file=sys.stderr)
            return 2
        tabby = Tabby.load_cpg(
            args.cpg,
            sources=SourceCatalog.named(args.sources),
            cache_dir=args.cache_dir,
        )
    else:
        tabby = _build_tabby(args)
    if args.check_cpg and _check_cpg(tabby):
        return 1
    chains = tabby.find_gadget_chains(
        max_depth=args.max_depth,
        source_filter=args.source_filter,
        refine=args.refine,
    )
    refined = tabby.last_refine
    if refined is not None:
        # stderr so the refinement note composes with --json pipelines
        stats = refined.statistics
        by_kind = ", ".join(
            f"{kind}: {count}"
            for kind, count in sorted(stats["refuted_by_kind"].items())
        ) or "none"
        print(
            f"refinement ({','.join(args.refine)}): {stats['kept']} kept, "
            f"{stats['refuted']} refuted ({by_kind}), "
            f"{stats['unknown']} unknown",
            file=sys.stderr,
        )
        # the verdict table: which hop died and why, one line per chain
        for chain, reason in refined.refuted:
            print(
                f"  refuted [{reason.kind}] {reason.caller} -> "
                f"{reason.callee} (step {reason.step_index}): {reason.detail}",
                file=sys.stderr,
            )
    _print_profile(args, tabby)
    if args.profile:
        for line in tabby.last_search_stats.profile_lines():
            print(line, file=sys.stderr)
    verifier = None
    synthesizer = None
    classes = list(tabby._classes)
    if args.verify:
        from repro.verify import ChainVerifier

        verifier = ChainVerifier(classes, sources=SourceCatalog.named(args.sources))
    if args.payload:
        from repro.errors import VerificationError
        from repro.verify import PayloadSynthesizer

        synthesizer = PayloadSynthesizer(classes)
    if args.json:
        payload = []
        for chain in chains:
            record = chain_record(chain)
            if verifier is not None:
                record["effective"] = verifier.verify(chain).effective
            if synthesizer is not None:
                try:
                    record["payload"] = json.loads(synthesizer.synthesize(chain).to_json())
                except VerificationError as exc:
                    record["payload_error"] = str(exc)
            payload.append(record)
        if refined is not None:
            # refinement runs emit an object so every chain's verdict
            # travels with the kept list; the plain list shape is
            # unchanged for unrefined runs
            document = {
                "chains": payload,
                "verdicts": refined.records(),
                "refinement": refined.statistics,
            }
            print(json.dumps(document, indent=2))
        else:
            print(json.dumps(payload, indent=2))
        return 0
    print(f"{len(chains)} gadget chain(s) found")
    for i, chain in enumerate(chains, start=1):
        print(f"\n--- chain #{i} [{chain.sink_category}] ---")
        print(chain.render())
        if verifier is not None:
            report = verifier.verify(chain)
            verdict = "EFFECTIVE" if report.effective else "fake"
            print(f"verification: {verdict} ({report.reason})")
        if synthesizer is not None:
            try:
                print(synthesizer.synthesize(chain).render())
            except VerificationError as exc:
                print(f"payload synthesis unavailable: {exc}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.core.incremental import diff_to_dict
    from repro.jvm.jar import load_classpath

    def _classes_of(paths):
        classes = []
        for archive in load_classpath(paths):
            classes.extend(archive.classes)
        return classes

    tabby = Tabby(
        sources=SourceCatalog.named(args.sources),
        cache_dir=args.cache_dir,
        cache_max_mb=args.cache_max_mb,
    )
    diff = tabby.diff_versions(
        _classes_of(args.old),
        _classes_of(args.new),
        max_depth=args.max_depth,
        source_filter=args.source_filter,
        refine=args.refine,
    )
    if args.profile and diff.statistics is not None:
        # stderr so --profile composes with --json pipelines
        for key, value in diff.statistics.as_row().items():
            print(f"diff {key}: {value}", file=sys.stderr)
    document = diff_to_dict(diff)
    if args.json:
        print(json.dumps(document, indent=2))
        return 0
    summary = document["summary"]
    print(
        f"{summary['appeared']} appeared, {summary['disappeared']} "
        f"disappeared, {summary['survived']} survived "
        f"({summary['old_total']} -> {summary['new_total']} chain(s))"
    )
    for index, chain in enumerate(diff.appeared, start=1):
        print(f"\n+++ appeared #{index} [{chain.sink_category}] +++")
        print(chain.render())
        if diff.appeared_verdicts is not None:
            verdict = diff.appeared_verdicts[index - 1]
            note = verdict["status"]
            if "refutation" in verdict:
                note += f" ({verdict['refutation']['kind']})"
            print(f"verdict: {note}")
    for index, chain in enumerate(diff.disappeared, start=1):
        steps = " -> ".join(s.qualified for s in chain.steps)
        print(f"--- disappeared #{index} [{chain.sink_category}]: {steps}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import lint_classes

    if not args.corpus and not args.classpath:
        print("error: provide jar paths or --corpus", file=sys.stderr)
        return 2
    issues = []
    if args.corpus:
        from repro.corpus import COMPONENT_NAMES, build_component, build_lang_base

        base = build_lang_base()
        issues.extend(lint_classes(base, interprocedural=args.interprocedural))
        for name in COMPONENT_NAMES:
            spec = build_component(name)
            # components resolve against the shared lang base, but only
            # the component's own classes are reported (the base is
            # linted once, above)
            only = {cls.name for cls in spec.classes}
            issues.extend(lint_classes(
                base + spec.classes,
                only_classes=only,
                interprocedural=args.interprocedural,
            ))
    if args.classpath:
        from repro.jvm.jar import load_classpath

        classes = []
        for archive in load_classpath(args.classpath):
            classes.extend(archive.classes)
        issues.extend(lint_classes(classes, interprocedural=args.interprocedural))

    errors = sum(1 for i in issues if i.severity == "error" and not i.suppressed)
    warnings = sum(1 for i in issues if i.severity == "warning" and not i.suppressed)
    suppressed = sum(1 for i in issues if i.suppressed)
    if args.json:
        print(json.dumps([i.to_dict() for i in issues], indent=2))
    else:
        for issue in issues:
            print(issue)
        print(
            f"lint: {errors} error(s), {warnings} warning(s), "
            f"{suppressed} suppressed"
        )
    if args.fail_on_error and errors:
        return 1
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.graphdb.query import jsonable_row, run_query
    from repro.graphdb.storage import open_graph

    result = run_query(
        open_graph(args.cpg), args.cypher, explain=args.explain, profile=args.profile
    )
    if args.explain:
        print(result.plan.render())
        return 0
    if args.profile:
        print(result.plan.render(), file=sys.stderr)
    if args.json:
        print(json.dumps([jsonable_row(r) for r in result.rows], indent=2))
        return 0
    print(" | ".join(result.columns))
    for row in result.rows:
        print(" | ".join(str(row[c]) for c in result.columns))
    print(f"({len(result)} row(s))")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro import bench

    if args.table == "table8":
        print(bench.format_table_viii(bench.run_table_viii(repetitions=4)))
    elif args.table == "table9":
        print(bench.format_table_ix(bench.run_table_ix(
            components=args.components,
            cache_dir=args.cache_dir,
            refine=args.refine,
        )))
    elif args.table == "table10":
        print(bench.format_table_x(bench.run_table_x()))
    else:
        print(bench.format_table_xi(bench.run_table_xi()))
    return 0


def _cmd_sinks(args: argparse.Namespace) -> int:
    from repro.core.sinks import SinkCatalog

    catalog = SinkCatalog()
    entries = (
        catalog.of_category(args.category.upper()) if args.category else list(catalog)
    )
    header = f"{'Method':<64}{'Type':<8}{'TC'}"
    print(header)
    print("-" * len(header))
    for sink in entries:
        print(
            f"{sink.qualified_name + '()':<64}{sink.category:<8}"
            f"{list(sink.trigger_condition)}"
        )
    print(f"({len(entries)} sink method(s))")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.serve.app import create_server

    workers = args.workers or len(os.sched_getaffinity(0))
    try:
        server = create_server(
            host=args.host,
            port=args.port,
            workers=workers,
            cache_dir=args.cache_dir,
            rate=args.rate,
            burst=args.burst,
            store_capacity=args.store_capacity,
            max_queue=args.max_queue,
            snapshot_dir=args.snapshot_dir,
            live=args.live,
        )
    except (ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    # SIGINT and SIGTERM both stop the listener and take the drain path
    # — SIGINT even when the process started with it ignored (as a
    # background job of a non-interactive shell starts it).  shutdown()
    # blocks until serve_forever() returns, so it runs off the main
    # thread; requested before the loop starts, the loop returns at once.
    def stop(signum, frame) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        signum: signal.signal(signum, stop)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        print(
            f"tabby serve listening on {server.url} "
            f"({workers} worker(s), cache-dir={args.cache_dir or 'none'})",
            file=sys.stderr,
        )
        server.serve_forever()
        mode = "cancelling queued jobs" if args.no_drain else "draining queued jobs"
        print(f"\nshutting down: {mode}", file=sys.stderr)
    finally:
        server.close(drain=not args.no_drain)
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.corpus import (
        COMPONENT_NAMES,
        SCENE_BUILDERS,
        build_component,
        build_lang_base,
    )
    from repro.jvm.jar import JarArchive, write_jar

    if args.corpus_command == "list":
        print("components (Table IX):")
        for name in COMPONENT_NAMES:
            print(f"  {name}")
        print("scenes (Table X):")
        for name in SCENE_BUILDERS:
            print(f"  {name}")
        return 0

    os.makedirs(args.directory, exist_ok=True)
    names = [args.component] if args.component else COMPONENT_NAMES
    base = JarArchive("rt-base", build_lang_base())
    write_jar(base, os.path.join(args.directory, "rt-base.jar"))
    count = 1
    for name in names:
        spec = build_component(name)
        safe = "".join(ch if ch.isalnum() or ch in "-._" else "_" for ch in name)
        path = os.path.join(args.directory, f"{safe}.jar")
        write_jar(JarArchive(safe, spec.classes), path)
        count += 1
    print(f"wrote {count} jar(s) to {args.directory}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "chains": _cmd_chains,
        "diff": _cmd_diff,
        "lint": _cmd_lint,
        "query": _cmd_query,
        "bench": _cmd_bench,
        "sinks": _cmd_sinks,
        "corpus": _cmd_corpus,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
