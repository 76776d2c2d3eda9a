"""Refinement benchmark: the whole-CPG refinement gate (RQ follow-up).

Runs the baseline Tabby pipeline and the ``rta,taint`` ChainRefiner
over dataset components and enforces the soundness contract of the
verdict layer:

* **subset** — the refined chain list is a verbatim, order-preserving
  subset of the baseline list (refinement only ever removes);
* **zero false negatives** — no refuted chain matches the ground-truth
  table or is effective under the PoC oracle;
* **beyond the guard pass** — at least one chain is refuted that the
  ``guards`` mode keeps (the planted RTA/taint decoys in
  commons-collections 3.2.1 and Hibernate);
* **overhead** (full mode) — total refinement time is <= 25% of the
  total analyze (build + search) wall time.

``--smoke`` runs the two decoy-bearing components only and skips the
overhead gate (timings on a 2-component subset are noise); this is
what CI runs.  The full run covers all 26 components and writes
``BENCH_refine.json`` with per-component chain-count deltas and
timings.  ``--smoke`` refuses to overwrite a full-mode results file,
so pass ``--output`` elsewhere when smoke-testing.
"""

import argparse
import json
import sys
import time

sys.path.insert(0, "src")

from repro.analysis.chain_refiner import ChainRefiner
from repro.core import Tabby
from repro.corpus import COMPONENT_NAMES, build_component, build_lang_base
from repro.verify import ChainVerifier
from smoke_guard import refuses_smoke_overwrite

SMOKE_COMPONENTS = ["commons-collections(3.2.1)", "Hibernate"]
WHOLE_CPG_MODES = ("rta", "taint")


def run_component(name, failures):
    spec = build_component(name)
    classes = build_lang_base() + spec.classes
    tabby = Tabby().add_classes(classes)

    start = time.perf_counter()
    baseline = tabby.find_gadget_chains()
    analyze_seconds = time.perf_counter() - start

    start = time.perf_counter()
    refiner = ChainRefiner(tabby.cpg.hierarchy, modes=WHOLE_CPG_MODES)
    result = refiner.refine(baseline)
    refine_seconds = time.perf_counter() - start

    # subset: every kept chain is a baseline chain, in baseline order
    kept = iter(result.kept)
    cursor = next(kept, None)
    for chain in baseline:
        if cursor is chain:
            cursor = next(kept, None)
    if cursor is not None:
        failures.append(f"{name}: refined output is not a verbatim "
                        "ordered subset of the baseline")

    # zero false negatives: refuted chains are neither known nor effective
    verifier = ChainVerifier(classes)
    for chain, reason in result.refuted:
        if spec.match_known(chain) is not None:
            failures.append(f"{name}: refuted a ground-truth chain "
                            f"({reason.kind}: {reason.detail})")
        elif verifier.verify(chain).effective:
            failures.append(f"{name}: refuted an oracle-effective chain "
                            f"({reason.kind}: {reason.detail})")

    # how many refutations the constant-guard pass cannot explain
    guard_kept = ChainRefiner(tabby.cpg.hierarchy, modes=("guards",)).refine(
        baseline
    ).kept
    guard_kept_keys = {c.key for c in guard_kept}
    beyond_guard = sum(
        1 for chain, _r in result.refuted if chain.key in guard_kept_keys
    )

    return {
        "component": name,
        "baseline_chains": len(baseline),
        "refined_chains": len(result.kept),
        "refuted": len(result.refuted),
        "refuted_by_kind": result.statistics["refuted_by_kind"],
        "refuted_beyond_guard_pass": beyond_guard,
        "analyze_seconds": round(analyze_seconds, 4),
        "refine_seconds": round(refine_seconds, 4),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="decoy components only; skip the overhead gate")
    parser.add_argument("--output", default="BENCH_refine.json")
    args = parser.parse_args(argv)
    if refuses_smoke_overwrite(args):
        return 2

    names = SMOKE_COMPONENTS if args.smoke else list(COMPONENT_NAMES)
    failures = []
    rows = []
    for name in names:
        row = run_component(name, failures)
        rows.append(row)
        print(f"{name:32s} {row['baseline_chains']:3d} -> "
              f"{row['refined_chains']:3d} chains "
              f"({row['refuted']} refuted, {row['refuted_beyond_guard_pass']} "
              f"beyond guard pass)  "
              f"analyze {row['analyze_seconds']:6.2f}s  "
              f"refine {row['refine_seconds']:6.2f}s")

    analyze_total = sum(r["analyze_seconds"] for r in rows)
    refine_total = sum(r["refine_seconds"] for r in rows)
    overhead = refine_total / analyze_total if analyze_total else 0.0
    beyond_guard_total = sum(r["refuted_beyond_guard_pass"] for r in rows)
    report = {
        "mode": "smoke" if args.smoke else "full",
        "components": rows,
        "totals": {
            "baseline_chains": sum(r["baseline_chains"] for r in rows),
            "refined_chains": sum(r["refined_chains"] for r in rows),
            "refuted": sum(r["refuted"] for r in rows),
            "refuted_beyond_guard_pass": beyond_guard_total,
            "analyze_seconds": round(analyze_total, 4),
            "refine_seconds": round(refine_total, 4),
            "refine_overhead_ratio": round(overhead, 4),
        },
    }
    print(f"total: {report['totals']['baseline_chains']} -> "
          f"{report['totals']['refined_chains']} chains, "
          f"{report['totals']['refuted']} refuted "
          f"({beyond_guard_total} beyond the guard pass), "
          f"refinement overhead {overhead:.1%} of analyze time")

    if beyond_guard_total < 1:
        failures.append("expected >=1 refutation the constant-guard pass "
                        "cannot explain (the planted decoys)")
    if not args.smoke and overhead > 0.25:
        failures.append(f"refinement overhead {overhead:.1%} exceeds 25% "
                        "of analyze wall time")

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
