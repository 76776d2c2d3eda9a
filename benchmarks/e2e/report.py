"""Summary statistics and the comparison of two results files."""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: percentiles a timing may report beside its median, lowest first
TAIL_PERCENTILES = (75, 90, 95, 99, 99.9)


def _rank(p: float, n: int) -> int:
    # the epsilon keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest percentile with at least ten
    samples beyond it, or ``None`` when there are too few samples."""
    best = None
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= 10:
            best = (p, percentile(values, p))
    return best


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (``None`` for
    fewer than two values)."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One verdict per workload x end-to-end metric present in both files.

    A side's value is the median over its runs.  ``delta`` is the change
    from A to B as a share of A, signed so that positive is worse.  The
    verdict is ``unresolved`` when either side has fewer than two runs
    or an inter-quartile spread wider than the bound, unless both sides
    have three or more runs and every run of one beats every run of
    the other.
    """
    rows = []
    for workload, side_a in a["workloads"].items():
        side_b = b["workloads"].get(workload)
        if side_b is None:
            continue
        for spec in a["metrics"]:
            name, bound = spec["name"], spec["bound"]
            runs_a = [r["metrics"][name]["value"] for r in side_a["runs"]]
            runs_b = [r["metrics"][name]["value"] for r in side_b["runs"]]
            med_a, med_b = statistics.median(runs_a), statistics.median(runs_b)
            sign = 1.0 if spec["better"] == "lower" else -1.0
            delta = sign * (med_b - med_a) / med_a if med_a else 0.0
            spreads = [spread(runs_a), spread(runs_b)]
            known = [s for s in spreads if s is not None]
            # "every run beats every run" means little below three runs
            enough = min(len(runs_a), len(runs_b)) >= 3
            if sign > 0:
                b_wins, a_wins = max(runs_b) < min(runs_a), max(runs_a) < min(runs_b)
            else:
                b_wins, a_wins = min(runs_b) > max(runs_a), min(runs_a) > max(runs_b)
            if len(known) < 2 or max(known) > bound:
                verdict = "unresolved"
                if enough and (a_wins or b_wins):
                    verdict = "improved" if b_wins else "regressed"
            elif delta > bound:
                verdict = "regressed"
            elif delta < -max(known):
                verdict = "improved"
            else:
                verdict = "within bound"
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": spec["unit"],
                "a": med_a,
                "b": med_b,
                "delta": delta,
                "bound": bound,
                "spread": max(known) if known else None,
                "verdict": verdict,
            })
    return rows


def format_compare(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<18}{'metric':<14}{'A':>12}{'B':>12}{'worse by':>10}"
        f"{'bound':>8}{'spread':>8}  verdict"
    ]
    for row in rows:
        spread_text = "-" if row["spread"] is None else f"{row['spread']:.1%}"
        lines.append(
            f"{row['workload']:<18}{row['metric']:<14}{row['a']:>12.4g}"
            f"{row['b']:>12.4g}{row['delta']:>10.1%}{row['bound']:>8.0%}"
            f"{spread_text:>8}  {row['verdict']}"
        )
    return "\n".join(lines)
