"""Tests for the end-to-end benchmark's own logic.

Run by path (not part of the tier-1 ``testpaths``)::

    python -m pytest benchmarks/e2e/test_e2e.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_e2e  # noqa: E402
from report import compare, percentile, spread, tail  # noqa: E402
from spans import Tracer, chrome_trace, layer_table, self_seconds  # noqa: E402

MS = 1_000_000  # ns


def span(span_id, parent, start_ms, end_ms, name="x", op="op"):
    return {"id": span_id, "parent": parent, "name": name, "op": op,
            "start_ns": start_ms * MS, "end_ns": end_ms * MS, "tid": 1, "args": {}}


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile([7.0], 99) == 7.0

    @pytest.mark.parametrize("n, expected_p", [
        (10, None), (20, None), (40, 75), (99, 75), (100, 90), (199, 90),
        (200, 95), (1000, 99), (10000, 99.9),
    ])
    def test_tail_keeps_ten_samples_beyond(self, n, expected_p):
        result = tail([float(v) for v in range(n)])
        if expected_p is None:
            assert result is None
        else:
            p, value = result
            assert p == expected_p
            assert sum(1 for v in range(n) if v > value) >= 10

    def test_spread_is_iqr_over_median(self):
        assert spread([1.0]) is None
        assert spread([10.0] * 5) == 0.0
        # statistics.quantiles' default (exclusive) quartiles: 9.5 and 10.5
        assert spread([9.0, 10.0, 10.0, 10.0, 11.0]) == pytest.approx(0.1)


class TestSelfTime:
    def test_children_and_overlaps_are_subtracted_once(self):
        spans = [
            span(1, None, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),  # overlaps its sibling: covered once
            span(4, 2, 20, 25),
        ]
        own = self_seconds(spans)
        assert own[1] == pytest.approx(0.050)
        assert own[2] == pytest.approx(0.025)
        assert own[3] == pytest.approx(0.030)
        assert own[4] == pytest.approx(0.005)

    def test_layer_table_shares_cover_ops_only(self):
        spans = [
            span(1, None, 0, 10, name="import", op=None),
            span(2, None, 10, 110, name="process"),
            span(3, 2, 20, 60, name="search"),
            span(4, None, 200, 300, name="process", op="op2"),
        ]
        table = layer_table(spans)
        assert "import" not in table
        assert table["process"]["self_s"] == pytest.approx(0.160)
        assert table["search"]["share"] == pytest.approx(0.2)
        assert sum(row["share"] for row in table.values()) == pytest.approx(1.0)

    def test_tracer_nests_clips_and_lays_out_phases(self):
        tracer = Tracer()
        with tracer.span("cpg.build", op="op1") as args:
            args["nodes"] = 3
            with tracer.span("search"):
                pass
        build = tracer.spans[0]
        assert build["args"] == {"nodes": 3}
        assert tracer.spans[1]["parent"] == build["id"]
        assert tracer.spans[1]["op"] == "op1"
        root = tracer.add("serve.job", 100 * MS, 200 * MS, op="job-1")
        child = tracer.get(tracer.add("serve.queue", 50 * MS, 150 * MS, parent=root))
        assert (child["start_ns"], child["end_ns"], child["op"]) == (100 * MS, 150 * MS, "job-1")
        tracer.phases(root, [("cpg.summaries", 0.010), ("search", 0.005)])
        summaries, search = tracer.spans[-2:]
        assert summaries["start_ns"] == 100 * MS
        assert search["start_ns"] == summaries["end_ns"] == 110 * MS
        assert search["args"] == {"synthetic": True}


class TestChromeTrace:
    def test_trace_event_shape(self):
        tracer = Tracer()
        with tracer.span("process", op="replay"):
            with tracer.span("import"):
                pass
        doc = json.loads(json.dumps(chrome_trace({"table9-audit": tracer.spans})))
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert meta == [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                         "args": {"name": "table9-audit"}}]
        assert [e["name"] for e in complete] == ["process", "import"]
        for event in complete:
            assert set(event) == {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
            assert event["dur"] >= 0 and event["pid"] == 1 and event["tid"] == 1
        outer, inner = complete
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        assert inner["args"]["parent"] == outer["args"]["span"]


class TestResultsFiles:
    def test_smoke_refuses_to_overwrite_full(self, tmp_path):
        path = str(tmp_path / "BENCH_e2e.json")
        bench_e2e.write_results(path, {"mode": "full"})
        with pytest.raises(bench_e2e.BenchError, match="refusing to overwrite"):
            bench_e2e.write_results(path, {"mode": "smoke"})
        with open(path) as fh:
            assert json.load(fh) == {"mode": "full"}
        bench_e2e.write_results(path, {"mode": "full", "seed": 2})
        smoke = str(tmp_path / "smoke.json")
        bench_e2e.write_results(smoke, {"mode": "smoke"})
        bench_e2e.write_results(smoke, {"mode": "smoke", "seed": 2})

    def test_metrics_follow_the_catalog(self):
        doc = {
            "import_s": 0.2, "setup_s": [1.0, 3.0, 2.0], "latency_ms": [10.0, 30.0, 20.0],
            "busy_s": 0.06, "units": None, "attempted": 3, "failed": 0, "failures": [],
            "rss_kb": [],
            "worker_rss_kb": 2048,
            "traced": {
                "latency_ms": [22.0], "spans": [],
                "layers": {"search": {"self_s": 0.5, "spans": 2, "share": 0.25},
                           "jvm.load_classpath": {"self_s": 2.0, "spans": 1, "share": 0.5}},
                "counters": {"search.chains": 7, "jvm.jasm_kb": 100.0, "import.s": 0.3},
            },
        }
        line = bench_e2e.result_line(doc, trace=False)
        assert line["correct"] and line["attempted"] == 3
        metrics = line["metrics"]
        assert list(metrics) == [m["name"] for m in bench_e2e.END_TO_END]
        assert metrics["latency_ms"]["value"] == 20.0
        assert metrics["ops_per_s"]["value"] == pytest.approx(50.0)
        assert metrics["peak_rss_mb"]["value"] == 2.0
        assert metrics["setup_s"]["value"] == 2.0
        layers = bench_e2e.result_line(doc, trace=True)["metrics"]
        assert list(layers) == [m["name"] for m in bench_e2e.PER_LAYER]
        assert layers["search.self_pct"]["value"] == 25.0
        assert layers["query.self_pct"]["value"] == 0.0
        assert layers["search.chains"]["value"] == 7
        assert layers["import.s"]["value"] == 0.3
        assert layers["jvm.jasm_kb_per_s"]["value"] == 50.0
        assert layers["trace.overhead_pct"]["value"] == pytest.approx(10.0)

    def test_benchmark_json_matches_the_catalog(self):
        with open(os.path.join(bench_e2e.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        assert [w["name"] for w in spec["workloads"]] == list(bench_e2e.WORKLOADS)
        assert [w["why"] for w in spec["workloads"]] == list(bench_e2e.WORKLOADS.values())
        assert spec["end_to_end"] == bench_e2e.END_TO_END
        assert spec["per_layer"] == bench_e2e.PER_LAYER
        assert spec["run_seconds"] == bench_e2e.RUN_SECONDS
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def results(**runs):
    """A results file with one workload whose metric has the given runs."""
    return {
        "metrics": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.10},
                    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10}],
        "workloads": {"w": {"runs": [
            {"metrics": {"latency_ms": {"value": v}, "ops_per_s": {"value": 1000.0 / v}}}
            for v in runs["latency"]
        ]}},
    }


class TestCompare:
    def verdicts(self, a, b):
        return {row["metric"]: row["verdict"]
                for row in compare(results(latency=a), results(latency=b))}

    def test_within_bound(self):
        assert self.verdicts([100, 101, 99, 100], [104, 103, 105, 104]) == {
            "latency_ms": "within bound", "ops_per_s": "within bound"}

    def test_regression_beyond_bound(self):
        verdicts = self.verdicts([100, 101, 99, 100], [120, 121, 119, 120])
        assert verdicts == {"latency_ms": "regressed", "ops_per_s": "regressed"}

    def test_improvement_beyond_spread(self):
        verdicts = self.verdicts([100, 101, 99, 100], [80, 81, 79, 80])
        assert verdicts == {"latency_ms": "improved", "ops_per_s": "improved"}

    def test_wide_spread_is_unresolved(self):
        assert self.verdicts([60, 100, 140, 100], [70, 110, 150, 110])["latency_ms"] == "unresolved"

    def test_wide_spread_but_every_run_worse_is_a_regression(self):
        assert self.verdicts([80, 100, 120], [130, 160, 190])["latency_ms"] == "regressed"

    def test_single_runs_are_unresolved(self):
        assert self.verdicts([100], [200])["latency_ms"] == "unresolved"


def test_refuses_to_run_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, it fails
    fast and prints no result."""
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench_e2e.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", "--workload", "table9-audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
