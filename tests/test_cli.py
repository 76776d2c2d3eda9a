"""Tests for the command-line interface."""

import json
import os
import select
import signal
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def jar_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("jars"))
    code = main(["corpus", "export", directory, "--component", "CommonsBeanutils1"])
    assert code == 0
    return directory


@pytest.fixture(scope="module")
def guarded_jar_dir(tmp_path_factory):
    """BeanShell1 plants two constant-guard decoys among its 3 chains."""
    directory = str(tmp_path_factory.mktemp("guarded"))
    assert main(["corpus", "export", directory, "--component", "BeanShell1"]) == 0
    return directory


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_table_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "table99"])


class TestCorpus:
    def test_list(self, capsys):
        assert main(["corpus", "list"]) == 0
        out = capsys.readouterr().out
        assert "CommonsBeanutils1" in out
        assert "Apache Dubbo" in out

    def test_export_writes_jars(self, jar_dir):
        names = sorted(os.listdir(jar_dir))
        assert "rt-base.jar" in names
        assert any("CommonsBeanutils1" in n for n in names)


class TestAnalyze:
    def test_analyze_and_query(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "out.cpg.json.gz")
        assert main(["analyze", jar_dir, "-o", cpg]) == 0
        assert os.path.exists(cpg)
        capsys.readouterr()
        assert main([
            "query", cpg,
            "MATCH (m:Method {IS_SINK: true}) RETURN m.NAME AS n",
        ]) == 0
        out = capsys.readouterr().out
        assert "invoke" in out

    def test_query_json_output(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "out.cpg.json.gz")
        main(["analyze", jar_dir, "-o", cpg])
        capsys.readouterr()
        assert main([
            "query", cpg, "--json",
            "MATCH (m:Method {IS_SINK: true}) RETURN m.NAME AS n",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [{"n": "invoke"}]

    def test_query_explain_prints_plan_without_rows(self, jar_dir, tmp_path,
                                                    capsys):
        cpg = str(tmp_path / "out.cpg.json.gz")
        main(["analyze", jar_dir, "-o", cpg])
        capsys.readouterr()
        assert main([
            "query", cpg, "--explain",
            "MATCH (a:Method)-[:CALL]->(b:Method {IS_SINK: true}) "
            "RETURN a.NAME AS n",
        ]) == 0
        out = capsys.readouterr().out
        assert "QUERY PLAN" in out
        assert "[reversed]" in out
        assert "index seek Method.IS_SINK" in out
        assert "row(s)" not in out  # plan only, no result table

    def test_query_profile_prints_counters_to_stderr(self, jar_dir, tmp_path,
                                                     capsys):
        cpg = str(tmp_path / "out.cpg.json.gz")
        main(["analyze", jar_dir, "-o", cpg])
        capsys.readouterr()
        assert main([
            "query", cpg, "--profile", "--json",
            "MATCH (m:Method {IS_SINK: true}) RETURN m.NAME AS n",
        ]) == 0
        captured = capsys.readouterr()
        assert "profiled" in captured.err and "rows=" in captured.err
        rows = json.loads(captured.out)  # --json output stays clean
        assert rows == [{"n": "invoke"}]

    def test_missing_classpath_errors(self, capsys):
        assert main(["analyze", "/no/such/dir"]) == 1
        assert "error:" in capsys.readouterr().err


class TestChains:
    def test_text_output_with_verify(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "1 gadget chain(s) found" in out
        assert "EFFECTIVE" in out
        assert "(source)java.util.PriorityQueue.readObject()" in out

    def test_json_output(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--json", "--verify"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["effective"] is True
        assert payload[0]["sink_category"] == "CODE"

    def test_source_filter(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--source-filter", "com.nonexistent"]) == 0
        assert "0 gadget chain(s)" in capsys.readouterr().out

    def test_native_sources_profile(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--sources", "native"]) == 0
        out = capsys.readouterr().out
        assert "1 gadget chain(s) found" in out


    def test_baseline_search_flag_is_a_usage_error(self, jar_dir, capsys):
        """One search engine: the baseline is a test oracle, not a flag."""
        with pytest.raises(SystemExit) as info:
            main(["chains", jar_dir, "--baseline-search"])
        assert info.value.code == 2
        assert "--baseline-search" in capsys.readouterr().err


class TestSnapshotFormats:
    def test_analyze_default_output_is_v3(self, jar_dir, tmp_path,
                                          monkeypatch, capsys):
        import struct

        from repro.graphdb.snapshot_v3 import SNAPSHOT_MAGIC

        monkeypatch.chdir(tmp_path)
        assert main(["analyze", jar_dir]) == 0
        assert "CPG written to tabby.cpg (v3)" in capsys.readouterr().out
        header = (tmp_path / "tabby.cpg").read_bytes()[:10]
        assert header[:8] == SNAPSHOT_MAGIC
        assert struct.unpack_from("<H", header, 8)[0] == 3

    def test_analyze_format_json_default_output(self, jar_dir, tmp_path,
                                                monkeypatch, capsys):
        import gzip

        monkeypatch.chdir(tmp_path)
        assert main(["analyze", jar_dir, "--format", "json"]) == 0
        assert "CPG written to tabby.cpg.json.gz (json)" in capsys.readouterr().out
        doc = json.loads(gzip.decompress(
            (tmp_path / "tabby.cpg.json.gz").read_bytes()
        ))
        assert doc["format_version"] == 1

    @pytest.mark.parametrize("format", ["v3", "json"])
    def test_chains_over_saved_cpg_matches_classpath_run(self, jar_dir, tmp_path,
                                                         format, capsys):
        cpg = str(tmp_path / "saved.cpg")
        assert main(["analyze", jar_dir, "-o", cpg, "--format", format]) == 0
        capsys.readouterr()
        assert main(["chains", jar_dir, "--json"]) == 0
        from_classpath = json.loads(capsys.readouterr().out)
        assert main(["chains", "--cpg", cpg, "--json"]) == 0
        from_cpg = json.loads(capsys.readouterr().out)
        assert from_cpg == from_classpath

    def test_chains_requires_some_input(self, capsys):
        assert main(["chains"]) == 2
        assert "provide jar paths or --cpg" in capsys.readouterr().err

    def test_chains_rejects_cpg_plus_classpath(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "saved.cpg")
        main(["analyze", jar_dir, "-o", cpg])
        capsys.readouterr()
        assert main(["chains", jar_dir, "--cpg", cpg]) == 2
        assert "incompatible" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--verify", "--payload", "--check-cpg"])
    def test_chains_cpg_rejects_class_dependent_flags(self, jar_dir, tmp_path,
                                                      flag, capsys):
        cpg = str(tmp_path / "saved.cpg")
        main(["analyze", jar_dir, "-o", cpg])
        capsys.readouterr()
        assert main(["chains", "--cpg", cpg, flag]) == 2
        err = capsys.readouterr().err
        assert flag in err and "classpath" in err

    def test_query_over_binary_cpg(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "saved.cpg")
        assert main(["analyze", jar_dir, "-o", cpg]) == 0
        capsys.readouterr()
        assert main([
            "query", cpg, "--json",
            "MATCH (m:Method {IS_SINK: true}) RETURN m.NAME AS n",
        ]) == 0
        assert json.loads(capsys.readouterr().out) == [{"n": "invoke"}]


    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "jars", "--format", "binary"],
            ["query", "x.cpg", "--no-planner", "MATCH (m) RETURN m"],
        ],
    )
    def test_retired_format_and_planner_flags_are_usage_errors(self, argv,
                                                                capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "{cpg}", "MATCH (m:Method) RETURN m.NAME"],
            ["chains", "--cpg", "{cpg}", "--json"],
        ],
    )
    def test_v2_snapshot_fails_with_remedy(self, tmp_path, argv, capsys):
        import struct

        from repro.graphdb.snapshot_v3 import SNAPSHOT_MAGIC

        cpg = tmp_path / "old.cpg"
        cpg.write_bytes(struct.pack("<8sHHI", SNAPSHOT_MAGIC, 2, 0, 5) + bytes(64))
        assert main([arg.format(cpg=cpg) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unsupported snapshot format version 2" in captured.err
        assert "tabby analyze" in captured.err


class TestBenchCommand:
    def test_table9_subset(self, capsys):
        assert main(["bench", "table9", "--components", "Myface"]) == 0
        out = capsys.readouterr().out
        assert "Myface" in out and "FPR%" in out


class TestSinksCommand:
    def test_full_catalog(self, capsys):
        assert main(["sinks"]) == 0
        out = capsys.readouterr().out
        assert "(38 sink method(s))" in out
        assert "java.lang.Runtime.exec()" in out

    def test_category_filter(self, capsys):
        assert main(["sinks", "--category", "exec"]) == 0
        out = capsys.readouterr().out
        assert "EXEC" in out and "JNDI" not in out


class TestPayloadFlag:
    def test_chains_payload_text(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--payload"]) == 0
        out = capsys.readouterr().out
        assert "exploit recipe for" in out
        assert "${attacker-controlled}" in out

    def test_chains_payload_json(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--payload", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["payload"]["object_graph"]["class"] == "java.util.PriorityQueue"


class TestValidateFlag:
    def test_analyze_with_validation(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "v.cpg.json.gz")
        assert main(["analyze", jar_dir, "-o", cpg, "--validate"]) == 0
        out = capsys.readouterr().out
        assert "validation:" in out


class TestCheckCpgFlag:
    def test_analyze_check_cpg(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "c.cpg.json.gz")
        assert main(["analyze", jar_dir, "-o", cpg, "--check-cpg"]) == 0
        assert "all invariants hold" in capsys.readouterr().err

    def test_chains_check_cpg(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--check-cpg"]) == 0
        captured = capsys.readouterr()
        assert "all invariants hold" in captured.err
        assert "gadget chain(s) found" in captured.out


class TestRefineGuardsFlag:
    """The ``guards`` mode of ``--refine`` on every subcommand."""

    def test_chains_guards_mode(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--refine", "guards"]) == 0
        captured = capsys.readouterr()
        assert "refinement (guards):" in captured.err
        assert "refuted" in captured.err
        assert "gadget chain(s) found" in captured.out

    def test_chains_guards_mode_json_verdicts(self, guarded_jar_dir, capsys):
        assert main(["chains", guarded_jar_dir, "--json"]) == 0
        baseline = json.loads(capsys.readouterr().out)
        assert main(["chains", guarded_jar_dir, "--refine", "guards",
                     "--json"]) == 0
        captured = capsys.readouterr()
        assert "refinement (guards): 1 kept, 2 refuted" in captured.err
        assert captured.err.count("refuted [constant-guard]") == 2
        doc = json.loads(captured.out)
        verdicts = doc["verdicts"]
        # every baseline chain gets a verdict, in search order
        assert [v["steps"] for v in verdicts] == [c["steps"] for c in baseline]
        refuted = [v for v in verdicts if v["status"] == "refuted"]
        assert [v["refutation"]["kind"] for v in refuted] == ["constant-guard"] * 2
        assert doc["refinement"]["refuted_by_kind"] == {"constant-guard": 2}

    def test_chains_guards_mode_rejects_snapshot_input(self, jar_dir, tmp_path,
                                                       capsys):
        cpg = str(tmp_path / "saved.cpg")
        main(["analyze", jar_dir, "-o", cpg])
        capsys.readouterr()
        assert main(["chains", "--cpg", cpg, "--refine", "guards"]) == 2
        err = capsys.readouterr().err
        assert "--refine" in err and "classpath" in err

    def test_analyze_rejects_guards_mode(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "guarded.cpg")
        assert main(["analyze", jar_dir, "-o", cpg, "--refine", "rta,guards"]) == 2
        assert "persists nothing" in capsys.readouterr().err
        assert not os.path.exists(cpg)

    def test_bench_table9_guards_mode(self, capsys):
        assert main([
            "bench", "table9", "--components", "BeanShell1", "--refine", "guards",
        ]) == 0
        out = capsys.readouterr().out
        assert "with --refine guards:" in out
        assert "chain(s) refuted" in out

    def test_bench_table9_without_flag_has_no_refined_row(self, capsys):
        assert main(["bench", "table9", "--components", "BeanShell1"]) == 0
        assert "with --refine" not in capsys.readouterr().out


class TestLintCommand:
    def test_lint_jars(self, jar_dir, capsys):
        assert main(["lint", jar_dir]) == 0
        out = capsys.readouterr().out
        assert "lint:" in out and "error(s)" in out

    def test_lint_corpus_has_no_unsuppressed_errors(self, capsys):
        assert main(["lint", "--corpus", "--fail-on-error"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1].startswith("lint: 0 error(s)")

    def test_lint_json(self, jar_dir, capsys):
        assert main(["lint", jar_dir, "--json"]) == 0
        issues = json.loads(capsys.readouterr().out)
        for issue in issues:
            assert {"rule", "severity", "class", "method", "message",
                    "suppressed"} <= set(issue)

    def test_lint_fail_on_error_exit_code(self, tmp_path, capsys):
        # author a defective class, write it as a jar, expect exit 1
        from repro.jvm.builder import ProgramBuilder
        from repro.jvm.jar import JarArchive, write_jar

        pb = ProgramBuilder()
        with pb.cls("bad.T") as c:
            with c.method("m") as m:
                m.assign(m.local("u"), m.local("ghost"))
        jar = str(tmp_path / "bad.jar")
        write_jar(JarArchive("bad", pb.build()), jar)
        assert main(["lint", jar, "--fail-on-error"]) == 1
        assert main(["lint", jar]) == 0  # without the flag: report only
        out = capsys.readouterr().out
        assert "use-before-init" in out

    def test_lint_requires_input(self, capsys):
        assert main(["lint"]) == 2
        assert "provide jar paths or --corpus" in capsys.readouterr().err


class TestWorkersValidation:
    """Only ``tabby serve`` has --workers (its job threads): 0, negative
    and non-numeric counts are bad input there, and 'auto' is the
    explicit one-per-CPU spelling.  The batch commands run in one
    process, so --workers with any value is a usage error.  Both exit 2."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "x", "--workers", "2"],
        ["analyze", "x", "--workers", "1"],
        ["chains", "x", "--workers", "2"],
        ["chains", "x", "--workers", "auto"],
        ["diff", "old", "new", "--workers", "2"],
        ["bench", "table9", "--workers", "2"],
        ["serve", "--workers", "0"],
        ["serve", "--workers", "-3"],
        ["serve", "--workers", "many"],
    ])
    def test_rejected_with_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve", "--workers", "auto"],
        ["serve", "--workers=auto"],
        ["serve", "--port", "0", "--workers", "auto", "--cache-dir", "c"],
    ])
    def test_auto_is_accepted(self, argv):
        args = build_parser().parse_args(argv)
        assert args.workers == 0  # resolved to one-per-CPU downstream


class TestDiffCommand:
    def test_json_profile_keeps_stdout_and_reports_on_stderr(self, jar_dir,
                                                            capsys):
        """--profile composes with --json: stdout is exactly the JSON
        document, and the incremental rows go to stderr — the timings
        first, which only --profile prints, then the document's rows."""
        assert main(["diff", jar_dir, jar_dir, "--json", "--profile"]) == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert captured.out == json.dumps(document, indent=2) + "\n"
        assert document["schema"] == "tabby-diff/v2"
        lines = captured.err.splitlines()
        assert lines[0].startswith("diff total_seconds: ")
        assert lines[1].startswith("diff phase_seconds: {")
        assert lines[2:] == [
            f"diff {key}: {value}"
            for key, value in document["incremental"].items()
        ]

    def test_json_document_is_byte_identical_across_runs(self, jar_dir, capsys):
        """Two runs over the same jars print the same bytes: wall-clock
        timings are not part of the document."""
        outputs = []
        for _ in range(2):
            assert main(["diff", jar_dir, jar_dir, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestImportFootprint:
    def test_cli_import_leaves_out_process_pools(self):
        """Every tabby process imports repro.cli and runs in one
        process, so it must not pay for multiprocessing or
        concurrent.futures."""
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = (
            "import sys, repro.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "[]"


class TestServeValidation:
    """tabby serve rejects bad input with exit 2, like its siblings."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--port", "70000"],
        ["serve", "--port", "-1"],
        ["serve", "--port", "web"],
        ["serve", "--rate", "0"],
        ["serve", "--rate", "-1.5"],
        ["serve", "--burst", "0"],
        ["serve", "--store-capacity", "0"],
        ["serve", "--max-queue", "-1"],
    ])
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err  # argparse reported the problem

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port, args.workers) == ("127.0.0.1", 8787, 2)
        assert args.rate is None and args.cache_dir is None

    def test_burst_below_one_rejected_at_startup(self, capsys):
        # burst is a float (fractional bursts are meaningless below 1);
        # the limiter refuses it and serve exits 2 before binding
        assert main(["serve", "--rate", "5", "--burst", "0.5"]) == 2
        assert "burst" in capsys.readouterr().err


class TestServeSignals:
    """tabby serve drains and exits 0 on SIGTERM, and on SIGINT even
    when it was started with SIGINT ignored (as a background job of a
    non-interactive shell starts it)."""

    def start_server(self, ignore_sigint):
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            preexec_fn=(
                (lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
                if ignore_sigint else None
            ),
        )
        ready, _, _ = select.select([proc.stderr], [], [], 30)
        line = proc.stderr.readline() if ready else ""
        if "listening on" not in line:
            proc.kill()
            proc.wait()
            pytest.fail(f"tabby serve did not start: {line!r}")
        return proc

    @pytest.mark.parametrize("signum, ignore_sigint", [
        (signal.SIGTERM, False),
        (signal.SIGINT, True),
    ], ids=["sigterm", "sigint-ignored-at-start"])
    def test_signal_drains_and_exits_zero(self, signum, ignore_sigint):
        proc = self.start_server(ignore_sigint)
        proc.send_signal(signum)
        try:
            _, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            pytest.fail("tabby serve kept running after the signal")
        assert proc.returncode == 0, err
        assert "shutting down: draining queued jobs" in err


class TestBenchTables:
    def test_table10(self, capsys):
        assert main(["bench", "table10"]) == 0
        out = capsys.readouterr().out
        assert "Apache Dubbo" in out

    def test_table11(self, capsys):
        assert main(["bench", "table11"]) == 0
        out = capsys.readouterr().out
        assert "LazyInitTargetSource" in out


class TestRefineFlag:
    def test_bad_mode_is_a_parse_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chains", "jars", "--refine", "cha"])

    def test_mode_order_is_canonicalized(self):
        args = build_parser().parse_args(["chains", "jars", "--refine",
                                          "taint,rta"])
        assert args.refine == ("rta", "taint")
        args = build_parser().parse_args(["diff", "a", "b", "--refine",
                                          "taint, guards"])
        assert args.refine == ("guards", "taint")

    def test_chains_refine_summary(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--refine", "rta,taint"]) == 0
        captured = capsys.readouterr()
        assert "refinement (rta,taint):" in captured.err
        assert "kept" in captured.err
        assert "gadget chain(s) found" in captured.out

    def test_chains_refine_json_object_shape(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--refine", "guards,rta,taint",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"chains", "verdicts", "refinement"}
        assert doc["refinement"]["modes"] == ["guards", "rta", "taint"]
        # one verdict record per chain, in search order; "chains" is the
        # kept subset in plain chain-record form
        kept = [
            {"steps": v["steps"], "sink_category": v["sink_category"]}
            for v in doc["verdicts"] if v["status"] != "refuted"
        ]
        assert doc["chains"] == kept
        assert len(doc["verdicts"]) == doc["refinement"]["chains"]
        for record in doc["verdicts"]:
            assert record["status"] in ("kept", "refuted", "unknown")
            assert ("refutation" in record) == (record["status"] == "refuted")

    def test_json_stays_a_bare_list_without_refinement(self, jar_dir, capsys):
        assert main(["chains", jar_dir, "--json"]) == 0
        assert isinstance(json.loads(capsys.readouterr().out), list)

    def test_refine_rejects_snapshot_input(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "saved.cpg")
        main(["analyze", jar_dir, "-o", cpg])
        capsys.readouterr()
        assert main(["chains", "--cpg", cpg, "--refine", "rta"]) == 2
        err = capsys.readouterr().err
        assert "--refine" in err and "classpath" in err

    def test_analyze_refine_reports_rta(self, jar_dir, tmp_path, capsys):
        cpg = str(tmp_path / "refined.cpg")
        assert main(["analyze", jar_dir, "-o", cpg, "--refine", "rta"]) == 0
        assert "RTA refinement:" in capsys.readouterr().out


class TestLintInterproceduralFlag:
    def test_flag_parses(self):
        args = build_parser().parse_args(["lint", "--corpus",
                                          "--interprocedural"])
        assert args.interprocedural is True

    def test_interprocedural_lint_runs(self, jar_dir, capsys):
        assert main(["lint", jar_dir, "--interprocedural"]) == 0
        out = capsys.readouterr().out
        assert "lint:" in out
