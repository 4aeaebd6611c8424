"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["--version"])
        assert info.value.code == 0

    def test_version_exit_code_through_main(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "25 tools" in out
        assert "dataset OK" in out


class TestClassify:
    def test_orchestration_text(self, capsys):
        assert main(["classify", "a TOSCA orchestrator for Kubernetes"]) == 0
        assert "Orchestration" in capsys.readouterr().out

    def test_energy_text(self, capsys):
        assert main(["classify", "minimizing the energy footprint of VMs"]) == 0
        assert "Energy efficiency" in capsys.readouterr().out

    def test_empty_text_fails(self, capsys):
        assert main(["classify", "   "]) == 1
        assert "error" in capsys.readouterr().err


class TestRecommend:
    def test_migration_query_hits_movequic(self, capsys):
        assert main(
            ["recommend", "live migration of edge microservices", "-k", "3"]
        ) == 0
        assert "MoveQUIC" in capsys.readouterr().out

    def test_bad_k(self, capsys):
        assert main(["recommend", "anything", "-k", "0"]) == 1


class TestReplicate:
    def test_prints_findings(self, capsys):
        assert main(["replicate"]) == 0
        out = capsys.readouterr().out
        assert "most demanded: Orchestration" in out
        assert "least demanded: Energy efficiency" in out
        assert "accuracy 1.00" in out

    def test_writes_artifacts(self, tmp_path, capsys):
        assert main(["replicate", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "report.md").exists()
        assert (tmp_path / "fig2_tool_distribution.svg").exists()
        assert (tmp_path / "table2.md").exists()

    def test_profile_prints_stage_table(self, tmp_path, capsys):
        assert main(
            ["replicate", "--profile", "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Profile —" in out
        for stage in ("collect", "classify", "survey", "analyze"):
            assert stage in out
        assert "cache:" in out

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(
            ["replicate", "--trace-out", str(trace_path),
             "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote Chrome trace" in out
        import json

        payload = json.loads(trace_path.read_text())
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert "pipeline.run" in names
        assert "stage:analyze" in names


class TestTrace:
    def test_renders_saved_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(
            ["replicate", "--trace-out", str(trace_path),
             "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        capsys.readouterr()
        assert main(["trace", str(trace_path), "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "pipeline.run" in out
        assert "stage:collect" in out

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err


class TestReport:
    def test_full_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "## Q1" in out
        assert "## Table 2" in out


class TestFigures:
    def test_writes_all(self, tmp_path, capsys):
        assert main(["figures", "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert (tmp_path / "fig4_selection_votes.svg").exists()


class TestExport:
    def test_json(self, tmp_path, capsys):
        target = tmp_path / "eco.json"
        assert main(["export", "--json", str(target)]) == 0
        from repro.io.jsonio import load_ecosystem

        _, tools, _, _ = load_ecosystem(target)
        assert len(tools) == 25

    def test_bibtex(self, tmp_path):
        target = tmp_path / "refs.bib"
        assert main(["export", "--bibtex", str(target)]) == 0
        from repro.corpus import CorpusStore

        with CorpusStore() as store:
            assert store.ingest_bibtex(target.read_text()).ingested == 49
            assert len(store) == 49

    def test_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["export"])


class TestSweep:
    GRID = "scheduler=heft,round_robin;mtbf=50,none;jitter=0.1"

    def test_prints_cell_table(self, capsys):
        assert main(
            ["sweep", "--grid", self.GRID, "--fleet", "2",
             "--replications", "10", "--seed", "3", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "mtbf=50" in out and "mtbf=none" in out
        assert "8 cell(s) × 10 replication(s)" in out
        assert "80 simulations run" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        target = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--fleet", "1", "--replications", "5",
             "--grid", "mtbf=40", "--json", str(target), "--no-cache"]
        ) == 0
        payload = json.loads(target.read_text())
        assert len(payload["cells"]) == 1
        assert payload["cells"][0]["replications"] == 5
        assert payload["cells"][0]["metrics"]["makespan"]["count"] == 5

    def test_cache_dir_warm_rerun_executes_zero_simulations(
        self, tmp_path, capsys
    ):
        argv = ["sweep", "--fleet", "1", "--replications", "8",
                "--grid", "mtbf=40", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "1 computed, 0 from cache" in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 computed, 1 from cache (0 simulations run)" in out

    def test_workers_match_serial(self, tmp_path, capsys):
        import json

        a, b = tmp_path / "serial.json", tmp_path / "parallel.json"
        base = ["sweep", "--fleet", "1", "--replications", "6",
                "--grid", "mtbf=40", "--seed", "5", "--no-cache"]
        assert main(base + ["--workers", "0", "--json", str(a)]) == 0
        assert main(base + ["--workers", "2", "--json", str(b)]) == 0
        assert (
            json.loads(a.read_text())["cells"]
            == json.loads(b.read_text())["cells"]
        )

    def test_record_appends_to_ledger(self, tmp_path, capsys):
        assert main(
            ["sweep", "--fleet", "1", "--replications", "5",
             "--grid", "mtbf=40", "--no-cache",
             "--record", "--runs-dir", str(tmp_path)]
        ) == 0
        assert "recorded run" in capsys.readouterr().out
        assert main(["runs", "list", "--runs-dir", str(tmp_path)]) == 0
        assert "mc-sweep" in capsys.readouterr().out

    def test_bad_grid_errors_exit_1(self, capsys):
        assert main(["sweep", "--grid", "flux=9", "--no-cache"]) == 1
        assert "bad grid entry" in capsys.readouterr().err
        assert main(["sweep", "--grid", "mtbf=fast", "--no-cache"]) == 1
        assert "numeric" in capsys.readouterr().err
        assert main(["sweep", "--grid", "scheduler=alien",
                     "--no-cache"]) == 1
        assert "unknown scheduler" in capsys.readouterr().err

    def test_bad_fleet_errors_exit_1(self, capsys):
        assert main(["sweep", "--fleet", "0", "--no-cache"]) == 1
        assert "fleet" in capsys.readouterr().err

    def test_adaptive_flags_print_savings(self, capsys):
        assert main(
            ["sweep", "--fleet", "1", "--replications", "200",
             "--grid", "mtbf=40", "--seed", "3", "--no-cache",
             "--target-ci", "0.1", "--max-replications", "200"]
        ) == 0
        out = capsys.readouterr().out
        assert "adaptive to target-ci 0.1 (cap 200)" in out
        # A loose target stops the cell at the first 64-replication
        # round, well under the cap.
        assert "64 simulations run, 136 saved" in out

    def test_adaptive_json_includes_budget(self, tmp_path, capsys):
        import json

        target = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--fleet", "1", "--replications", "200",
             "--grid", "mtbf=40", "--json", str(target), "--no-cache",
             "--target-ci", "0.1"]
        ) == 0
        payload = json.loads(target.read_text())
        assert payload["n_replications_budget"] == 200
        assert payload["n_replications_run"] < 200

    def test_bad_adaptive_flags_exit_1(self, capsys):
        assert main(
            ["sweep", "--fleet", "1", "--no-cache",
             "--max-replications", "50"]
        ) == 1
        assert "target" in capsys.readouterr().err.lower()
        assert main(
            ["sweep", "--fleet", "1", "--no-cache", "--target-ci", "-1"]
        ) == 1
        assert "target_ci" in capsys.readouterr().err


class TestRuns:
    """The run-ledger subcommands and their exit-code contract
    (0 = clean, 3 = result drift, 4 = perf regression, 1 = errors)."""

    @staticmethod
    def _record_run(tmp_path, capsys):
        assert main(
            ["replicate", "--record", "--runs-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "recorded run" in out
        return out

    def test_replicate_record_then_list_and_show(self, tmp_path, capsys):
        self._record_run(tmp_path, capsys)
        assert main(["runs", "list", "--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "icsc-study" in out
        assert main(["runs", "show", "--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "artifact table1" in out
        assert "stage analyze" in out

    def test_show_json_round_trips(self, tmp_path, capsys):
        import json

        self._record_run(tmp_path, capsys)
        assert main(
            ["runs", "show", "--runs-dir", str(tmp_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "icsc-study"
        assert set(payload["artifacts"]) >= {"table1", "fig2_distribution"}

    def test_identical_runs_compare_exit_0(self, tmp_path, capsys):
        """Acceptance: two `replicate --record` runs on unchanged data
        produce identical digests and a clean gate."""
        self._record_run(tmp_path, capsys)
        self._record_run(tmp_path, capsys)
        assert main(["runs", "compare", "--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "drift" not in out.replace("no drift", "")

    def test_single_run_compares_clean(self, tmp_path, capsys):
        self._record_run(tmp_path, capsys)
        assert main(["runs", "compare", "--runs-dir", str(tmp_path)]) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_perturbed_run_exits_3_naming_the_artifact(
        self, tmp_path, capsys
    ):
        """Acceptance: a perturbed dataset artifact gates non-zero and
        names what changed."""
        import json

        from repro.obs import RunRegistry, digest_items

        self._record_run(tmp_path, capsys)
        self._record_run(tmp_path, capsys)
        # Perturb the newest record's Table 1 digest in the ledger.
        registry = RunRegistry(tmp_path)
        records = registry.runs()
        tampered = records[-1].to_dict()
        tampered["artifacts"]["table1"] = digest_items(
            [["tampered", 1]]
        ).to_dict()
        lines = [json.dumps(r.to_dict(), sort_keys=True) for r in records[:-1]]
        lines.append(json.dumps(tampered, sort_keys=True))
        registry.path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        assert main(["runs", "compare", "--runs-dir", str(tmp_path)]) == 3
        out = capsys.readouterr().out
        assert "table1" in out
        assert "value" in out

    def test_compare_json_carries_exit_code(self, tmp_path, capsys):
        import json

        self._record_run(tmp_path, capsys)
        self._record_run(tmp_path, capsys)
        assert main(
            ["runs", "compare", "--runs-dir", str(tmp_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 0
        assert payload["ok"] is True

    def test_compare_bench_perf_regression_exits_4(self, tmp_path, capsys):
        import json

        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(
            json.dumps({"results": {"bench_x": {"min_s": 0.01}}})
        )
        cand.write_text(
            json.dumps({"results": {"bench_x": {"min_s": 0.10}}})
        )
        assert main(
            ["runs", "compare", "--bench", str(base), str(cand),
             "--runs-dir", str(tmp_path)]
        ) == 4
        assert "slower" in capsys.readouterr().out

    def test_gc_prunes_to_keep(self, tmp_path, capsys):
        self._record_run(tmp_path, capsys)
        self._record_run(tmp_path, capsys)
        self._record_run(tmp_path, capsys)
        assert main(
            ["runs", "gc", "--runs-dir", str(tmp_path), "--keep", "1"]
        ) == 0
        assert "dropped 2" in capsys.readouterr().out
        assert main(["runs", "list", "--runs-dir", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert listing.count("icsc-study") == 1

    def test_empty_ledger_errors_exit_1(self, tmp_path, capsys):
        assert main(["runs", "show", "--runs-dir", str(tmp_path)]) == 1
        assert "no runs recorded" in capsys.readouterr().err
        assert main(["runs", "compare", "--runs-dir", str(tmp_path)]) == 1
        assert "no runs recorded" in capsys.readouterr().err

    def test_unknown_run_id_errors_exit_1(self, tmp_path, capsys):
        self._record_run(tmp_path, capsys)
        assert main(
            ["runs", "show", "zzz-does-not-exist",
             "--runs-dir", str(tmp_path)]
        ) == 1
        assert "no run" in capsys.readouterr().err

    def test_exit_codes_documented_in_help(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["runs", "compare", "--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo line wraps
        assert "3 = result drift" in text
        assert "4 = confirmed perf regression" in text

    def test_runs_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["runs"])
        assert info.value.code == 2


class TestCorpus:
    """The persistent corpus-store subcommands."""

    BIB = """
    @article{k1, title={Workflow engines in the cloud},
             author={Rossi, Mario}, year={2020}, journal={FGCS}}
    @article{k2, title={Pipeline scheduling survey},
             author={Bianchi, Anna}, year={2021}, journal={TPDS}}
    @article{k1, title={Workflow engines in the cloud!},
             author={Rossi, Mario}, year={2020}, journal={FGCS}}
    @misc{notitle, year={2020}}
    """

    @classmethod
    def _write_bib(cls, tmp_path):
        path = tmp_path / "export.bib"
        path.write_text(cls.BIB, encoding="utf-8")
        return path

    def test_ingest_query_dedup_stats(self, tmp_path, capsys):
        bib = self._write_bib(tmp_path)
        store = tmp_path / "corpus.db"
        assert main(
            ["corpus", "ingest", str(bib), "--store", str(store),
             "--lenient", "--on-collision", "suffix"]
        ) == 0
        out = capsys.readouterr().out
        assert "3 ingested, 1 renamed, 1 rejected" in out
        assert "rejected notitle" in out

        assert main(
            ["corpus", "query", "workflow*", "--store", str(store)]
        ) == 0
        out = capsys.readouterr().out
        assert "k1" in out and "k1-2" in out
        assert "2 match(es)" in out

        assert main(["corpus", "dedup", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "1 cluster(s) merged" in out
        assert "3 -> 2 records" in out

        assert main(["corpus", "stats", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "records   2" in out

    def test_query_keys_only(self, tmp_path, capsys):
        bib = self._write_bib(tmp_path)
        store = tmp_path / "corpus.db"
        main(["corpus", "ingest", str(bib), "--store", str(store),
              "--lenient", "--on-collision", "suffix"])
        capsys.readouterr()
        assert main(
            ["corpus", "query", "survey", "--store", str(store),
             "--keys-only"]
        ) == 0
        assert capsys.readouterr().out.strip() == "k2"

    def test_query_negative_limit_errors(self, tmp_path, capsys):
        # The same bound as GET /corpus/query: 0 is "all", below 0 an
        # error (it used to drop the last |limit| matches).
        bib = self._write_bib(tmp_path)
        store = tmp_path / "corpus.db"
        main(["corpus", "ingest", str(bib), "--store", str(store),
              "--lenient", "--on-collision", "suffix"])
        capsys.readouterr()
        assert main(
            ["corpus", "query", "workflow*", "--store", str(store),
             "--limit", "-1"]
        ) == 1
        assert "--limit must be >= 0" in capsys.readouterr().err

    def test_query_nested_past_the_bound_errors(self, tmp_path, capsys):
        bib = self._write_bib(tmp_path)
        store = tmp_path / "corpus.db"
        main(["corpus", "ingest", str(bib), "--store", str(store),
              "--lenient", "--on-collision", "suffix"])
        capsys.readouterr()
        nested = "(" * 1200 + "workflow" + ")" * 1200
        assert main(["corpus", "query", nested, "--store", str(store)]) == 1
        assert "nests deeper" in capsys.readouterr().err

    def test_strict_ingest_fails_on_bad_entry(self, tmp_path, capsys):
        bib = self._write_bib(tmp_path)
        store = tmp_path / "corpus.db"
        assert main(
            ["corpus", "ingest", str(bib), "--store", str(store),
             "--on-collision", "suffix"]
        ) == 1
        assert "error" in capsys.readouterr().err

    def test_default_collision_policy_errors(self, tmp_path, capsys):
        bib = self._write_bib(tmp_path)
        store = tmp_path / "corpus.db"
        assert main(
            ["corpus", "ingest", str(bib), "--store", str(store),
             "--lenient"]
        ) == 1
        assert "duplicate publication key" in capsys.readouterr().err

    def test_record_appends_to_ledger(self, tmp_path, capsys):
        bib = self._write_bib(tmp_path)
        store = tmp_path / "corpus.db"
        runs = tmp_path / "runs"
        assert main(
            ["corpus", "ingest", str(bib), "--store", str(store),
             "--lenient", "--on-collision", "suffix",
             "--record", "--runs-dir", str(runs)]
        ) == 0
        assert "recorded run" in capsys.readouterr().out
        assert main(["runs", "list", "--runs-dir", str(runs)]) == 0
        assert "corpus-store" in capsys.readouterr().out

    def test_query_missing_store_errors(self, tmp_path, capsys):
        # A typo'd --store must not materialize an empty database and
        # happily report zero matches; only ingest may create the file.
        missing = tmp_path / "nope" / "corpus.db"
        assert main(["corpus", "query", "workflow", "--store",
                     str(missing)]) == 1
        assert "no corpus store at" in capsys.readouterr().err
        assert not missing.parent.exists()

    def test_corpus_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["corpus"])
        assert info.value.code == 2
