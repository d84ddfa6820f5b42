"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import main


class TestLitmusCommand:
    def test_catalog_test_runs(self, capsys):
        code = main(
            ["litmus", "fig1_dekker", "--policy", "SC",
             "--machine", "net_nocache", "--runs", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fig1_dekker" in out and "10/10 runs" in out

    def test_expect_sc_fails_on_violation(self, capsys):
        code = main(
            ["litmus", "fig1_dekker_warm", "--policy", "RELAXED",
             "--runs", "40", "--expect-sc"]
        )
        assert code == 1

    def test_litmus_file_input(self, tmp_path, capsys):
        source = """
name: from_file
forbidden: P0:r1=0 & P1:r2=0
P0     | P1
x = 1  | y = 1
r1 = y | r2 = x
"""
        path = tmp_path / "t.litmus"
        path.write_text(source)
        code = main(
            ["litmus", str(path), "--policy", "SC",
             "--machine", "bus_nocache", "--runs", "5"]
        )
        assert code == 0
        assert "from_file" in capsys.readouterr().out

    def test_unknown_test_errors(self):
        with pytest.raises(SystemExit):
            main(["litmus", "no_such_test"])

    def test_missing_litmus_file_errors(self, tmp_path):
        path = tmp_path / "missing.litmus"
        with pytest.raises(SystemExit) as excinfo:
            main(["litmus", str(path)])
        assert str(excinfo.value) == (
            f"error: cannot read {path}: No such file or directory"
        )

    def test_malformed_litmus_file_errors(self, tmp_path):
        path = tmp_path / "broken.litmus"
        path.write_text("name: broken\nP0 | P1\nx = = 1 | y = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["litmus", str(path)])
        assert str(excinfo.value).startswith(f"error: {path}: line 3: ")


class TestFaultsOption:
    def test_litmus_with_fault_preset(self, capsys):
        code = main(
            ["litmus", "fig1_dekker_sync_warm", "--policy", "DEF2",
             "--runs", "8", "--faults", "heavy"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "faults:" in out and "8/8 runs" in out

    def test_litmus_with_key_value_plan(self, capsys):
        code = main(
            ["litmus", "fig1_dekker", "--policy", "SC",
             "--machine", "net_nocache", "--runs", "8",
             "--faults", "jitter=10,reorder=20,duplicate=5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "jitter" in out

    def test_bad_faults_value_exits_with_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["litmus", "fig1_dekker", "--runs", "2",
                  "--faults", "bogus_key=1"])
        assert "bad --faults" in str(excinfo.value)


def _campaigns(out_dir):
    """The campaign records ``--metrics-out DIR`` wrote."""
    return json.loads((out_dir / "campaigns.json").read_text())


class TestCampaignsJson:
    def test_campaigns_json_reports_failure_counts(self, tmp_path, capsys):
        code = main(
            ["litmus", "fig1_dekker", "--policy", "SC",
             "--machine", "net_nocache", "--runs", "6",
             "--metrics-out", str(tmp_path)]
        )
        assert code == 0
        records = _campaigns(tmp_path)
        assert len(records) == 1
        record = records[0]
        assert record["runs"] == 6
        for key in ("failed_runs", "timed_out_runs", "retried_runs",
                    "pool_rebuilds", "degraded"):
            assert key in record
        assert record["failed_runs"] == 0
        assert record["degraded"] is False


class TestDrfCommand:
    def test_racy_exits_nonzero(self, capsys):
        assert main(["drf", "fig1_dekker"]) == 1
        assert "VIOLATES" in capsys.readouterr().out

    def test_clean_exits_zero(self, capsys):
        assert main(["drf", "critical_section"]) == 0
        assert "obeys" in capsys.readouterr().out

    def test_metrics_out(self, tmp_path, capsys):
        assert main(
            ["drf", "critical_section", "--metrics-out", str(tmp_path)]
        ) == 0
        (record,) = _campaigns(tmp_path)
        assert record["label"] == "drf:critical_section"
        assert record["completed_runs"] > 0


class TestExploreCommand:
    def test_clean_exploration(self, capsys):
        code = main(
            ["explore", "fig1_dekker_sync", "--policy", "DEF2", "--delays", "1"]
        )
        assert code == 0
        assert "sequentially consistent" in capsys.readouterr().out

    def test_violating_exploration(self, capsys):
        code = main(
            ["explore", "fig1_dekker_warm", "--policy", "RELAXED",
             "--delays", "2"]
        )
        assert code == 1
        assert "NOT sequentially consistent" in capsys.readouterr().out


class TestOtherCommands:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "fig1_dekker" in out and "critical_section" in out

    def test_delays(self, capsys):
        assert main(["delays", "fig1_dekker"]) == 0
        assert "2 pair(s)" in capsys.readouterr().out

    def test_figure1(self, capsys):
        assert main(["figure1", "--runs", "20"]) == 0
        out = capsys.readouterr().out
        assert "bus_nocache" in out and "VIOLATES SC" in out

    def test_figure3(self, capsys):
        assert main(["figure3", "--latencies", "4", "16", "--seeds", "2"]) == 0
        assert "DEF1 stall" in capsys.readouterr().out

    def test_figure3_jobs_matches_serial(self, capsys):
        argv = ["figure3", "--latencies", "4", "16", "--seeds", "2"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_figure3_metrics_out(self, tmp_path, capsys):
        assert main(
            ["figure3", "--latencies", "4", "--seeds", "2",
             "--metrics-out", str(tmp_path)]
        ) == 0
        (record,) = _campaigns(tmp_path)
        assert record["label"] == "figure3"
        assert record["completed_runs"] == 4  # 1 latency x 2 seeds x 2 policies


class TestTraceCommand:
    def test_pretty_timeline_with_crosscheck(self, capsys):
        code = main(
            ["trace", "fig1_dekker_sync", "--policy", "DEF2", "--limit", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "proc.issue" in out
        assert "trace summary" in out
        assert "trace/hb cross-check OK" in out

    def test_filter_restricts_categories(self, capsys):
        code = main(
            ["trace", "fig1_dekker_sync", "--filter", "stall", "--limit", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stall." in out
        assert "proc." not in out

    def test_bad_filter_exits_with_error(self):
        with pytest.raises(SystemExit):
            main(["trace", "fig1_dekker", "--filter", "bogus"])

    def test_chrome_output_parses_nonempty(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code = main(
            ["trace", "fig1_dekker_sync", "--format", "chrome",
             "--out", str(path)]
        )
        assert code == 0
        trace = json.loads(path.read_text())
        assert trace["traceEvents"]

    def test_machine_format_requires_out(self):
        with pytest.raises(SystemExit):
            main(["trace", "fig1_dekker", "--format", "chrome"])


class TestTraceOptionsOnCampaignCommands:
    def test_litmus_trace_chrome_file(self, tmp_path, capsys):
        path = tmp_path / "litmus.json"
        code = main(
            ["litmus", "fig1_dekker", "--policy", "SC",
             "--machine", "net_nocache", "--runs", "3",
             "--trace", str(path), "--trace-format", "chrome"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace summary (3 run(s)" in out
        trace = json.loads(path.read_text())
        # One process per traced run, with events inside each.
        process_names = [
            r["args"]["name"] for r in trace["traceEvents"]
            if r["ph"] == "M" and r["name"] == "process_name"
        ]
        assert process_names == ["run0", "run1", "run2"]
        assert any(r["ph"] not in ("M",) for r in trace["traceEvents"])

    def test_litmus_trace_jsonl_filtered(self, tmp_path, capsys):
        path = tmp_path / "litmus.jsonl"
        code = main(
            ["litmus", "fig1_dekker", "--runs", "2",
             "--trace", str(path), "--trace-format", "jsonl",
             "--trace-filter", "stall,msg"]
        )
        assert code == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records
        assert set(r["category"] for r in records) <= {"stall", "msg"}
        assert set(r["run"] for r in records) == {"run0", "run1"}

    def test_trace_filter_without_trace_rejected(self):
        with pytest.raises(SystemExit):
            main(["litmus", "fig1_dekker", "--trace-filter", "stall"])

    def test_tracing_does_not_change_litmus_output(self, tmp_path, capsys):
        plain = ["litmus", "fig1_dekker", "--policy", "SC",
                 "--machine", "net_nocache", "--runs", "5"]
        assert main(plain) == 0
        plain_out = capsys.readouterr().out
        path = tmp_path / "t.json"
        assert main(plain + ["--trace", str(path)]) == 0
        traced_out = capsys.readouterr().out
        # The traced run prints the same campaign report, plus a summary.
        assert traced_out.startswith(plain_out.rstrip("\n"))
        assert "trace summary" in traced_out


class TestLoggingFlags:
    def test_verbose_logs_to_stderr(self, capsys):
        assert main(["-v", "litmus", "fig1_dekker", "--runs", "2"]) == 0
        assert "campaign" in capsys.readouterr().err

    def test_default_is_quiet_on_stderr(self, capsys):
        assert main(["litmus", "fig1_dekker", "--runs", "2"]) == 0
        assert capsys.readouterr().err == ""


class TestObservabilityOptions:
    def test_progress_heartbeat_on_stderr(self, capsys):
        code = main(
            ["litmus", "fig1_dekker", "--policy", "SC",
             "--machine", "net_nocache", "--runs", "6", "--progress"]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "[litmus:fig1_dekker" in err
        assert "done in" in err

    def test_metrics_out_writes_prom_flight_and_campaigns(
        self, tmp_path, capsys
    ):
        out_dir = tmp_path / "obs"
        code = main(
            ["litmus", "fig1_dekker", "--policy", "SC",
             "--machine", "net_nocache", "--runs", "6",
             "--metrics-out", str(out_dir)]
        )
        assert code == 0
        from repro.obs import load_snapshot

        flight = load_snapshot(out_dir / "flight.jsonl")
        assert flight.value("repro_sim_runs_total") == 6
        assert flight.value("repro_campaign_runs_total") == 6
        (record,) = _campaigns(out_dir)
        assert record["runs"] == 6
        # The flight recorder's final sample is the end state that
        # metrics.prom exports, byte for byte.
        final = tmp_path / "final.prom"
        assert main(["metrics", "export", str(out_dir / "flight.jsonl"),
                     "--format", "prom", "--out", str(final)]) == 0
        assert final.read_bytes() == (out_dir / "metrics.prom").read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_every_campaign_count_reaches_the_registry(
        self, tmp_path, capsys, jobs
    ):
        """Each count field of a campaigns.json record equals its
        ``repro_campaign_<field>_total`` in the final flight sample (a
        field of 0 may be absent), cold (cache misses, journal appends)
        and warm (cache hits, journal appends)."""
        from repro.obs import load_snapshot

        cache = tmp_path / "cache"
        nonzero = set()
        for attempt in ("cold", "warm"):
            out_dir = tmp_path / attempt
            assert main(
                ["conformance", "--runs", "1", "--jobs", jobs,
                 "--cache", str(cache),
                 "--journal", str(tmp_path / f"{attempt}.jsonl"),
                 "--metrics-out", str(out_dir)]
            ) == 0
            (record,) = _campaigns(out_dir)
            final = load_snapshot(out_dir / "flight.jsonl")
            counts = [
                name for name, value in record.items()
                if isinstance(value, int)
                and name not in ("jobs", "cache_bytes")
            ]
            assert len(counts) == 16  # 14 counts and 2 flags
            for name in counts:
                published = final.value(f"repro_campaign_{name}_total")
                assert (published or 0) == record[name], name
                if record[name]:
                    nonzero.add((attempt, name))
        assert {
            ("cold", "cache_misses"), ("cold", "journal_appends"),
            ("warm", "cache_hits"), ("warm", "journal_appends"),
        } <= nonzero

    def test_cache_options_feed_campaign_metrics(self, tmp_path, capsys):
        argv = ["litmus", "fig1_dekker", "--policy", "SC",
                "--machine", "net_nocache", "--runs", "4",
                "--cache", str(tmp_path / "cache"),
                "--cache-max-bytes", "100000000",
                "--metrics-out", str(tmp_path / "obs")]
        assert main(argv) == 0
        (first,) = _campaigns(tmp_path / "obs")
        assert first["cache_misses"] == 4
        assert main(argv) == 0
        (second,) = _campaigns(tmp_path / "obs")
        assert second["cache_hits"] == 4
        assert second["cache_misses"] == 0

    def test_cache_max_bytes_requires_cache(self):
        with pytest.raises(SystemExit, match="requires --cache"):
            main(["litmus", "fig1_dekker", "--runs", "2",
                  "--cache-max-bytes", "1000"])

    def test_registry_disabled_after_command(self, tmp_path, capsys):
        from repro.obs import METRICS

        # --metrics-out enables the registry for the command only in
        # the sense that artifacts are scoped; the flag itself stays on
        # for the process, so consecutive commands keep counting.  What
        # must NOT leak is a half-written artifact directory.
        out_dir = tmp_path / "obs"
        assert main(
            ["litmus", "fig1_dekker", "--runs", "2",
             "--machine", "net_nocache", "--policy", "SC",
             "--metrics-out", str(out_dir)]
        ) == 0
        assert (out_dir / "metrics.prom").exists()
        assert (out_dir / "flight.jsonl").exists()
        assert (out_dir / "campaigns.json").exists()
        METRICS.reset()


    def test_serial_and_parallel_explore_publish_equal_campaign_totals(
        self, tmp_path, capsys
    ):
        """The walk's record reaches the registry the way a campaign's
        does, and a journaled search counts the same runs as a plain
        one."""
        from repro.obs import METRICS, load_snapshot

        totals = []
        for extra in ([], ["--journal", str(tmp_path / "j.jsonl")]):
            out_dir = tmp_path / f"obs{len(totals)}"
            METRICS.reset()
            assert main(
                ["explore", "fig1_dekker_sync_warm", "--delays", "2",
                 "--metrics-out", str(out_dir)] + extra
            ) == 0
            final = load_snapshot(out_dir / "flight.jsonl")
            totals.append(tuple(
                final.value(name) for name in (
                    "repro_explore_schedules_total",
                    "repro_campaign_runs_total",
                    "repro_campaign_completed_runs_total",
                )
            ))
        METRICS.reset()
        assert totals[0] == totals[1]
        assert totals[0][0] == totals[0][1] > 1


class TestMetricsSubcommand:
    def _write_snapshots(self, tmp_path):
        from repro.obs import MetricsRegistry

        def write(path, registry):
            path.write_text(json.dumps(registry.snapshot().to_dict()))
            return path

        registry = MetricsRegistry(enabled=True)
        registry.inc("repro_x_total", 3, help="Things")
        before = write(tmp_path / "before.json", registry)
        registry.inc("repro_x_total", 4)
        registry.set_gauge("repro_depth", 9)
        after = write(tmp_path / "after.json", registry)
        return before, after

    def test_show_renders_table(self, tmp_path, capsys):
        before, _ = self._write_snapshots(tmp_path)
        assert main(["metrics", "show", str(before)]) == 0
        out = capsys.readouterr().out
        assert "repro_x_total" in out
        assert "counter" in out

    def test_diff_reports_signed_deltas(self, tmp_path, capsys):
        before, after = self._write_snapshots(tmp_path)
        assert main(["metrics", "diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "+4" in out
        assert "repro_depth" in out

    def test_diff_of_identical_snapshots_is_quiet(self, tmp_path, capsys):
        before, _ = self._write_snapshots(tmp_path)
        assert main(["metrics", "diff", str(before), str(before)]) == 0
        assert "no change" in capsys.readouterr().out

    def test_export_json_round_trips(self, tmp_path, capsys):
        before, _ = self._write_snapshots(tmp_path)
        out_path = tmp_path / "snap.json"
        assert main(["metrics", "export", str(before), "--format", "json",
                     "--out", str(out_path)]) == 0
        from repro.obs import load_snapshot

        assert load_snapshot(out_path) == load_snapshot(before)
        assert load_snapshot(out_path).value("repro_x_total") == 3

    def test_missing_snapshot_errors(self):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["metrics", "show", "/no/such/file.json"])

    def test_prom_text_is_not_a_snapshot(self, tmp_path, capsys):
        # .prom is an export format only: reading one is a clean usage
        # error, not a traceback.
        out_dir = tmp_path / "obs"
        assert main(
            ["litmus", "fig1_dekker", "--policy", "SC",
             "--machine", "net_nocache", "--runs", "2",
             "--metrics-out", str(out_dir)]
        ) == 0
        prom = out_dir / "metrics.prom"
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "show", str(prom)])
        assert str(excinfo.value).startswith(
            f"error: cannot parse snapshot {prom}: "
        )

    @pytest.mark.parametrize("verb", ["show", "export"])
    def test_json_that_is_not_a_snapshot_is_a_usage_error(
        self, tmp_path, verb
    ):
        path = tmp_path / "foo.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", verb, str(path)])
        assert str(excinfo.value).startswith(
            f"error: cannot parse snapshot {path}: "
        )

    def test_show_renders_journal_counters(self, tmp_path, capsys):
        # The durable path's counters survive the snapshot file and
        # render next to the campaign's own.
        out_dir = tmp_path / "obs"
        assert main(
            ["litmus", "fig1_dekker", "--policy", "SC",
             "--machine", "net_nocache", "--runs", "4",
             "--journal", str(tmp_path / "j.jsonl"),
             "--metrics-out", str(out_dir)]
        ) == 0
        from repro.obs import load_snapshot

        snapshot = load_snapshot(out_dir / "flight.jsonl")
        assert snapshot.value("repro_journal_appends_total") >= 4
        assert snapshot.value("repro_journal_fsyncs_total") >= 1
        capsys.readouterr()
        assert main(["metrics", "show", str(out_dir / "flight.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "repro_journal_appends_total" in out
        assert "repro_journal_fsyncs_total" in out
        assert "repro_campaign_runs_total" in out


class TestCrosscheckCommand:
    def test_preempted_crosscheck_exits_75_and_never_agrees(
        self, monkeypatch, capsys
    ):
        from repro import cli
        from tests.axiomatic.test_crosscheck import StopAfterFirstResult

        monkeypatch.setattr(
            cli, "default_executor", lambda *a, **k: StopAfterFirstResult()
        )
        code = main(
            ["crosscheck", "fig1_dekker", "message_passing",
             "--policy", "SC", "--policy", "TSO", "--runs", "4"]
        )
        out = capsys.readouterr().out
        assert code == 75
        assert out.splitlines()[-1] == "PREEMPTED"
        assert "AGREE" not in out

    def test_two_tests_of_one_name_are_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["crosscheck", "fig1_dekker", "fig1_dekker"])
        assert str(excinfo.value).startswith(
            "error: two tests are named 'fig1_dekker'"
        )


class TestSoakUniformOptions:
    def test_soak_parser_accepts_jobs_and_metrics(self, tmp_path, capsys):
        # Parser-level check (a full soak run is covered in
        # tests/campaign/test_chaos.py and too slow to repeat here).
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["soak", "--jobs", "2", "--progress", "--metrics-out", "obs/"]
        )
        assert args.jobs == 2
        assert args.progress is True
        assert args.metrics_out == "obs/"

    def test_fuzz_parser_accepts_uniform_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["fuzz", "--jobs", "3", "--metrics-out", "obs/",
             "--progress", "--cache", "c/"]
        )
        assert args.jobs == 3
        assert args.metrics_out == "obs/"


class TestFlagChecks:
    @pytest.mark.parametrize(
        "argv",
        [
            ["litmus", "fig1_dekker"],
            ["trace", "fig1_dekker"],
            ["fuzz"],
            ["soak"],
            ["crosscheck", "fig1_dekker"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unknown_machine_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--machine", "nosuch"])
        assert excinfo.value.code == 2
        assert "argument --machine: invalid choice: 'nosuch'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["litmus", "fig1_dekker", "--runs", "-1"],
            ["litmus", "fig1_dekker", "--runs", "0"],
            ["litmus", "fig1_dekker", "--jobs", "0"],
            ["conformance", "--jobs", "-3"],
            ["figure1", "--runs", "0"],
            ["fuzz", "--jobs", "0"],
            ["soak", "--runs", "0"],
        ],
        ids=" ".join,
    )
    def test_non_positive_count_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["litmus", "message_passing", "--machine", "bus_nocache",
             "--runs", "3", "--expect-sc"],
            ["fuzz", "--machine", "net_nocache", "--seeds", "2"],
            ["trace", "message_passing", "--machine", "net_nocache"],
            ["soak", "--runs", "2", "--kills", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_policy_the_machine_cannot_build_is_a_usage_error(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--policy", "DEF2"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: policy DEF2 requires caches; ")
        assert captured.out == ""

    def test_rejected_policy_leaves_no_journal(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        with pytest.raises(SystemExit):
            main(["litmus", "fig1_dekker", "--policy", "DEF2",
                  "--machine", "net_nocache", "--journal", str(journal)])
        assert not journal.exists()

    def test_rejected_cache_flag_leaves_no_journal(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        with pytest.raises(SystemExit, match="requires --cache"):
            main(["litmus", "fig1_dekker", "--journal", str(journal),
                  "--cache-max-bytes", "5"])
        assert not journal.exists()

    def test_trace_rejects_format_without_out_before_simulating(
        self, monkeypatch
    ):
        import repro.api

        def simulate(*args, **kwargs):
            raise AssertionError("simulated before the flags were checked")

        monkeypatch.setattr(repro.api, "System", simulate)
        with pytest.raises(SystemExit, match="--out is required"):
            main(["trace", "fig1_dekker", "--format", "chrome"])
