"""Command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_all_experiments(self):
        code, text = run_cli("list")
        assert code == 0
        for eid in ("fig13", "table3", "fig2a"):
            assert eid in text


class TestInfo:
    def test_prints_headline(self):
        code, text = run_cli("info")
        assert code == 0
        assert "13.43" in text
        assert "peak_ee_tops_w" in text
        # The pointer names a real command, not a missing document.
        assert "repro report" in text
        assert "EXPERIMENTS.md" not in text


class TestRun:
    def test_run_analytic_experiment(self):
        code, text = run_cli("run", "fig13")
        assert code == 0
        assert "973.55" in text

    def test_run_multiple(self):
        code, text = run_cli("run", "table1", "fig10")
        assert code == 0
        assert "Td" in text and "Latency" in text

    def test_unknown_experiment_fails_cleanly(self):
        code, _ = run_cli("run", "fig99")
        assert code == 1

    def test_measured_experiment_with_small_width(self):
        # exercises the workload path at demo size (memoized if cached)
        code, text = run_cli("run", "fig12", "--width", "0.25")
        assert code == 0
        assert "energy efficiency" in text.lower()


class TestReport:
    def test_analytic_report_passes(self):
        code, text = run_cli("report")
        assert code == 0
        assert "claims hold" in text
        assert "FAIL" not in text

    def test_report_lists_exact_reproductions(self):
        _, text = run_cli("report")
        assert "288" in text and "512" in text and "800" in text


class TestSweepCommand:
    def test_sweep_prints_grid(self):
        code, text = run_cli(
            "sweep", "--widths", "0.5,1.0", "--resolutions", "32,64"
        )
        assert code == 0
        assert "4 points" in text
        assert "92,784" in text  # the paper point (width 1.0, res 32)

    def test_sweep_parallel_matches_serial(self):
        code_serial, serial = run_cli(
            "sweep", "--widths", "0.25,0.5", "--resolutions", "32"
        )
        code_parallel, parallel = run_cli(
            "sweep", "--widths", "0.25,0.5", "--resolutions", "32",
            "--jobs", "2",
        )
        assert code_serial == code_parallel == 0
        # identical numbers; only the jobs note in the title differs
        assert serial.splitlines()[2:] == parallel.splitlines()[2:]

    def test_sweep_bad_grid_fails_cleanly(self):
        code, _ = run_cli("sweep", "--widths", "fast,1.0")
        assert code == 1

    def test_sweep_uses_cache_dir(self, tmp_path):
        cache_dir = str(tmp_path / "sweep-cache")
        code, text = run_cli("sweep", "--cache-dir", cache_dir)
        assert code == 0
        cached = list((tmp_path / "sweep-cache").rglob("*.pkl"))
        assert len(cached) == 16  # one entry per grid point
        code2, text2 = run_cli("sweep", "--cache-dir", cache_dir)
        assert code2 == 0
        assert text2 == text


class TestPerformanceFlags:
    def test_run_parallel_analytic_experiments(self):
        code_serial, serial = run_cli("run", "table1", "fig10", "fig13")
        code_parallel, parallel = run_cli(
            "run", "table1", "fig10", "fig13", "--jobs", "2"
        )
        assert code_serial == code_parallel == 0
        assert serial == parallel

    def test_run_measured_fast_mode(self):
        code, text = run_cli(
            "run", "fig12", "--width", "0.25", "--fast"
        )
        assert code == 0
        assert "energy efficiency" in text.lower()

    def test_measured_workload_cached_on_disk(self, tmp_path):
        cache_dir = str(tmp_path / "wl-cache")
        code, text = run_cli(
            "run", "fig11", "--width", "0.25", "--fast",
            "--cache-dir", cache_dir,
        )
        assert code == 0
        assert list((tmp_path / "wl-cache").rglob("*.pkl"))


class TestParser:
    def test_no_command_shows_help(self):
        code, text = run_cli()
        assert code == 2
        assert "usage" in text.lower()

    def test_version_flag(self):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["--version"])
        assert excinfo.value.code == 0


class TestServeCommand:
    def test_serve_prints_report(self):
        code, text = run_cli(
            "serve", "--requests", "300", "--instances", "2",
            "--policy", "least-loaded",
        )
        assert code == 0
        assert "Serving report" in text
        assert "latency p99 (ms)" in text
        assert "Per-instance utilization" in text
        assert "inst 1" in text

    def test_serve_policy_sweep_through_cache(self, tmp_path):
        args = (
            "serve", "--requests", "200",
            "--sweep-policies", "round-robin,least-loaded",
            "--sweep-instances", "1,2",
            "--cache-dir", str(tmp_path),
        )
        code, text = run_cli(*args)
        assert code == 0
        assert "Serving sweep (4 scenarios" in text
        # Warm rerun is served from the cache and prints identically.
        code2, text2 = run_cli(*args)
        assert code2 == 0
        assert text2 == text
        assert list(tmp_path.rglob("*.pkl"))

    def test_serve_curve(self):
        code, text = run_cli(
            "serve", "--requests", "400", "--instances", "2",
            "--curve-qps", "500,1500",
        )
        assert code == 0
        assert "Throughput-latency curve" in text
        assert "p99 latency vs offered QPS" in text

    def test_serve_trace_arrival(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("".join(f"{i * 0.002}\n" for i in range(50)))
        code, text = run_cli(
            "serve", "--arrival", "trace",
            "--trace-file", str(trace), "--instances", "1",
        )
        assert code == 0
        assert "requests |       50" in text.replace("  ", "  ")

    def test_serve_trace_without_file_fails_cleanly(self):
        code, _ = run_cli("serve", "--arrival", "trace")
        assert code == 1

    def test_serve_bad_trace_file_fails_cleanly(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not-a-number\n")
        code, _ = run_cli(
            "serve", "--arrival", "trace", "--trace-file", str(bad)
        )
        assert code == 1

    def test_serve_bursty(self):
        code, text = run_cli(
            "serve", "--arrival", "bursty", "--requests", "300",
            "--burst-factor", "6",
        )
        assert code == 0
        assert "arrival=bursty" in text

    def test_serve_diurnal(self):
        code, text = run_cli(
            "serve", "--arrival", "diurnal", "--requests", "300",
            "--diurnal-period", "2.0", "--diurnal-amplitude", "0.5",
        )
        assert code == 0
        assert "arrival=diurnal" in text

    def test_serve_deadline_aware_policy(self):
        code, text = run_cli(
            "serve", "--requests", "200", "--instances", "2",
            "--policy", "deadline-aware",
        )
        assert code == 0
        assert "policy=deadline-aware" in text

    def test_serve_curve_conflicts_with_sweep(self):
        code, _ = run_cli(
            "serve", "--curve-qps", "100,200",
            "--sweep-policies", "affinity",
        )
        assert code == 1

    def test_serve_trace_offered_rate_covers_played_prefix_only(
        self, tmp_path
    ):
        """A dense 10-request prefix of a long sparse trace must report
        the prefix's rate, not the whole trace's mean."""
        trace = tmp_path / "trace.txt"
        dense = [f"{i * 0.001}\n" for i in range(10)]
        sparse = [f"{1000.0 + i}\n" for i in range(90)]
        trace.write_text("".join(dense + sparse))
        code, text = run_cli(
            "serve", "--arrival", "trace", "--trace-file", str(trace),
            "--requests", "10", "--instances", "1",
        )
        assert code == 0
        # 10 requests over 9 ms ~ 1111 QPS; whole trace would be ~0.1.
        assert "offered QPS | 1,111.10" in text


class TestControlCommand:
    def test_control_prints_report(self):
        code, text = run_cli(
            "control", "--requests", "300", "--instances", "2",
            "--shedding", "queue-depth", "--queue-threshold", "16",
        )
        assert code == 0
        assert "Control report" in text
        assert "Per-class SLO attainment" in text
        assert "energy (mJ)" in text
        assert "interactive" in text  # default class tiers

    def test_control_custom_classes_and_json(self, tmp_path):
        import json

        out = tmp_path / "report.json"
        code, text = run_cli(
            "control", "--requests", "200",
            "--slo-classes", "rt:5:0.99:0:0.5,bulk:80:0.9:2:0.5",
            "--json", str(out),
        )
        assert code == 0
        assert "rt" in text and "bulk" in text
        payload = json.loads(out.read_text())
        assert len(payload["reports"]) == 1
        report = payload["reports"][0]
        assert {cs["name"] for cs in report["class_stats"]} == {
            "rt", "bulk"
        }
        assert report["energy_joules"] > 0

    def test_control_autoscale_and_fleet_spec(self):
        code, text = run_cli(
            "control", "--requests", "300", "--fleet", "0.8x2,0.6x2",
            "--autoscale", "utilization", "--min-instances", "1",
        )
        assert code == 0
        assert "instances=4" in text
        assert "autoscale events" in text

    def test_control_energy_aware_routing_on_hetero_fleet(self):
        code, text = run_cli(
            "control", "--requests", "300", "--fleet", "0.8x2,0.6x2",
            "--policy", "energy-aware",
        )
        assert code == 0
        assert "policy=energy-aware" in text
        assert "energy (mJ)" in text

    def test_control_diurnal_autoscale(self):
        code, text = run_cli(
            "control", "--requests", "400", "--arrival", "diurnal",
            "--diurnal-period", "0.5", "--autoscale", "utilization",
            "--min-instances", "1",
        )
        assert code == 0
        assert "arrival=diurnal" in text
        assert "autoscale events" in text

    def test_control_static_frontier_sweep_marks_pareto(self, tmp_path):
        args = (
            "control", "--requests", "200", "--qps", "1500",
            "--sweep-voltages", "0.6,0.8", "--sweep-fleet-sizes", "1,2",
            "--cache-dir", str(tmp_path),
        )
        code, text = run_cli(*args)
        assert code == 0
        assert "Control sweep (4 scenarios" in text
        assert "Pareto" in text and "*" in text
        assert "0.60V x1" in text
        code2, text2 = run_cli(*args)  # warm rerun: cache-served
        assert code2 == 0 and text2 == text

    def test_control_governor_sweep(self):
        code, text = run_cli(
            "control", "--requests", "200", "--qps", "1000",
            "--sweep-governors", "utilization,dvfs",
        )
        assert code == 0
        assert "utilization" in text and "dvfs" in text

    def test_control_sweep_modes_conflict(self):
        code, _ = run_cli(
            "control", "--sweep-governors", "dvfs",
            "--sweep-voltages", "0.8",
        )
        assert code == 1

    def test_control_bad_fleet_spec_fails_cleanly(self):
        code, _ = run_cli("control", "--fleet", "fastx2")
        assert code == 1


class TestServeControlRouting:
    def test_serve_with_slo_flags_routes_to_control_plane(self):
        code, text = run_cli(
            "serve", "--requests", "200", "--shedding", "deadline",
        )
        assert code == 0
        assert "Control report" in text
        assert "SLO attainment" in text

    def test_serve_slo_flags_conflict_with_sweeps(self):
        code, _ = run_cli(
            "serve", "--shedding", "deadline",
            "--sweep-policies", "affinity",
        )
        assert code == 1

    def test_serve_json_output(self, tmp_path):
        import json

        out = tmp_path / "serve.json"
        code, _ = run_cli(
            "serve", "--requests", "200", "--instances", "2",
            "--json", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        (report,) = payload["reports"]
        assert report["requests"] == 200
        assert report["energy_joules"] is None  # plain data plane
        assert len(report["utilization_busy"]) == 2

    def test_serve_curve_json_lists_every_point(self, tmp_path):
        import json

        out = tmp_path / "curve.json"
        code, _ = run_cli(
            "serve", "--requests", "200", "--instances", "2",
            "--curve-qps", "500,1500", "--json", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["reports"]) == 2

    def test_serve_json_unwritable_path_fails_cleanly(self, tmp_path):
        code, _ = run_cli(
            "serve", "--requests", "50",
            "--json", str(tmp_path / "no" / "such" / "dir.json"),
        )
        assert code == 1


class TestAtomicJsonWrites:
    """--json writes are atomic: tempfile in the target directory,
    then os.replace — a failed serialization can never truncate a
    previous good report."""

    def test_write_replaces_not_truncates(self, tmp_path):
        import json

        from repro.cli import _write_json_payload

        target = tmp_path / "report.json"
        _write_json_payload(str(target), {"run": 1})
        assert json.loads(target.read_text()) == {"run": 1}
        _write_json_payload(str(target), {"run": 2})
        assert json.loads(target.read_text()) == {"run": 2}
        # No stray temp files once the write lands.
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_write_keeps_previous_payload(self, tmp_path):
        import json

        from repro.cli import _write_json_payload

        target = tmp_path / "report.json"
        _write_json_payload(str(target), {"good": True})
        with pytest.raises(TypeError):
            # json.dump fails mid-stream; the half-written temp file
            # must be discarded, never os.replace'd over the target.
            _write_json_payload(str(target), {"bad": object()})
        assert json.loads(target.read_text()) == {"good": True}
        assert list(tmp_path.iterdir()) == [target]

    def test_unwritable_directory_raises_repro_error(self, tmp_path):
        from repro.cli import _write_json_payload
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            _write_json_payload(
                str(tmp_path / "no" / "dir.json"), {"x": 1}
            )

    @pytest.mark.parametrize(
        "flags",
        [
            ("--json",),
            ("--trace",),
            ("--checkpoint-every", "0.1", "--checkpoint"),
        ],
        ids=["json", "trace", "checkpoint"],
    )
    def test_directory_output_path_fails_cleanly(
        self, flags, tmp_path, capsys
    ):
        """An output path naming a directory exits 1 with an
        ``error:`` line instead of an ``IsADirectoryError`` traceback,
        and leaves no temp file behind."""
        target = tmp_path / "out"
        target.mkdir()
        code, _ = run_cli(
            "control", "--requests", "2000", "--policy", "round-robin",
            *flags, str(target),
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.rglob(".trace-*")) == []
        assert list(tmp_path.rglob(".tmp-*")) == []
        assert list(target.iterdir()) == []


    @pytest.mark.parametrize(
        "flags",
        [
            ("--json",),
            ("--trace",),
            ("--checkpoint-every", "0.01", "--checkpoint"),
        ],
        ids=["json", "trace", "checkpoint"],
    )
    def test_outputs_respect_the_umask(self, flags, tmp_path):
        """Outputs get the mode a plain ``open()`` would give them, not
        the temp file's private 0600."""
        import os
        import stat

        target = tmp_path / "out"
        old = os.umask(0o022)
        try:
            code, _ = run_cli(
                "control", "--requests", "300", *flags, str(target)
            )
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o644


class TestTooFineMetricsWindow:
    def test_fails_cleanly_instead_of_hanging(self, tmp_path):
        """A window needing more than ``MAX_GRID`` samples exits 1 with
        an ``error:`` line naming an accepted window — it used to sample
        for ever — and writes no output file."""
        proc = TestNonFiniteInputs._run_repro(
            [
                "control", "--requests", "300", "--policy", "round-robin",
                "--metrics-every", "1e-9",
                "--json", "r.json", "--trace", "t.json",
            ],
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "too fine" in proc.stderr and "at least" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []


class TestTelemetryCli:
    def test_serve_trace_and_metrics(self, tmp_path):
        import json

        trace = tmp_path / "run.trace.json"
        report = tmp_path / "report.json"
        code, text = run_cli(
            "serve", "--requests", "300", "--instances", "2",
            "--trace", str(trace), "--metrics-every", "0.02",
            "--json", str(report),
        )
        assert code == 0
        assert "Engine execution" in text
        assert "Metrics timeline" in text
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]
        counters = payload["otherData"]
        assert counters["offered"] == 300
        assert (
            counters["completed"] + counters["shed"]
            == counters["offered"]
        )
        report_payload = json.loads(report.read_text())
        (engine,) = report_payload["engine"]
        # Observing keeps the run on the event fold.
        assert engine["dispatch"] == "fold"
        assert report_payload["metrics"]["timelines"]
        # The report dicts themselves stay telemetry-free.
        assert "engine_events" not in report_payload["reports"][0]

    def test_fine_metrics_window_keeps_stdout_bounded(self, tmp_path):
        """A fine window retains thousands of samples; the text table
        prints a bounded, evenly spaced subset (first and last
        included) while ``--json`` keeps every sample."""
        import json

        from repro.eval.obs import TIMELINE_MAX_ROWS

        report = tmp_path / "fine.json"
        args = (
            "control", "--requests", "3000", "--policy", "round-robin",
            "--shedding", "deadline", "--metrics-every", "1e-4",
        )
        code, text = run_cli(*args)
        assert code == 0
        lines = text.splitlines()
        # Unbounded, this printed ~4,100 lines and ~310 kB.
        assert len(lines) < 150
        assert len(text) < 12_000
        (title,) = [
            k for k, line in enumerate(lines)
            if line.startswith("Metrics timeline")
        ]
        code, _ = run_cli(*args, "--json", str(report))
        assert code == 0
        (series,) = json.loads(report.read_text())["metrics"]["timelines"]
        samples = series["samples"]
        assert len(samples) > TIMELINE_MAX_ROWS
        assert (
            f"{TIMELINE_MAX_ROWS} of {len(samples)} samples; "
            "full series in --json"
        ) in lines[title]
        # Title, rule, header and separator precede the rows.
        rows = lines[title + 4:]
        rows = rows[: rows.index("")] if "" in rows else rows
        assert len(rows) == TIMELINE_MAX_ROWS
        for row, sample in ((rows[0], samples[0]), (rows[-1], samples[-1])):
            assert row.split("|")[0].strip() == f"{sample['t']:,.3f}"

    def test_control_multi_fleet_trace(self, tmp_path):
        import json

        trace = tmp_path / "mf.trace.json"
        code, text = run_cli(
            "control", "--multi-fleet-qps", "2000,800",
            "--requests", "300", "--spillover", "deadline",
            "--shedding", "deadline", "--trace", str(trace),
        )
        assert code == 0
        assert "Multi-fleet report" in text
        payload = json.loads(trace.read_text())
        pids = {
            e["pid"]
            for e in payload["traceEvents"]
            if e["ph"] != "M"
        }
        assert pids == {0, 1}

    def test_multi_fleet_json_reports_each_member_path(self, tmp_path):
        """A multi-fleet ``--json`` says which execution path every
        member fleet ran, in the single-run ``engine`` shape, beside
        (not inside) the physics payload."""
        import json

        report = tmp_path / "mf.json"
        code, _ = run_cli(
            "control", "--multi-fleet-qps", "2000,800",
            "--requests", "300", "--spillover", "deadline",
            "--shedding", "deadline", "--json", str(report),
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert list(payload) == ["multi_fleet", "engine"]
        engine = payload["engine"]
        assert len(engine) == len(payload["multi_fleet"]["fleets"]) == 2
        # Governor-less least-loaded members take the event fold.
        for entry in engine:
            assert entry["dispatch"] == "fold"
            assert "fallback" not in entry
            assert entry["events"] > 0

    def test_multi_fleet_jobs_leave_a_single_run_unchanged(self, tmp_path):
        """One multi-fleet run drains its members serially in one
        process; ``--jobs`` only fans out whole scenarios, so it leaves
        a single run's report byte-identical."""
        import json

        reports = []
        for jobs in ("1", "2"):
            report = tmp_path / f"mf-jobs{jobs}.json"
            code, text = run_cli(
                "control", "--multi-fleet-qps", "9000,9000,800",
                "--requests", "1000", "--instances", "2",
                "--shedding", "priority", "--modulator", "diurnal",
                "--diurnal-period", "0.05", "--spillover", "deadline",
                "--seed", "1", "--jobs", jobs, "--json", str(report),
            )
            assert code == 0
            reports.append((text, report.read_bytes()))
        assert reports[0] == reports[1]
        summary = json.loads(reports[0][1])["multi_fleet"]
        assert summary["spilled_requests"] > 0
        assert summary["conserved"]

    def test_trace_summary_subcommand(self, tmp_path):
        trace = tmp_path / "run.trace.json"
        code, _ = run_cli(
            "control", "--requests", "200", "--shedding", "deadline",
            "--trace", str(trace),
        )
        assert code == 0
        code, text = run_cli("trace", "summary", str(trace))
        assert code == 0
        assert "Trace summary" in text
        assert "offered=200" in text

    def test_trace_summary_missing_file_fails_cleanly(self, tmp_path):
        code, _ = run_cli(
            "trace", "summary", str(tmp_path / "nope.json")
        )
        assert code == 1

    def test_telemetry_conflicts_with_sweeps(self, tmp_path):
        code, _ = run_cli(
            "serve", "--sweep-policies", "round-robin",
            "--trace", str(tmp_path / "t.json"),
        )
        assert code == 1
        code, _ = run_cli(
            "control", "--sweep-governors", "utilization,dvfs",
            "--metrics-every", "0.5",
        )
        assert code == 1

    def test_bad_metrics_interval_fails_cleanly(self):
        code, _ = run_cli(
            "serve", "--requests", "50", "--metrics-every", "0"
        )
        assert code == 1

    def test_untraced_output_is_unchanged_by_flags_absence(
        self, tmp_path
    ):
        """No telemetry flags -> byte-identical CLI output to a run
        with telemetry wired but inactive (the default path)."""
        a = run_cli("serve", "--requests", "200", "--instances", "2")
        b = run_cli("serve", "--requests", "200", "--instances", "2")
        assert a == b


class TestCheckpointCli:
    _SCENARIO = (
        "--mix", "mixed", "--qps", "1500", "--requests", "2000",
        "--instances", "3", "--shedding", "deadline",
        "--autoscale", "utilization", "--seed", "9",
    )

    def test_checkpoint_requires_cadence(self, tmp_path):
        code, _ = run_cli(
            "control", *self._SCENARIO,
            "--checkpoint", str(tmp_path / "x.ckpt"),
        )
        assert code == 1

    def test_cadence_requires_checkpoint(self):
        code, _ = run_cli(
            "control", *self._SCENARIO, "--checkpoint-every", "1.0"
        )
        assert code == 1

    def test_checkpoint_conflicts_with_sweeps(self, tmp_path):
        code, _ = run_cli(
            "control", *self._SCENARIO,
            "--sweep-governors", "utilization,dvfs",
            "--checkpoint", str(tmp_path / "x.ckpt"),
            "--checkpoint-every", "1.0",
        )
        assert code == 1
        code, _ = run_cli(
            "serve", "--curve-qps", "100,200",
            "--resume", str(tmp_path / "x.ckpt"),
        )
        assert code == 1

    def test_resume_rejects_checkpoint_every(self, tmp_path, capsys):
        """The cadence comes from the checkpoint: a resume that passes
        --checkpoint-every fails by name instead of ignoring it, and
        --checkpoint alone still redirects the resumed saves."""
        ckpt = tmp_path / "mid.ckpt"
        code, _ = run_cli(
            "control", *self._SCENARIO,
            "--checkpoint", str(ckpt), "--checkpoint-every", "0.2",
        )
        assert code == 0
        before = ckpt.read_bytes()
        capsys.readouterr()
        for extra in ((), ("--checkpoint", str(tmp_path / "b.ckpt"))):
            code, _ = run_cli(
                "control", "--resume", str(ckpt), *extra,
                "--checkpoint-every", "0.5",
            )
            assert code == 1
            err = capsys.readouterr().err
            assert "error: --checkpoint-every" in err
        assert ckpt.read_bytes() == before
        code, _ = run_cli(
            "control", "--resume", str(ckpt),
            "--checkpoint", str(tmp_path / "b.ckpt"),
        )
        assert code == 0

    def test_resume_missing_checkpoint_fails_cleanly(self, tmp_path):
        code, _ = run_cli(
            "control", "--resume", str(tmp_path / "nope.ckpt")
        )
        assert code == 1

    def test_checkpointed_run_report_matches_plain(self, tmp_path):
        ref = tmp_path / "ref.json"
        chk = tmp_path / "chk.json"
        code, _ = run_cli(
            "control", *self._SCENARIO, "--json", str(ref)
        )
        assert code == 0
        code, _ = run_cli(
            "control", *self._SCENARIO, "--json", str(chk),
            "--checkpoint", str(tmp_path / "run.ckpt"),
            "--checkpoint-every", "0.2",
        )
        assert code == 0
        assert ref.read_bytes() == chk.read_bytes()

    def test_resume_report_is_byte_identical(self, tmp_path):
        ref = tmp_path / "ref.json"
        code, _ = run_cli(
            "control", *self._SCENARIO, "--json", str(ref)
        )
        assert code == 0
        ckpt = tmp_path / "run.ckpt"
        code, _ = run_cli(
            "control", *self._SCENARIO,
            "--checkpoint", str(ckpt), "--checkpoint-every", "0.2",
        )
        assert code == 0
        resumed = tmp_path / "resumed.json"
        code, text = run_cli(
            "control", "--resume", str(ckpt), "--json", str(resumed)
        )
        assert code == 0
        assert ref.read_bytes() == resumed.read_bytes()

    def test_serve_resume_renders_by_checkpoint_kind(self, tmp_path):
        """`repro serve --resume` on a control checkpoint renders the
        control-plane report: the checkpoint owns the scenario."""
        ckpt = tmp_path / "run.ckpt"
        code, _ = run_cli(
            "control", *self._SCENARIO,
            "--checkpoint", str(ckpt), "--checkpoint-every", "0.2",
        )
        assert code == 0
        code, text = run_cli("serve", "--resume", str(ckpt))
        assert code == 0
        assert "attainment" in text.lower()

    def test_sigkill_and_resume_is_byte_identical(self, tmp_path):
        """The crash-consistency contract end to end: SIGKILL the
        checkpointing process mid-run, resume in a fresh one, and the
        JSON report must equal the uninterrupted run byte for byte."""
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        scenario = (
            "--mix", "mixed", "--qps", "1500",
            "--requests", "200000", "--instances", "3",
            "--shedding", "deadline", "--autoscale", "utilization",
            "--seed", "9",
        )
        ref = tmp_path / "ref.json"
        code, _ = run_cli("control", *scenario, "--json", str(ref))
        assert code == 0

        ckpt = tmp_path / "run.ckpt"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; from repro.cli import main; "
                "sys.exit(main(sys.argv[1:]))",
                "control", *scenario,
                "--checkpoint", str(ckpt),
                "--checkpoint-every", "2.0",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while not ckpt.exists():
                if proc.poll() is not None or (
                    time.monotonic() > deadline
                ):
                    break
                time.sleep(0.02)
            # Mid-run when we won the race; from the final checkpoint
            # otherwise — the resume contract holds either way.
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert ckpt.exists(), "no checkpoint was written before the kill"

        resumed = tmp_path / "resumed.json"
        code, _ = run_cli(
            "control", "--resume", str(ckpt), "--json", str(resumed)
        )
        assert code == 0
        assert ref.read_bytes() == resumed.read_bytes()


class TestNonFiniteInputs:
    """NaN/inf rates and windows fail with a clear error — before,
    NaN rates and metric windows hung the event loop (simulated time
    never advanced) and NaN waits or infinite rates ran to fabricated
    reports.  The CLI cases run in a subprocess with a timeout, so a
    regression to hanging fails instead of stalling the suite."""

    @staticmethod
    def _run_repro(argv, cwd=None):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=20,
            cwd=cwd,
        )

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("control", "--requests", "200", "--metrics-every", "nan"),
             "--metrics-every must be a finite number"),
            (("control", "--requests", "200", "--metrics-every", "inf"),
             "--metrics-every must be a finite number"),
            (("control", "--requests", "200", "--qps", "nan"),
             "--qps must be a finite number"),
            (("serve", "--requests", "200", "--arrival", "diurnal",
              "--diurnal-period", "nan"),
             "--diurnal-period must be a finite number"),
            (("serve", "--requests", "200", "--max-wait-ms", "nan"),
             "--max-wait-ms must be a finite number"),
            (("serve", "--requests", "200", "--qps", "inf"),
             "--qps must be a finite number"),
            (("serve", "--requests", "200", "--arrival", "bursty",
              "--burst-factor", "nan"),
             "--burst-factor must be a finite number"),
            (("control", "--requests", "200", "--arrival", "bursty",
              "--burst-factor", "nan"),
             "--burst-factor must be a finite number"),
            (("serve", "--requests", "200", "--arrival", "bursty",
              "--burst-factor", "inf"),
             "--burst-factor must be a finite number"),
            (("control", "--requests", "200", "--autoscale",
              "queue-delay", "--target-delay-ms", "nan"),
             "--target-delay-ms must be a finite number"),
            (("control", "--requests", "200", "--autoscale",
              "queue-delay", "--target-delay-ms", "inf"),
             "--target-delay-ms must be a finite number"),
            (("control", "--requests", "200", "--multi-fleet-qps",
              "1000,500", "--spillover", "deadline",
              "--spillover-hop-ms", "nan"),
             "--spillover-hop-ms must be a finite number"),
            (("control", "--requests", "200", "--checkpoint", "c.pkl",
              "--checkpoint-every", "nan"),
             "--checkpoint-every must be a finite number"),
            (("serve", "--requests", "200", "--checkpoint", "c.pkl",
              "--checkpoint-every", "inf"),
             "--checkpoint-every must be a finite number"),
            *(
                ((command, "--requests", "200", "--checkpoint", "c.pkl",
                  "--checkpoint-every", every),
                 "--checkpoint-every must be finite and positive")
                for command in ("serve", "control")
                for every in ("0", "-1")
            ),
        ],
        ids=[
            "metrics-every-nan",
            "metrics-every-inf",
            "qps-nan",
            "diurnal-period-nan",
            "max-wait-nan",
            "qps-inf",
            "serve-burst-factor-nan",
            "control-burst-factor-nan",
            "burst-factor-inf",
            "target-delay-nan",
            "target-delay-inf",
            "spillover-hop-nan",
            "control-checkpoint-every-nan",
            "serve-checkpoint-every-inf",
            "serve-checkpoint-every-zero",
            "serve-checkpoint-every-negative",
            "control-checkpoint-every-zero",
            "control-checkpoint-every-negative",
        ],
    )
    def test_cli_rejects(self, argv, error, tmp_path):
        proc = self._run_repro(argv, cwd=tmp_path)
        assert proc.returncode == 1, proc.stdout[-500:]
        assert f"error: {error}" in proc.stderr
        assert not list(tmp_path.iterdir())  # no checkpoint written

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--slo-classes", "a:nan:0.9:0", "--shedding", "deadline"),
             "deadline_ms must be positive (nan)"),
            (("--slo-classes", "a:5:0.9:0:nan,b:50:0.9:1:1"),
             "share must be finite and positive (nan)"),
            (("--slo-classes", "a:5:0.9:0:inf,b:50:0.9:1:1"),
             "share must be finite and positive (inf)"),
            (("--dvfs-ladder", "0.8,nan", "--autoscale", "dvfs"),
             "voltage must be finite (got nan V)"),
            (("--sweep-voltages", "0.8,nan"),
             "voltage must be finite (got nan V)"),
            (("--fleet", "nanx2"), "voltage must be finite (got nan V)"),
            (("--fleet", "0.8x2,infx1"),
             "voltage must be finite (got inf V)"),
        ],
        ids=[
            "slo-deadline-nan",
            "slo-share-nan",
            "slo-share-inf",
            "dvfs-ladder-nan",
            "sweep-voltages-nan",
            "fleet-nan",
            "fleet-inf",
        ],
    )
    def test_cli_rejects_non_finite_config(self, argv, message, tmp_path):
        """NaN SLO deadlines shed every request, non-finite shares
        silently starved their class, and non-finite voltages crashed
        rendering or failed with a misleading rate error."""
        proc = self._run_repro(
            ("control", "--requests", "300", *argv), cwd=tmp_path
        )
        assert proc.returncode == 1, proc.stdout[-500:]
        assert f"error: {message}" in proc.stderr

    @pytest.mark.parametrize("command", ["serve", "control"])
    def test_cli_rejects_nan_trace_file(self, command, tmp_path):
        """A ``nan`` line in a trace used to hang both planes."""
        trace = tmp_path / "trace.txt"
        trace.write_text("0.0\n0.001\nnan\n0.003\n")
        proc = self._run_repro(
            (command, "--arrival", "trace", "--trace-file", str(trace))
        )
        assert proc.returncode != 0, proc.stdout[-500:]
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_constructors_reject(self, value):
        from repro.control import ControlScenario
        from repro.errors import ConfigError
        from repro.obs import Observability
        from repro.serve import Engine, Fleet, ServingScenario, make_policy
        from repro.serve.arrival import DiurnalArrivals, PoissonArrivals

        builders = [
            lambda: ServingScenario(qps=value),
            lambda: ServingScenario(max_wait_ms=value),
            lambda: ControlScenario(qps=value),
            lambda: ControlScenario(max_wait_ms=value),
            lambda: ControlScenario(tick_ms=value),
            lambda: PoissonArrivals(value),
            lambda: DiurnalArrivals(100.0, period_s=value),
            lambda: Observability(metrics_every_s=value),
            lambda: Engine(
                Fleet(1), make_policy("round-robin"), 8, max_wait_s=value
            ),
            lambda: Engine(
                Fleet(1), make_policy("round-robin"), 8, 0.0, tick_s=value
            ),
        ]
        for build in builders:
            with pytest.raises(ConfigError, match="finite"):
                build()
