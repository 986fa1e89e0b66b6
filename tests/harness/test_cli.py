"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.harness.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.experiment == "fig6"
        assert args.pixels == 64
        assert args.cases == 3

    def test_all_choice(self):
        args = build_parser().parse_args(["all", "--pixels", "32"])
        assert args.experiment == "all"
        assert args.pixels == 32

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])


class TestMain:
    def test_model_only_experiment(self, capsys):
        assert main(["fig6", "--pixels", "32", "--cases", "1"]) == 0
        out = capsys.readouterr().out
        assert "FIG6" in out
        assert "ChunkWidth" in out

    def test_fig7b(self, capsys):
        assert main(["fig7b", "--pixels", "32", "--cases", "1"]) == 0
        assert "ThreadblocksPerSV" in capsys.readouterr().out

    def test_tune(self, capsys):
        assert main(["tune", "--zero-skip", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "auto-tuned" in out
        assert "sv_side=" in out


class TestProfile:
    def test_parser_accepts_profile_flags(self):
        args = build_parser().parse_args(
            ["profile", "--driver", "gpu", "--equits", "1.5", "--metrics-json", "m.json"]
        )
        assert args.experiment == "profile"
        assert args.driver == "gpu"
        assert args.equits == 1.5
        assert args.metrics_json == "m.json"

    def test_metrics_json_round_trips(self, tmp_path, capsys):
        """`profile --metrics-json` writes a report json.load can read back."""
        import json

        path = tmp_path / "metrics.json"
        assert main([
            "profile", "--pixels", "32", "--equits", "1",
            "--metrics-json", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "gpu_icd" in out and str(path) in out

        with open(path) as f:
            report = json.load(f)
        assert set(report["drivers"]) == {"icd", "psv_icd", "gpu_icd"}
        for name, entry in report["drivers"].items():
            # Per-iteration spans under the run root.
            run = entry["spans"][0]
            iters = [s for s in run["children"] if s["name"] == "iteration"]
            assert iters, name
            assert all(s["duration_s"] > 0 for s in iters)
        # GPU-ICD: per-kernel-phase timings + counters + the model join.
        gpu = report["drivers"]["gpu_icd"]
        batch = next(
            s for s in gpu["spans"][0]["children"][0]["children"]
            if s["name"] == "kernel_batch"
        )
        assert [c["name"] for c in batch["children"]] == ["extract", "update", "merge"]
        assert gpu["counters"]["gpu.batches"] >= 1
        assert any(k.startswith("kernel.") for k in gpu["counters"])
        join = gpu["measured_vs_modeled"]
        assert join["modeled_s"]["total"] > 0
        assert join["measured_s"]["update"] > 0

    def test_profile_single_driver_without_json(self, capsys):
        assert main(["profile", "--pixels", "32", "--equits", "1",
                     "--driver", "icd"]) == 0
        out = capsys.readouterr().out
        assert "icd:" in out
        assert "psv_icd" not in out

    @pytest.mark.parametrize("flags", [
        ["--pipeline"], ["--wave-batch", "4"], ["--backend", "thread"],
    ])
    def test_deleted_execution_options_rejected(self, flags, capsys):
        """Removed backend/pipelining options are usage errors, not no-ops."""
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--pixels", "16", "--equits", "1",
                  "--driver", "psv", *flags])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()


class TestProfileResilienceFlags:
    def test_parser_accepts_checkpoint_flags(self):
        args = build_parser().parse_args([
            "profile", "--checkpoint-dir", "ck", "--checkpoint-every", "2",
            "--resume",
        ])
        assert args.checkpoint_dir == "ck"
        assert args.checkpoint_every == 2
        assert args.resume is True

    def test_resume_requires_checkpoint_dir(self, capsys):
        """Semantic flag conflicts report the usage exit code, not a crash."""
        assert main(["profile", "--pixels", "16", "--equits", "1",
                     "--driver", "icd", "--resume"]) == EXIT_USAGE
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_dir_writes_per_driver_subdirs(self, tmp_path, capsys):
        assert main([
            "profile", "--pixels", "16", "--equits", "1", "--driver", "icd",
            "--checkpoint-dir", str(tmp_path / "ck"),
        ]) == 0
        files = list((tmp_path / "ck" / "icd").glob("ckpt-*.ckpt"))
        assert files
        out = capsys.readouterr().out
        assert "checkpoint.saves" in out

    def test_resume_picks_up_latest(self, tmp_path, capsys):
        common = ["profile", "--pixels", "16", "--equits", "2",
                  "--driver", "icd", "--checkpoint-dir", str(tmp_path / "ck")]
        assert main(common) == 0
        capsys.readouterr()
        assert main(common + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "icd:" in out


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_version_matches_pyproject(self):
        from pathlib import Path

        import repro

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        assert f'version = "{repro.__version__}"' in pyproject.read_text()


class TestExitCodes:
    """Bad arguments and runtime failures report distinct exit codes."""

    def test_bad_arguments_exit_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["fig9"])
        assert exc_info.value.code == EXIT_USAGE

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == EXIT_USAGE

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        # status for a job no server ever accepted: a runtime failure.
        assert main(["status", str(tmp_path), "no-such-job"]) == EXIT_RUNTIME
        assert "no-such-job" in capsys.readouterr().err

    def test_bad_params_json_exits_2(self, tmp_path, capsys):
        assert main([
            "submit", str(tmp_path), "--driver", "icd",
            "--scan", "scan.npz", "--params", "{not json",
        ]) == EXIT_USAGE
        assert "JSON" in capsys.readouterr().err

    def test_success_exits_0(self, capsys):
        assert main(["tune", "--zero-skip", "0.3"]) == EXIT_OK


class TestServiceCommands:
    """The submit/status/cancel subcommands speak the queue-dir protocol."""

    def test_submit_writes_incoming_spec(self, tmp_path, capsys):
        import json

        assert main([
            "submit", str(tmp_path), "--driver", "psv_icd",
            "--scan", "scan.npz", "--params", '{"max_equits": 2.0}',
            "--priority", "7", "--job-id", "jobx",
        ]) == EXIT_OK
        assert "jobx" in capsys.readouterr().out
        doc = json.loads((tmp_path / "incoming" / "jobx.json").read_text())
        assert doc["driver"] == "psv_icd"
        assert doc["priority"] == 7
        assert doc["params"] == {"max_equits": 2.0}

    def test_cancel_drops_sentinel(self, tmp_path, capsys):
        assert main(["cancel", str(tmp_path), "jobx"]) == EXIT_OK
        assert (tmp_path / "jobs" / "jobx" / "cancel").exists()

    def test_serve_drains_a_submitted_job(self, tmp_path, capsys, scan16):
        import json

        from repro.io import save_scan

        save_scan(tmp_path / "scan.npz", scan16)
        assert main([
            "submit", str(tmp_path), "--driver", "icd", "--scan", "scan.npz",
            "--params", '{"max_equits": 1.0, "track_cost": false}',
            "--job-id", "cli-job",
        ]) == EXIT_OK
        assert main([
            "serve", str(tmp_path), "--workers", "1", "--drain",
            "--max-seconds", "120",
            "--metrics-json", str(tmp_path / "service.json"),
        ]) == EXIT_OK
        out = capsys.readouterr().out
        assert "drained" in out
        status = json.loads(
            (tmp_path / "jobs" / "cli-job" / "status.json").read_text()
        )
        assert status["state"] == "DONE"
        assert (tmp_path / "jobs" / "cli-job" / "result.npz").exists()
        report = json.loads((tmp_path / "service.json").read_text())
        assert report["counters"]["service.jobs_completed"] == 1


class TestHttpCommands:
    """serve-http / loadtest: parser shape, usage errors, end-to-end load."""

    def test_parser_accepts_serve_http_flags(self):
        args = build_parser().parse_args([
            "serve-http", "--scan-root", "/data", "--port", "0",
            "--workers", "3", "--max-queue-depth", "8",
        ])
        assert args.experiment == "serve-http"
        assert args.scan_root == "/data"
        assert args.port == 0
        assert args.max_queue_depth == 8

    def test_serve_http_requires_scan_root(self):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["serve-http"])
        assert exc_info.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command", [
        ["serve", "q"], ["serve-http", "--scan-root", "/data"],
    ])
    def test_worker_model_accepts_only_process(self, command, capsys):
        """``--worker-model process`` keeps parsing; the deleted thread
        model is a usage error, as is the chaos flag that chose models."""
        args = build_parser().parse_args([*command, "--worker-model", "process"])
        assert args.worker_model == "process"
        for argv in ([*command, "--worker-model", "thread"],
                     ["chaos", "--worker-model", "process"]):
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            assert exc_info.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_parser_accepts_loadtest_flags(self):
        args = build_parser().parse_args([
            "loadtest", "http://127.0.0.1:9", "--mode", "open",
            "--rate", "25", "--jobs", "200", "--slo", "2.5",
            "--distinct-seeds", "6",
        ])
        assert args.experiment == "loadtest"
        assert args.mode == "open"
        assert args.rate == 25.0
        assert args.slo == 2.5

    def test_open_loop_without_rate_exits_2(self, capsys):
        assert main(["loadtest", "http://127.0.0.1:9", "--mode", "open"]) \
            == EXIT_USAGE
        assert "--rate" in capsys.readouterr().err

    def test_loadtest_bad_params_json_exits_2(self, capsys):
        assert main([
            "loadtest", "http://127.0.0.1:9", "--params", "{not json",
        ]) == EXIT_USAGE
        assert "JSON" in capsys.readouterr().err

    def test_loadtest_against_live_gateway(self, tmp_path, capsys, scan16):
        import json

        from repro.io import save_scan
        from repro.service import HttpGateway, ReconstructionService

        save_scan(tmp_path / "scan.npz", scan16)
        service = ReconstructionService(
            n_workers=2, cache_dir=tmp_path / "cache", start=True
        )
        with HttpGateway(service, scan_root=tmp_path, own_service=True) as gw:
            assert main([
                "loadtest", gw.url, "--jobs", "6", "--concurrency", "3",
                "--distinct-seeds", "2", "--slo", "120",
                "--params", '{"max_equits": 1.0, "track_cost": false}',
                "--report-json", str(tmp_path / "load.json"),
            ]) == EXIT_OK
        out = capsys.readouterr().out
        assert "closed-loop: 6/6 jobs" in out
        report = json.loads((tmp_path / "load.json").read_text())
        assert report["completed"] == 6
        assert report["server_errors_5xx"] == 0
        assert report["slo_violations"] == 0
        assert report["status_counts"]["201"] == 6
