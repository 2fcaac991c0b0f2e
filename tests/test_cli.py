from __future__ import annotations

import json

import pytest

from agentfork.cli import main
from agentfork.harness.report import parse_machine_report
from agentfork.harness.workload import bundled_workload_path


def test_run_writes_machine_report(tmp_path, capsys):
    report_path = tmp_path / "out.report"
    code = main(
        [
            "run",
            "--workload", str(bundled_workload_path("demo")),
            "--seed", "5",
            "--report", str(report_path),
            "--format", "machine",
        ]
    )
    assert code == 0
    summary = parse_machine_report(report_path.read_text())
    assert summary["seed"] == 5
    assert summary["status"] == "completed"


def test_run_accepts_bundled_name_and_prints_human(capsys):
    code = main(["run", "--workload", "quiet", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Run: quiet" in out
    assert "status: completed" in out


def test_run_with_config_file(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"memory_threshold": 0.4}))
    code = main(
        ["run", "--workload", "single_spike", "--config", str(config_path), "--seed", "2",
         "--report", str(tmp_path / "r.txt"), "--format", "machine"]
    )
    assert code == 0


def test_run_missing_workload_is_schema_error(capsys):
    code = main(["run", "--workload", "/does/not/exist.json"])
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_run_bad_config_exits_nonzero(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"spawn_threshold": 3.0}))
    code = main(["run", "--workload", "quiet", "--config", str(config_path)])
    assert code == 2


@pytest.mark.parametrize(
    "config, key",
    [
        ({"child_timeout_secs": 0}, "child_timeout_secs"),
        ({"step_duration_secs": -1}, "step_duration_secs"),
        ({"max_spawn_depth": "3"}, "max_spawn_depth"),
        ({"embedding_dim": 1.5}, "embedding_dim"),
        ({"checkpoint_dir": 5}, "checkpoint_dir"),
        ({"max_spawn_depth": 2.5}, "max_spawn_depth"),
        ({"concurrent_spawn_limit": True}, "concurrent_spawn_limit"),
        ({"price_per_api_call": float("nan")}, "price_per_api_call"),
        ({"max_spawn_depth": 0}, "max_spawn_depth"),
        ({"concurrent_spawn_limit": 0}, "concurrent_spawn_limit"),
        ({"embedding_dim": 64}, "embedding_dim"),
    ],
)
def test_run_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, config, key):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(config))
    code = main(["run", "--workload", "demo", "--config", str(config_path)])
    assert code == 2
    assert key in capsys.readouterr().err


def test_workload_embedding_dim_sets_the_embedder(tmp_path, capsys):
    data = json.loads(bundled_workload_path("demo").read_text(encoding="utf-8"))
    data["embedding_dim"] = 32
    path = tmp_path / "dim32.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 0
    report_path = tmp_path / "r.txt"
    code = main(["run", "--workload", str(path), "--report", str(report_path), "--format", "machine"])
    assert code == 0
    summary = parse_machine_report(report_path.read_text())
    assert summary["status"] == "completed"
    assert summary["spawn_count"] == 1


def test_run_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main(["run", "--workload", "quiet", "--config", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_generate_validate_run_pipeline(tmp_path, capsys):
    params_path = tmp_path / "params.json"
    params_path.write_text(
        json.dumps({"item_count": 24, "conflict_count": 40, "name": "pipeline"})
    )
    out_path = tmp_path / "generated.json"
    assert main(["generate", "--seed", "4", "--params", str(params_path), "--out", str(out_path)]) == 0
    assert main(["validate", str(out_path)]) == 0
    assert "ok" in capsys.readouterr().out
    report_path = tmp_path / "r.txt"
    assert main(
        ["run", "--workload", str(out_path), "--seed", "4",
         "--report", str(report_path), "--format", "machine"]
    ) == 0
    assert parse_machine_report(report_path.read_text())["workload"] == "pipeline"


def test_generate_rejects_bad_params(tmp_path, capsys):
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps({"item_count": -5}))
    code = main(["generate", "--seed", "1", "--params", str(params_path), "--out", str(tmp_path / "w.json")])
    assert code == 2
    assert "item_count" in capsys.readouterr().err


def test_validate_reports_field_paths(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    data = json.loads(bundled_workload_path("quiet").read_text())
    data["trajectory"][0]["O_c"] = 2.0
    bad.write_text(json.dumps(data))
    code = main(["validate", str(bad)])
    assert code == 1
    assert "trajectory[0].O_c" in capsys.readouterr().err


def test_validate_list_shows_bundled(capsys):
    assert main(["validate", "--list"]) == 0
    out = capsys.readouterr().out
    assert "demo" in out and "tier_calibration" in out


def test_validate_rejects_invalid_json(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("{oops")
    assert main(["validate", str(bad)]) == 2
