from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentfork.cli import main
from agentfork.harness.report import parse_machine_report
from agentfork.harness.workload import bundled_workload_path

SRC = Path(__file__).resolve().parents[1] / "src"


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
        ({"step_duration_secs": 1e308}, "step_duration_secs"),
        ({"child_timeout_secs": 1e308, "cooldown_steps": 0}, "child_timeout_secs"),
        ({"memory_threshold": 2}, "memory_threshold"),
        ({"semantic_merge_p": -0.5}, "semantic_merge_p"),
        ({"promote_threshold": 1.5}, "promote_threshold"),
        ({"price_per_1k_tokens": -1}, "price_per_1k_tokens"),
        ({"price_per_api_call": -0.01}, "price_per_api_call"),
        ({"spawn_threshold": 3.0}, "spawn_threshold"),
        ({"cooldown_steps": -1}, "cooldown_steps"),
        ({"lambda_decay": 0}, "lambda_decay"),
        ({"w1": 0.4, "w2": -0.1}, "w2"),
        ({"alpha": 0.6, "delta": -0.1}, "delta"),
        ({"alpha": -0.1, "beta": 0.7}, "alpha"),
        # Only a rule that spans keys is reported at the top level.
        ({"w1": 0.9}, "$"),
        ({"alpha": 0.5}, "$"),
        # Both ends of the w1..w5 keys.
        ({"w1": -0.1, "w2": 0.5}, "w1"),
        ({"w4": 0.25, "w5": -0.1}, "w5"),
        # A price past 2**53 would make the report's costs infinite.
        ({"price_per_api_call": 1e308}, "price_per_api_call"),
        ({"price_per_1k_tokens": 1e308}, "price_per_1k_tokens"),
        # The two middle relevance weights.
        ({"alpha": 0.5, "beta": -0.2}, "beta"),
        ({"alpha": 0.6, "gamma": -0.1}, "gamma"),
    ],
)
def test_run_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, config, key):
    """Every error is one line at the path of the key at fault."""
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(config))
    code = main(["run", "--workload", "demo", "--config", str(config_path)])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"{config_path}: {key}: ")


def test_out_of_range_message_names_only_existing_bounds(tmp_path, capsys):
    # max_spawn_depth has an upper bound (2**53) and no lower one in the table
    config_path = tmp_path / "big.json"
    config_path.write_text(json.dumps({"max_spawn_depth": 10**20}))
    code = main(["run", "--workload", "demo", "--config", str(config_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "max_spawn_depth" in err
    assert "must be <= 9007199254740992" in err
    assert "None" not in err


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


def test_run_spawns_at_a_score_of_one_when_the_weights_sum_just_over_one(tmp_path, capsys):
    """Valid weights sum to 1 within 1e-9; at every metric's prior maximum
    the spawn score is capped at 1 instead of failing the package check."""
    data = json.loads(bundled_workload_path("single_spike").read_text(encoding="utf-8"))
    data["trajectory"] = [{"I_f": 20, "C_c": 50, "F_c": 100, "O_c": 1.0, "U_c": 10}]
    workload_path = tmp_path / "peak.json"
    workload_path.write_text(json.dumps(data))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"w1": 0.3000000004}))
    assert main(["validate", str(workload_path)]) == 0
    report_path = tmp_path / "r.txt"
    code = main(
        ["run", "--workload", str(workload_path), "--config", str(config_path),
         "--report", str(report_path), "--format", "machine"]
    )
    assert code == 0
    summary = parse_machine_report(report_path.read_text())
    assert summary["spawn_count"] == 1
    assert summary["spawn.1.score"] == 1.0


def test_python_m_agentfork_exits_with_the_cli_code(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    listed = subprocess.run(
        [sys.executable, "-m", "agentfork", "validate", "--list"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert listed.returncode == 0
    assert "demo" in listed.stdout.split()
    missing = subprocess.run(
        [sys.executable, "-m", "agentfork", "run", "--workload", "demo", "--config", "absent.json"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert missing.returncode == 2
    assert "absent.json: no such file" in missing.stderr


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


def test_validate_accepts_a_bundled_name(capsys):
    assert main(["validate", "demo"]) == 0
    assert capsys.readouterr().out == "demo: ok\n"


def test_validate_unknown_name_exits_2_as_run_does(capsys):
    for command in (["validate"], ["run", "--workload"]):
        assert main(command + ["no_such_workload"]) == 2
        assert capsys.readouterr().err == "no_such_workload: no such file or bundled workload\n"


def test_validate_rejects_invalid_json(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("{oops")
    assert main(["validate", str(bad)]) == 2


def test_validate_pins_its_lines_and_exit_codes(tmp_path, capsys):
    """Exit 1 with one line per schema error, in the table's order, for a
    file that decodes; exit 2 naming the path for one that does not."""
    data = json.loads(bundled_workload_path("quiet").read_text(encoding="utf-8"))
    data["memory"][1].update(tier="bogus", extra=1)
    data["memory"][2]["id"] = data["memory"][0]["id"]
    data["trajectory"] = []
    data["embedding_dim"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data, indent=2), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{bad}: embedding_dim: 0 outside [1, 4096]",
        f"{bad}: memory[1].tier: unknown MemoryTier 'bogus'",
        f"{bad}: memory[1].extra: unknown key",
        f"{bad}: memory[2].id: duplicate 'm0000'",
        f"{bad}: trajectory: must be nonempty",
    ]
    for text, line in (
        (b'{"version": 1, "memory": [{"id": "m0", 12', "invalid JSON (Expecting property name enclosed in double quotes: line 1 column 40 (char 39))"),
        (b'{"version": 1}\n{}', "invalid JSON (Extra data: line 2 column 1 (char 15))"),
        (b'{"name": "caf\xe9"}', "not UTF-8 (byte 13)"),
    ):
        bad.write_bytes(text)
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err == f"{bad}: {line}\n"


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"item_count": "5"}', "item_count"),
        ("2.5", "params.json"),
        ('{"embedding_dim": 0}', "embedding_dim"),
        ('{"conflict_mix": ["a", 0, 0]}', "conflict_mix[0]"),
        ('{"p_semantic": "x"}', "p_semantic"),
        ('{"item_count": 1e400}', "item_count"),
        ('{"embedding_dim": 5000}', "embedding_dim"),
        ('{"name": 5}', "name"),
        ('{"spike": "no"}', "spike"),
        ('{"trajectory_steps": true}', "trajectory_steps"),
    ],
)
def test_generate_bad_params_exit_2_naming_the_key(tmp_path, capsys, text, key):
    params_path = tmp_path / "params.json"
    params_path.write_text(text)
    out_path = tmp_path / "w.json"
    code = main(["generate", "--seed", "1", "--params", str(params_path), "--out", str(out_path)])
    # main returns instead of raising, so no traceback reaches stderr.
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "params, key",
    [
        ({"item_count": 0, "embedding_dim": 0}, "item_count"),
        ({"relevance_target_quantile": 1.5}, "relevance_target_quantile"),
        ({"conflict_mix": [0.5, 0.5, 0.5]}, "conflict_mix"),
        ({"conflict_mix": [1.0, 0.0, 0.5]}, "conflict_mix"),
        ({"p_semantic": 2}, "p_semantic"),
        ({"conflict_count": -1}, "conflict_count"),
        ({"spike_step": -1}, "spike_step"),
        ({"embedding_dim": 0}, "embedding_dim"),
        # Only a rule that spans keys is reported at the top level.
        ({"spike_step": 8, "trajectory_steps": 8}, "$"),
        # Past schema.MAX_CONFLICTS, the bound of a workload's count.
        ({"conflict_count": 10**6 + 1}, "conflict_count"),
        ({"conflict_count": 2**53}, "conflict_count"),
    ],
)
def test_generate_bad_param_value_exits_2_at_the_key(tmp_path, capsys, params, key):
    """A value rule is one line at the path of the key at fault."""
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params))
    code = main(["generate", "--seed", "0", "--params", str(params_path), "--out", str(tmp_path / "g.json")])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"{params_path}: {key}: ")


def _unreadable(tmp_path: Path, kind: str) -> Path:
    path = tmp_path / f"{kind}.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"\xff\xfe{")
    elif kind == "too_deep":
        path.write_text("[" * 100_000)
    return path


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8", "too_deep"])
@pytest.mark.parametrize(
    "command",
    [
        ["run", "--workload"],
        ["run", "--workload", "quiet", "--config"],
        ["generate", "--seed", "1", "--out", "{tmp}/w.json", "--params"],
        ["validate"],
    ],
)
def test_unreadable_input_exits_2_naming_the_path(tmp_path, capsys, command, kind):
    path = _unreadable(tmp_path, kind)
    code = main([arg.format(tmp=tmp_path) for arg in command] + [str(path)])
    assert code == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("target", ["a directory", "under a regular file"])
@pytest.mark.parametrize(
    "command",
    [
        ["run", "--workload", "demo", "--report"],
        ["generate", "--seed", "1", "--out"],
    ],
    ids=["run", "generate"],
)
def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys, command, target):
    if target == "a directory":
        out = tmp_path / "out"
        out.mkdir()
    else:
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    assert main(command + [str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{out}: cannot write (")
    assert captured.err.endswith(")\n") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("target", ["a directory", "under a regular file"])
def test_unwritable_report_exits_2_before_the_run(tmp_path, capsys, monkeypatch, target):
    def no_run(*args):
        raise AssertionError("run_simulation called for an unwritable report")

    monkeypatch.setattr("agentfork.cli.run_simulation", no_run)
    if target == "a directory":
        out = tmp_path / "out"
        out.mkdir()
    else:
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    assert main(["run", "--workload", "demo", "--report", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"{out}: cannot write (")


def _quiet_with(edit) -> dict:
    data = json.loads(bundled_workload_path("quiet").read_text(encoding="utf-8"))
    edit(data)
    return data


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda d: d.update(name="\ud800"), "name"),
        (lambda d: d["task"].update(constraints=["ok", "x\udfff"]), "task.constraints[1]"),
    ],
)
def test_validate_rejects_a_lone_surrogate_and_run_exits_2(tmp_path, capsys, edit, path):
    workload = tmp_path / "surrogate.json"
    workload.write_text(json.dumps(_quiet_with(edit)))
    assert main(["validate", str(workload)]) == 1
    assert path in capsys.readouterr().err
    assert main(["run", "--workload", str(workload), "--report", str(tmp_path / "r.txt")]) == 2
    assert path in capsys.readouterr().err


# Each character that ``str.splitlines`` splits at.
_LINE_BREAKS = ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize(
    "name", ["x\nschema=run-report-v0", "a\r\nb", "ends\n"] + [f"a{brk}b" for brk in _LINE_BREAKS]
)
def test_a_name_with_a_line_break_fails_validate_run_and_generate(tmp_path, capsys, name):
    """A machine report holds the workload's name on one ``key=value``
    line, so a name that a line break would split is rejected at the
    ``name`` key of a workload file and of generation params."""
    workload = tmp_path / "w.json"
    workload.write_text(json.dumps(_quiet_with(lambda d: d.update(name=name))))
    assert main(["validate", str(workload)]) == 1
    assert capsys.readouterr().err == f"{workload}: name: must be one line\n"
    assert main(["run", "--workload", str(workload), "--format", "machine"]) == 2
    assert capsys.readouterr() == ("", f"{workload}: name: must be one line\n")
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"item_count": 2, "name": name}))
    assert main(["generate", "--seed", "0", "--params", str(params), "--out", str(tmp_path / "g.json")]) == 2
    assert capsys.readouterr().err == f"{params}: name: name must be one line\n"


@pytest.mark.parametrize("name", ["a=b", "x=schema=run-report-v0", "a\tb", "\t", ""])
def test_a_one_line_name_round_trips_through_the_machine_report(tmp_path, capsys, name):
    workload = tmp_path / "w.json"
    workload.write_text(json.dumps(_quiet_with(lambda d: d.update(name=name))))
    assert main(["run", "--workload", str(workload), "--format", "machine"]) == 0
    summary = parse_machine_report(capsys.readouterr().out)
    assert (summary["schema"], summary["workload"]) == ("run-report-v1", name)


def _tier_calibration_with_count(tmp_path: Path, count: int) -> Path:
    data = json.loads(bundled_workload_path("tier_calibration").read_text(encoding="utf-8"))
    data["conflicts"]["count"] = count
    workload = tmp_path / "count.json"
    workload.write_text(json.dumps(data))
    return workload


@pytest.mark.parametrize("count", [10**6 + 1, 2**53])
def test_a_conflict_count_past_the_bound_fails_validate_and_run(tmp_path, capsys, count):
    """A run takes time linear in the count, so a count that validate
    accepts finishes in seconds, and a larger one never starts."""
    workload = _tier_calibration_with_count(tmp_path, count)
    assert main(["validate", str(workload)]) == 1
    assert "conflicts.count: " in capsys.readouterr().err
    assert main(["run", "--workload", str(workload), "--report", str(tmp_path / "r.txt")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"{workload}: conflicts.count: ")


def test_a_conflict_count_at_the_bound_validates(tmp_path, capsys):
    assert main(["validate", str(_tier_calibration_with_count(tmp_path, 10**6))]) == 0


# Every JSON type, surrogates included. The three size keys draw small
# integers so that a valid draw generates in milliseconds; item_count is
# always given, since its default is 400.
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(st.characters(codec=None, exclude_categories=()), max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_NOT_INT = _JSON.filter(lambda v: type(v) is not int)
_SMALL = st.integers(-1, 6) | _NOT_INT
_OPTIONAL_PARAMS = {
    "relevance_target_quantile": st.floats(0, 1) | _JSON,
    "conflict_mix": st.lists(st.sampled_from([0.0, 0.12, 0.15, 0.73, 0.85, 1.0]), max_size=4) | _JSON,
    "p_semantic": st.floats(0, 1) | _JSON,
    "conflict_count": _SMALL,
    "trajectory_steps": _SMALL,
    "spike_step": st.integers(-1, 6) | _JSON,
    "spike": st.booleans() | _JSON,
    "name": st.text(st.characters(codec=None, exclude_categories=()), max_size=8) | _JSON,
    "embedding_dim": st.integers(-1, 5000) | _JSON,
}


@settings(max_examples=120, deadline=None)
@given(st.fixed_dictionaries({"item_count": _SMALL}, optional=_OPTIONAL_PARAMS))
def test_generate_either_names_a_key_or_writes_a_valid_workload(params):
    with tempfile.TemporaryDirectory() as tmp:
        params_path, out_path = Path(tmp) / "params.json", Path(tmp) / "w.json"
        params_path.write_text(json.dumps(params))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["generate", "--seed", "3", "--params", str(params_path), "--out", str(out_path)])
            if code == 0:
                assert main(["validate", str(out_path)]) == 0, err.getvalue()
        if code != 0:
            assert code == 2
            lines = err.getvalue().replace(str(params_path), "")
            assert any(key in lines for key in params), lines
