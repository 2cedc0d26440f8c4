"""Command-line front end: exit codes, JSON output, artifact determinism."""

import json
import os

import pytest

from triplex.cli import run

MODEL_TEXT = """
alpha = (1 - cos(x))^2
b = 0
b10 = 0.1 * sin(x)
"""


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_analyze_reports_hyperbolic_sweep(capsys, tmp_path):
    out = tmp_path / "an"
    code = run(["analyze", "--model", "g_E", "--nt", "5", "--out", str(out)])
    payload = _json_out(capsys)
    assert code == 0
    assert payload["hyperbolic"] is True
    assert payload["delta_min"] >= -1e-12
    assert (out / "analyze.json").exists()
    header = (out / "analyze_sweep.csv").read_text().splitlines()[0]
    assert header == "t,x,xi,a,b,delta"


def test_conditions_pass_and_fail_exit_codes(capsys):
    assert run(["conditions", "--model", "g_zero_b", "--which", "E"]) == 0
    payload = _json_out(capsys)
    assert payload["holds"] is True
    assert run(["conditions", "--model", "g_ex21p", "--which", "E"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["holds"] is False
    assert "witness" in captured.err


def test_conditions_variants(capsys):
    assert run(["conditions", "--model", "g_E", "--which", "beta1"]) == 0
    assert _json_out(capsys)["condition"] == "beta1"
    assert run(["conditions", "--model", "g_E", "--which", "glaeser"]) == 0
    payload = _json_out(capsys)
    assert payload["points_used"] > 0


def test_symmetrizer_writes_pointwise_csv(capsys, tmp_path):
    out = tmp_path / "sym"
    code = run(["symmetrizer", "--model", "g_ex22:m=6", "--out", str(out)])
    payload = _json_out(capsys)
    assert code == 0
    assert payload["identities_hold"] is True
    assert payload["delta_sym"] > 0
    header = (out / "symmetrizer_points.csv").read_text().splitlines()[0]
    assert header == "t,x,xi,a,b,mineig_S,delta_sym_local"


def test_quantize_reports_positivity(capsys, tmp_path):
    out = tmp_path / "q"
    code = run(["quantize", "--model", "g_E", "--grid-k", "8",
                "--out", str(out)])
    payload = _json_out(capsys)
    assert code == 0
    assert payload["positivity_holds"] is True
    assert payload["friedrichs_min_eig_over_norm"] >= -1e-8
    lines = (out / "weyl_a.csv").read_text().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 1 + 17 * 17


def test_fpcheck_single_pair_exit_codes(capsys):
    good = run(["fpcheck", "--model", "g_E", "--grid-k", "8",
                "--delta", "1.0", "--c", "512", "--nt", "3"])
    assert good == 0
    assert _json_out(capsys)["feasible"] is True
    bad = run(["fpcheck", "--model", "g_E", "--grid-k", "8",
               "--delta", "64", "--c", "0.001", "--nt", "3"])
    assert bad == 2
    assert _json_out(capsys)["feasible"] is False


def test_fpcheck_empty_t_grid_is_a_usage_error(capsys):
    for extra in ([], ["--delta", "1.0", "--c", "512"]):
        assert run(["fpcheck", "--model", "g_E", "--nt", "0"] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--nt" in captured.err


def test_evolve_artifacts_are_deterministic(capsys, tmp_path):
    args = ["evolve", "--model", "g_E", "--grid-k", "6", "--lot-seed", "3",
            "--n-weight", "0.25", "--gamma", "1.0", "--lambda", "1.0"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(args + ["--out", str(out1)]) == 0
    first = _json_out(capsys)
    assert run(args + ["--out", str(out2)]) == 0
    second = _json_out(capsys)
    assert first == second
    assert first["verdicts"]["margins_passed"] is True
    for name in ("evolve.json", "trace.csv", "energy.svg", "margins.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "trace.csv").read_text().splitlines()[0]
    assert header == "t,E,dE_dt,rhs_bound,margin,n1sq,n2sq,aU3U3,norm"


def test_loss_probe_cli(capsys, tmp_path):
    out = tmp_path / "loss"
    code = run(["loss", "--model", "g_E", "--grid-k", "16", "--lot-seed", "5",
                "--out", str(out)])
    payload = _json_out(capsys)
    assert code == 0
    assert payload["modes"] == [4, 8]
    assert payload["bounded"] is True
    assert (out / "loss.svg").exists()


def test_loss_without_two_probe_modes_is_a_usage_error(capsys):
    assert run(["loss", "--model", "g_E", "--grid-k", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "two modes" in captured.err


def test_extend_cli(capsys):
    assert run(["extend", "--model", "g_E"]) == 0
    payload = _json_out(capsys)
    assert payload["extended"] is True and payload["delta_global"] > 0
    assert run(["extend", "--model", "g_E", "--window", "nonsense"]) == 1


def test_regularize_cli_honors_thread_env(capsys, tmp_path, monkeypatch):
    code = run(["regularize", "--model", "g_E", "--lot-seed", "7"])
    serial = _json_out(capsys)
    assert code == 0
    monkeypatch.setenv("TRIPLEX_THREADS", "2")
    out = tmp_path / "reg"
    assert run(["regularize", "--model", "g_E", "--lot-seed", "7",
                "--out", str(out)]) == 0
    threaded = _json_out(capsys)
    assert threaded["workers"] == 2
    assert threaded["rows"] == serial["rows"]
    assert threaded["passed"] is True
    assert (out / "regularize.csv").exists()
    assert (out / "regularize.svg").exists()


def test_model_file_source(capsys, tmp_path):
    path = tmp_path / "sample.model"
    path.write_text(MODEL_TEXT)
    assert run(["conditions", "--model", str(path), "--which", "E"]) == 0
    assert _json_out(capsys)["holds"] is True


def test_usage_and_config_errors(capsys):
    assert run(["analyze", "--model", "nosuch"]) == 1
    assert "unknown gallery" in capsys.readouterr().err
    assert run(["analyze", "--model", "g_E:eps=2.0"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["evolve"])  # missing required --model
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["nosuchcommand"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_parametrized_model_strings(capsys):
    assert run(["conditions", "--model", "g_E:eps=0.5", "--which", "E"]) == 0
    payload = _json_out(capsys)
    assert payload["holds"] is True
    assert run(["analyze", "--model", "g_strict:M=2.0", "--nt", "3"]) == 0
    capsys.readouterr()
    assert run(["analyze", "--model", "g_E:oops", "--nt", "3"]) == 1
    capsys.readouterr()
