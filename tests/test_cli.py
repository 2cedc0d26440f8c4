"""Command-line front end: exit codes, JSON output, artifact determinism."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from triplex import evolution, reporting
from triplex.cli import run
from triplex.cubic import Grid3
from triplex.models import gallery
from triplex.symmetrizer import grid_fields

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


def test_analyze_renders_its_csv_only_under_out(capsys, tmp_path, monkeypatch):
    real = reporting.csv_text

    def refuse(*args):
        raise AssertionError("CSV rendered without --out")

    monkeypatch.setattr(reporting, "csv_text", refuse)
    assert run(["analyze", "--model", "g_E", "--nt", "3"]) == 0
    payload = _json_out(capsys)
    monkeypatch.setattr(reporting, "csv_text", real)
    out = tmp_path / "an"
    assert run(["analyze", "--model", "g_E", "--nt", "3", "--out", str(out)]) == 0
    assert _json_out(capsys) == payload
    # the layout the CSV has always had: one row per (t, x, xi), t slowest
    model = gallery("g_E")
    grid = Grid3(np.linspace(1e-3, 1.0, 3), np.linspace(0.0, model.period, 64, endpoint=False),
                 np.logspace(0.0, math.log10(64.0), 9))
    _, _, a, b, _ = grid_fields(model, grid)
    delta = 4.0 * a**3 - 27.0 * b**2
    rows = ((t, x, xi, a[i, j, k], b[i, j, k], delta[i, j, k])
            for i, t in enumerate(grid.t_vals) for j, x in enumerate(grid.x_vals)
            for k, xi in enumerate(grid.xi_vals))
    want = real(("t", "x", "xi", "a", "b", "delta"), rows).encode()
    got = (out / "analyze_sweep.csv").read_bytes()
    assert hashlib.sha256(got).hexdigest() == hashlib.sha256(want).hexdigest()


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


def test_fpcheck_t1_below_the_grid_start_is_a_usage_error(capsys):
    # the geometric t grid starts at --t0, or at 1e-2 when --t0 is 0; a grid
    # from there down to --t1 would check times outside [--t0, --t1]
    for t0, t1 in (("0", "0"), ("0", "0.005"), ("0.5", "0.25")):
        for extra in ([], ["--delta", "1.0", "--c", "512"]):
            argv = ["fpcheck", "--model", "g_E", "--grid-k", "4", "--nt", "2",
                    "--t0", t0, "--t1", t1] + extra
            assert run(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == "" and f"--t1 {float(t1):g} lies below" in captured.err, argv
    assert run(["fpcheck", "--model", "g_E", "--grid-k", "4", "--nt", "2", "--t0", "0",
                "--t1", "0.01", "--delta", "1.0", "--c", "512"]) == 0
    assert _json_out(capsys)["t_grid"] == [0.01, 0.01]


def test_analyze_and_conditions_empty_t_grid_is_a_usage_error(capsys):
    for command in ("analyze", "conditions"):
        assert run([command, "--model", "g_E", "--nt", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--nt must be at least 1" in captured.err


def test_non_finite_and_negative_times_are_usage_errors(capsys):
    fp = ["fpcheck", "--model", "g_E", "--grid-k", "4", "--nt", "2"]
    ev = ["evolve", "--model", "g_E", "--grid-k", "4"]
    for argv, match in ((fp + ["--t0", "nan"], "--t0"),
                        (fp + ["--t0", "-5"], "--t0"),
                        (fp + ["--t1", "nan"], "--t1 must be a finite number"),
                        (ev + ["--t1", "nan"], "--t1 must be a finite number"),
                        (ev + ["--eps-start", "nan"], "eps_start"),
                        (ev + ["--dt", "nan"], "dt must be positive and finite"),
                        (["loss", "--model", "g_E", "--grid-k", "16", "--t1", "nan"],
                         "--t1 must be a finite number")):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and match in captured.err, argv


def test_times_outside_the_model_interval_are_usage_errors(capsys):
    # a verdict drawn from times outside [0, T], where the model is not validated, is no verdict
    for argv, match in ((["analyze", "--t1", "5"], "--t1 5 lies beyond the model horizon"),
                        (["analyze", "--t0", "nan"], "--t0 must be a finite number"),
                        (["analyze", "--t0", "-1"], "--t0 must be non-negative"),
                        (["analyze", "--t1", "-1"], "--t1 must be non-negative"),
                        (["quantize", "--grid-k", "4", "--t0", "nan"], "--t0 must be a finite"),
                        (["quantize", "--grid-k", "4", "--t0", "-3"], "--t0 must be non-negative"),
                        (["quantize", "--grid-k", "4", "--t0", "2"], "--t0 2 lies beyond"),
                        (["conditions", "--t0", "nan"], "--t0 must be a finite number"),
                        (["conditions", "--t0", "-1"], "--t0 must be non-negative"),
                        (["fpcheck", "--grid-k", "4", "--t1", "-1"], "--t1 must be non-negative")):
        assert run(argv[:1] + ["--model", "g_E"] + argv[1:]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and match in captured.err, argv
    assert run(["analyze", "--model", "g_E", "--t0", "0", "--t1", "1", "--nt", "3"]) == 0
    assert run(["quantize", "--model", "g_E", "--grid-k", "4", "--t0", "0"]) == 0


def test_evolve_integrates_its_state_once(capsys, monkeypatch):
    starts = []
    real = evolution._rk4

    def counting(U, t, *args):
        starts.append(t)
        return real(U, t, *args)

    monkeypatch.setattr(evolution, "_rk4", counting)
    for extra in ([], ["--n-weight", "0.5"], ["--dt", "0.02"]):
        starts.clear()
        assert run(["evolve", "--model", "g_E", "--grid-k", "6", "--lot-seed", "3"] + extra) == 0
        payload = _json_out(capsys)
        assert len(starts) == payload["steps"] and np.all(np.diff(starts) > 0), extra
    assert payload["cfg"]["dt"] == 0.02 and payload["steps"] == 50


def test_evolve_past_the_stability_limit_is_unbounded(capsys):
    # one K = 64 step across [1e-2, 1] grows the state past the abort factor
    assert run(["evolve", "--model", "g_E", "--grid-k", "64", "--dt", "0.99"]) == 2
    payload = _json_out(capsys)
    assert payload["verdicts"] == {"aborted": True, "verdict": "unbounded"}
    assert payload["searched_constants"]["n_star"] == "inf" and payload["steps"] == 0


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


def test_time_beyond_the_model_horizon_is_a_usage_error(capsys):
    # g_ex22 with m = 3 is validated on [0, 1]; at t = 4 its discriminant is -8.3e4
    for argv in (["evolve", "--model", "g_ex22:m=3", "--grid-k", "4", "--t1", "4"],
                 ["loss", "--model", "g_E", "--grid-k", "16", "--t1", "1.5"],
                 ["fpcheck", "--model", "g_E", "--grid-k", "4", "--nt", "2", "--t1", "2"]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "T = 1" in captured.err and "name:T=" in captured.err
    # a longer horizon has to pass validation itself
    assert run(["evolve", "--model", "g_ex22:m=3,T=4", "--grid-k", "4", "--t1", "4"]) == 1
    assert "discriminant" in capsys.readouterr().err


def test_bad_model_file_numbers_are_usage_errors(capsys, tmp_path):
    for text, match in (("period = 0", "period must be positive"),
                        ("period = -1", "period must be positive"),
                        ("T = 1.x", "line 2: T must be a number"),
                        ("b = 1e999 * t", "out of range"),
                        ("b = 1e200^2 * t", "overflow in 1e+200^2"),
                        ("atilde = 1 + 0^-1", "zero raised to a negative power")):
        path = tmp_path / "bad.model"
        path.write_text("alpha = (1 - cos(x))^2\n" + text + "\n")
        for argv in (["analyze", "--model", str(path), "--nt", "3"],
                     ["evolve", "--model", str(path), "--grid-k", "4"]):
            assert run(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and match in captured.err


@pytest.mark.parametrize("text, argv", [
    ("alpha = 1e308 + 1e308", ["conditions"]),
    ("alpha = (1 - cos(x))^2\nb10 = 1e308 + 1e308", ["evolve", "--grid-k", "4"]),
], ids=("alpha", "b10"))
def test_non_finite_coefficients_are_usage_errors(capsys, tmp_path, text, argv):
    # 1e308 + 1e308 parses, no literal overflows, but it evaluates to inf; the
    # verdicts computed from it were nan with exit 2
    path = tmp_path / "inf.model"
    path.write_text(text + "\n")
    assert run(argv + ["--model", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "is not finite" in captured.err


def test_extend_cli(capsys):
    assert run(["extend", "--model", "g_E"]) == 0
    payload = _json_out(capsys)
    assert payload["extended"] is True and payload["delta_global"] > 0
    assert run(["extend", "--model", "g_E", "--window", "nonsense"]) == 1


def test_regularize_cli_writes_artifacts(capsys, tmp_path):
    out = tmp_path / "reg"
    assert run(["regularize", "--model", "g_E", "--lot-seed", "7", "--out", str(out)]) == 0
    payload = _json_out(capsys)
    assert payload["passed"] is True and len(payload["rows"]) == 3
    assert (out / "regularize.csv").exists()
    assert (out / "regularize.svg").exists()


def test_model_file_source(capsys, tmp_path):
    path = tmp_path / "sample.model"
    path.write_text(MODEL_TEXT)
    assert run(["conditions", "--model", str(path), "--which", "E"]) == 0
    assert _json_out(capsys)["holds"] is True


def test_gallery_names_are_not_shadowed_by_local_files(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g_E").write_text("alpha = 0.5\n")
    assert run(["analyze", "--model", "g_E", "--nt", "3"]) == 0
    assert _json_out(capsys)["model"] == "g_E(eps=0.25)"
    assert run(["analyze", "--model", "./g_E", "--nt", "3"]) == 0
    assert _json_out(capsys)["model"] == "file"


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
