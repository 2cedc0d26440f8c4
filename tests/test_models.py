"""Model construction, gallery definitions, model-file parsing."""

import math
from pathlib import Path

import numpy as np
import pytest

from triplex.models import (
    GALLERY_NAMES,
    HyperbolicityViolation,
    LowerOrderTerms,
    ModelError,
    PositivityViolation,
    build_model,
    gallery,
    load_model_file,
    parse_model_text,
)


def test_gallery_names_all_build():
    for name in GALLERY_NAMES:
        model = gallery(name)
        assert model.c0 > 0
        assert model.T > 0
        assert model.period == pytest.approx(2 * math.pi)


def test_gallery_rejects_unknown_name_and_params():
    with pytest.raises(ModelError):
        gallery("nosuch")
    with pytest.raises(ModelError):
        gallery("g_strict", banana=1.0)
    with pytest.raises(ModelError):
        gallery("g_E", eps=1.5)
    with pytest.raises(ModelError):
        gallery("g_ex22", m=2)


def test_a_splits_into_time_shift_and_profile():
    model = gallery("g_E")
    t = np.linspace(0.05, 1.0, 7)[:, None]
    x = np.linspace(0.0, 6.0, 9)[None, :]
    alpha = model.alpha.evaluate(0.0, x, 1.0)
    atilde = model.atilde.evaluate(t, x, 1.0)
    assert np.allclose(model.a_expr.evaluate(t, x, 1.0), (t + alpha) * atilde, rtol=1e-14)
    assert np.all(atilde >= model.c0 - 1e-12)
    assert np.all(alpha >= -1e-12)


def test_gallery_discriminants_are_nonnegative():
    t = np.linspace(1e-3, 1.0, 12)[:, None, None]
    x = np.linspace(0.0, 2 * math.pi, 24, endpoint=False)[None, :, None]
    xi = np.array([1.0, 4.0, 16.0])[None, None, :]
    for name in ("g_strict", "g_zero_b", "g_E", "g_ex21p", "g_ex21m", "g_ex22"):
        model = gallery(name)
        delta = 4.0 * model.a_expr.evaluate(t, x, xi) ** 3 - 27.0 * model.b.evaluate(t, x, xi) ** 2
        assert np.min(delta) >= -1e-10, name


def test_g_eps_shifts_alpha():
    base = gallery("g_zero_b")
    shifted = gallery("g_eps", base="g_zero_b", eps=0.5)
    x = np.linspace(0.0, 6.0, 11)
    assert np.allclose(shifted.alpha.evaluate(0.0, x, 1.0), base.alpha.evaluate(0.0, x, 1.0) + 0.5)
    with pytest.raises(ModelError):
        gallery("g_eps", eps=0.0)


def test_build_model_validates_positivity():
    with pytest.raises(PositivityViolation):
        build_model("0 - 1", name="negative_alpha")
    with pytest.raises(ModelError):
        build_model("1", atilde="0.1", c0=1.0, name="small_atilde")


def test_build_model_validates_hyperbolicity():
    # b too large for 4 a^3 >= 27 b^2 at small t
    with pytest.raises(HyperbolicityViolation):
        build_model("0", b="1", name="broken")


@pytest.mark.parametrize("alpha", ["t", "sin(x) + t", "(1 - cos(x))^2 * (1 + t)"])
def test_build_model_rejects_an_alpha_that_depends_on_t(alpha):
    with pytest.raises(ModelError, match="alpha must be a function of"):
        build_model(alpha)


def test_build_model_accepts_an_alpha_whose_t_derivative_folds_to_zero():
    # d/dt (t - t) folds to the constant 0, so this alpha does not depend on t
    model = build_model("t - t")
    assert model.alpha.evaluate(0.7, 1.0, 1.0) == 0.0


def test_with_alpha_replaces_profile():
    model = gallery("g_zero_b")
    shifted = model.with_alpha(1.0)
    x = np.linspace(0.0, 6.0, 11)
    assert np.allclose(shifted.alpha.evaluate(0.0, x, 1.0), model.alpha.evaluate(0.0, x, 1.0) + 1.0)
    assert (shifted.atilde, shifted.b) == (model.atilde, model.b)
    assert shifted.name == "g_eps(g_zero_b,1)"


def test_random_trig_is_deterministic_and_bounded():
    lot1 = LowerOrderTerms.random_trig(11, amplitude=0.5)
    lot2 = LowerOrderTerms.random_trig(11, amplitude=0.5)
    lot3 = LowerOrderTerms.random_trig(12, amplitude=0.5)
    x = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    v1, v2, v3 = ([np.asarray(e.evaluate(0.3, x, 1.0)) for e in (lot.b10, lot.b11, lot.b12)]
                  for lot in (lot1, lot2, lot3))
    assert np.array_equal(v1, v2)
    assert not np.allclose(v1, v3)


def test_zero_lot_evaluates_to_zero():
    lot = LowerOrderTerms.zero()
    for e in (lot.b10, lot.b11, lot.b12):
        assert np.all(np.asarray(e.evaluate(0.5, np.linspace(0, 6, 5), 2.0)) == 0)


MODEL_TEXT = """
# strictly hyperbolic sample with one lower-order term
alpha = 0.5
atilde = 1 + 0.1 * cos(x)
b = 0
b10 = 0.2 * sin(x)
c0 = 0.9
T = 2.0
"""


def test_parse_model_text_round_trip():
    model, lot = parse_model_text(MODEL_TEXT)
    assert model.T == 2.0
    assert model.c0 == 0.9
    x = np.linspace(0.0, 6.0, 7)
    assert np.allclose(model.alpha.evaluate(0.0, x, 1.0), 0.5)
    assert np.allclose(model.atilde.evaluate(0.0, x, 1.0), 1 + 0.1 * np.cos(x))
    b10 = np.asarray(lot.b10.evaluate(0.0, x, 1.0))
    assert np.allclose(b10, 0.2 * np.sin(x))


@pytest.mark.parametrize("bad, match", [
    ("alpha", "key = value"),
    ("alpha = 1\nalpha = 2", "duplicate"),
    ("beta = 1", "unknown key"),
    ("b = 0", "must define alpha"),
])
def test_parse_model_text_errors(bad, match):
    with pytest.raises(ModelError, match=match):
        parse_model_text(bad)


@pytest.mark.parametrize("text, match", [
    ("alpha = 1\nT = 1.x", "line 2: T must be a number"),
    ("alpha = 1\n\nperiod = pi", "line 3: period must be a number"),
    ("c0 = \nalpha = 1", "line 1: c0 must be a number"),
    ("alpha = 1\nperiod = 0", "period must be positive"),
    ("alpha = 1\nperiod = -1", "period must be positive"),
    ("alpha = 1\nperiod = inf", "period must be positive and finite"),
    ("alpha = 1\nT = inf", "T must be positive and finite"),
], ids=["T-not-a-number", "period-name", "c0-empty", "period-zero", "period-negative",
        "period-infinite", "T-infinite"])
def test_parse_model_text_checks_numbers(text, match):
    with pytest.raises(ModelError, match=match):
        parse_model_text(text)


def test_build_model_rejects_nonpositive_period():
    for period in (0.0, -1.0, math.nan):
        with pytest.raises(ModelError, match="period"):
            build_model(1.0, period=period)


def test_readme_model_file_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Model files contain", 1)[1].split("```\n", 2)[1]
    model, lot = parse_model_text(block)
    x = np.linspace(0.0, 6.0, 7)
    assert np.allclose(model.alpha.evaluate(0.0, x, 1.0), (1 - np.cos(x)) ** 2)
    assert np.allclose(np.asarray(lot.b10.evaluate(0.0, x, 1.0)), 0.2 * np.sin(x))
    assert model.T == 2.0 and model.c0 == 0.9


def test_load_model_file(tmp_path):
    path = tmp_path / "sample.model"
    path.write_text(MODEL_TEXT)
    model, lot = load_model_file(str(path))
    assert model.T == 2.0
