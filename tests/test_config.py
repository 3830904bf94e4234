"""Config parsing: key=value grammar, error reporting, object builders."""

import pytest

from radiomap.admm import HALRTC_DEFAULTS, AdmmHyperParams
from radiomap.config import (admm_params, halrtc_params, load_config,
                             mapper_spec, parse_config, scene_kwargs,
                             train_config, unroll_kwargs)
from radiomap.errors import ConfigError, InvalidArgumentError
from radiomap.unrolled import MapperSpec


def test_empty_config_means_defaults():
    cfg = parse_config("")
    assert cfg.values == {}
    assert admm_params(cfg) == AdmmHyperParams()
    assert halrtc_params(cfg) == HALRTC_DEFAULTS
    assert train_config(cfg).epochs == 10
    assert mapper_spec(cfg) == MapperSpec()


def test_single_override():
    cfg = parse_config("admm.max_iters=50\n")
    hp = admm_params(cfg)
    assert hp.max_iters == 50
    assert hp.mu == AdmmHyperParams().mu


def test_comments_and_blank_lines():
    text = "\n# a comment\nadmm.tol=1e-4  # trailing\n\n   \n"
    cfg = parse_config(text)
    assert cfg.values == {"admm.tol": 1e-4}


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match="bogus.key.*line 1"):
        parse_config("bogus.key=1\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("admm.tol=1e-4\n# ok\nnope=2\n")


def test_bad_value_names_key_and_line():
    with pytest.raises(ConfigError, match="admm.max_iters.*line 2"):
        parse_config("admm.tol=1e-4\nadmm.max_iters=soon\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="line 1.*key=value"):
        parse_config("just some words\n")


def test_duplicate_key_reports_both_lines():
    with pytest.raises(ConfigError, match="duplicate.*line 3.*line 1"):
        parse_config("admm.tol=1e-4\n\nadmm.tol=1e-5\n")


def test_lambda_spelling_maps_to_solver_weight():
    hp = admm_params(parse_config("admm.lambda=0.25\n"))
    assert hp.lam == 0.25


def test_alpha_requires_three_weights():
    cfg = parse_config("admm.alpha=0.5,0.25,0.25\n")
    assert admm_params(cfg).alpha == (0.5, 0.25, 0.25)
    with pytest.raises(ConfigError):
        parse_config("admm.alpha=0.5,0.5\n")


def test_methods_list_validated():
    cfg = parse_config("sweep.methods=zero,rbf,unroll\n")
    assert cfg.get("sweep.methods") == ("zero", "rbf", "unroll")
    with pytest.raises(ConfigError):
        parse_config("sweep.methods=zero,svd\n")


def test_empty_sweep_axis_is_a_config_error():
    """An empty sparsity or seed list would sweep nothing and still exit 0;
    an empty hidden_channels list is a mapper with no hidden layer."""
    for key in ("sweep.sparsities", "sweep.seeds", "sweep.methods"):
        for raw in ("", " , "):
            with pytest.raises(ConfigError, match=key):
                parse_config(f"{key}={raw}\n")
    assert parse_config("unroll.hidden_channels=\n").get("unroll.hidden_channels") == ()


def test_domain_violation_surfaces_as_config_error():
    with pytest.raises(ConfigError, match="bad admm config"):
        admm_params(parse_config("admm.mu=-1.0\n"))
    with pytest.raises(ConfigError, match="bad train config"):
        train_config(parse_config("train.epochs=0\n"))
    with pytest.raises(ConfigError, match="bad unroll config"):
        mapper_spec(parse_config("unroll.kernel=4\n"))


def test_scene_kwargs_defaults_and_overrides():
    kw = scene_kwargs(parse_config(""))
    assert (kw["h"], kw["w"], kw["k_bands"]) == (64, 64, 3)
    kw = scene_kwargs(parse_config("scene.h=32\nscene.seed=7\nscene.n_exp=2.5\n"))
    assert kw["h"] == 32 and kw["w"] == 64
    assert kw["seed"] == 7 and kw["n_exp"] == 2.5


def test_unroll_kwargs_builder():
    cfg = parse_config("unroll.k_blocks=7\nunroll.hidden_channels=8,8\n"
                       "unroll.loss_omega=0.6\n")
    kw = unroll_kwargs(cfg)
    assert kw["k_blocks"] == 7
    assert kw["loss_omega"] == 0.6
    assert kw["mapper"] == MapperSpec(hidden_channels=(8, 8))
    assert "rho" not in kw


def test_train_config_builder():
    tc = train_config(parse_config("train.epochs=3\ntrain.lr=0.01\ntrain.seed=9\n"))
    assert tc.epochs == 3 and tc.lr == 0.01 and tc.seed == 9


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("halrtc.rho=0.2\n")
    assert load_config(str(path)).get("halrtc.rho") == 0.2
    assert load_config(None).values == {}
    with pytest.raises(InvalidArgumentError):
        load_config(str(tmp_path / "missing.cfg"))
    with pytest.raises(InvalidArgumentError):
        load_config(str(tmp_path))
