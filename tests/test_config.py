import pytest

from rankfuse import config as cf
from rankfuse.errors import ValidationError


def test_documented_defaults():
    cfg = cf.resolve_config()
    assert cfg["alpha"] == 4.0
    assert cfg["beta"] == 1.0
    assert cfg["gamma"] == 0.3
    assert cfg["batch_size"] == 4096
    assert cfg["d"] == 32
    assert cfg["history_limit"] == 50
    assert cfg["rsl_thresholds"] == (0.25, 0.5, 0.75)
    assert cfg["seed"] == 0
    assert cfg["lr_stage1"] == 1e-4
    assert cfg["lr_base"] == 1e-4
    assert cfg["lr_rsl_finetune"] == 1e-5
    assert cfg["lr_prim"] == 1e-4


def test_parse_file_with_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full-line comment\n"
        "\n"
        "alpha=6.0\n"
        "batch_size=256  # inline comment\n"
        "use_wide=true\n"
        "rsl_thresholds=0.1,0.5,0.9\n"
        "base_hidden=8,4\n",
        encoding="utf-8",
    )
    got = cf.parse_config_file(path)
    assert got == {
        "alpha": 6.0,
        "batch_size": 256,
        "use_wide": True,
        "rsl_thresholds": (0.1, 0.5, 0.9),
        "base_hidden": (8, 4),
    }


def test_unknown_and_duplicate_keys_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("learning_rate=0.1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="unknown key"):
        cf.parse_config_file(bad)
    dup = tmp_path / "dup.cfg"
    dup.write_text("alpha=1\nalpha=2\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="duplicate"):
        cf.parse_config_file(dup)
    with pytest.raises(ValidationError, match="unknown"):
        cf.resolve_config(overrides={"nope": 1})


def test_type_coercion_errors(tmp_path):
    for line, frag in (
        ("batch_size=big", "integer"),
        ("alpha=fast", "number"),
        ("use_wide=yes", "true/false"),
        ("base_hidden=8,x", "comma-separated"),
        ("alpha", "key=value"),
    ):
        path = tmp_path / "t.cfg"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=frag):
            cf.parse_config_file(path)


def test_precedence_file_then_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha=6.0\ngamma=0.5\n", encoding="utf-8")
    cfg = cf.resolve_config(path, {"gamma": 0.9})
    assert cfg["alpha"] == 6.0  # file beats default
    assert cfg["gamma"] == 0.9  # override beats file
    assert cfg["beta"] == 1.0  # default survives


def test_history_limit_is_fixed(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("history_limit=10\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="fixed"):
        cf.resolve_config(path)


def test_resolved_round_trip(tmp_path):
    cfg = cf.resolve_config(overrides={"alpha": 2.5, "base_hidden": (8,), "use_wide": True})
    path = cf.write_resolved(cfg, tmp_path)
    assert path.name == "config.resolved"
    reparsed = cf.parse_config_file(path)
    assert set(reparsed) == set(cf.DEFAULTS)
    assert reparsed == cfg


def test_builders_map_keys():
    cfg = cf.resolve_config(
        overrides={"n_impressions": 123, "gamma": 0.7, "d": 16, "encoder_lr": 0.25}
    )
    gen = cf.to_generator_config(cfg)
    assert gen.n_impressions == 123
    enc = cf.to_encoder_config(cfg)
    assert enc.lr == 0.25 and enc.d == 16
    mdl = cf.to_model_config(cfg, "no-prim")
    assert mdl.variant == "no-prim" and mdl.d == 16
    trn = cf.to_train_config(cfg)
    assert trn.gamma == 0.7
    assert cf.to_train_config(cfg, gamma=0.0).gamma == 0.0
    assert cf.to_train_config(cfg, no_two_stage=True).no_two_stage is True


def test_empty_tuple_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("rsl_hidden=\n", encoding="utf-8")
    assert cf.parse_config_file(path) == {"rsl_hidden": ()}


def test_non_finite_floats_rejected(tmp_path):
    float_keys = [k for k, v in cf.DEFAULTS.items() if isinstance(v, float)]
    assert "lr_base" in float_keys and "alpha" in float_keys
    path = tmp_path / "run.cfg"
    for key in float_keys:
        for raw in ("nan", "inf", "-inf"):
            path.write_text(f"{key}={raw}\n", encoding="utf-8")
            with pytest.raises(ValidationError, match=key):
                cf.resolve_config(path)
            with pytest.raises(ValidationError, match=key):
                cf.resolve_config(overrides={key: float(raw)})
    path.write_text("rsl_thresholds=0.25,nan,0.75\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="rsl_thresholds"):
        cf.resolve_config(path)
