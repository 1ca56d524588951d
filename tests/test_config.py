import pytest

from rankfuse import config as cf
from rankfuse.cli import main
from rankfuse.errors import DatasetParseError, ValidationError


def test_documented_defaults():
    cfg = cf.resolve_config()
    assert cfg["alpha"] == 4.0
    assert cfg["beta"] == 1.0
    assert cfg["gamma"] == 0.3
    assert cfg["batch_size"] == 4096
    assert cfg["d"] == 32
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
        "grouping=query-group\n"
        "rsl_thresholds=0.1,0.5,0.9\n"
        "base_hidden=8,4\n",
        encoding="utf-8",
    )
    got = cf.parse_config_file(path)
    assert got == {
        "alpha": 6.0,
        "batch_size": 256,
        "grouping": "query-group",
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
        ("base_hidden=8,x", "comma-separated"),
        ("alpha", "key=value"),
    ):
        path = tmp_path / "t.cfg"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=frag):
            cf.parse_config_file(path)


def test_config_file_errors_name_the_file_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    for line, detail in (
        ("learning_rate=0.1", "unknown key 'learning_rate'"),
        ("alpha=2", "duplicate key 'alpha'"),
        ("batch_size=big", "config key batch_size: expected integer, got 'big'"),
        ("base_hidden=8,x", "config key base_hidden: expected comma-separated numbers"),
        ("alpha", "expected key=value, got 'alpha'"),
    ):
        path.write_text(f"# run\nalpha=1\n\n{line}\n", encoding="utf-8")
        with pytest.raises(DatasetParseError) as e:
            cf.parse_config_file(path)
        assert str(e.value) == f"{path}: line 4: {detail}"


def test_old_resolved_config_exits_1_naming_the_file(tmp_path, capsys):
    # a config.resolved written while head_count was a key holds it after
    # incentive_hidden
    lines = cf.format_resolved(cf.resolve_config()).splitlines()
    at = next(n for n, line in enumerate(lines) if line.startswith("incentive_hidden=")) + 1
    old = tmp_path / "config.resolved"
    old.write_text("\n".join(lines[:at] + ["head_count=1"] + lines[at:]) + "\n", encoding="utf-8")
    capsys.readouterr()
    argv = ["eval", "--config", str(old), "--checkpoint", f"full={tmp_path / 'model.ckpt'}",
            "--test-file", str(tmp_path / "test.tsv"), "--index", str(tmp_path / "index.tsv"),
            "--out-dir", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {old}: line {at + 1}: unknown key 'head_count'"], err
    assert not (tmp_path / "o").exists()


def test_precedence_file_then_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha=6.0\ngamma=0.5\n", encoding="utf-8")
    cfg = cf.resolve_config(path, {"gamma": 0.9})
    assert cfg["alpha"] == 6.0  # file beats default
    assert cfg["gamma"] == 0.9  # override beats file
    assert cfg["beta"] == 1.0  # default survives


@pytest.mark.parametrize("line", ["history_limit=50", "use_wide=false", "base_uses_r_cur=true",
                                  "momentum=0.0", "head_count=1"])
def test_retired_key_is_unknown(tmp_path, capsys, line):
    # each line as a config.resolved written before these keys were retired holds it
    path = tmp_path / "old.resolved"
    path.write_text(line + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["gen-data", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "unknown key" in err and repr(line.split("=")[0]) in err, err
    assert not (tmp_path / "o").exists()


def test_resolved_round_trip(tmp_path):
    cfg = cf.resolve_config(
        overrides={"alpha": 2.5, "base_hidden": (8,), "grouping": "query-group"}
    )
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


# one valid value other than the default, per key
ALTERNATES = {
    "seed": 1, "n_users": 50, "n_items": 500, "n_queries": 100, "n_impressions": 5000,
    "n_categories": 6, "n_descriptors": 60, "w_quality": 2.0, "w_relevance": 2.0, "bias": 0.0,
    "sensitivity_a": 1.0, "sensitivity_b": 1.0, "rsl_thresholds": (0.2, 0.5, 0.8),
    "vocab_size": 2048, "d_raw": 32, "d": 16, "encoder_lr": 0.25, "encoder_batch_size": 128,
    "encoder_epochs": 2, "finetune_lr_factor": 0.5, "finetune_epochs": 2,
    "field_dim": 8, "user_buckets": 512, "item_buckets": 2048, "category_buckets": 32,
    "token_buckets": 256, "base_hidden": (32,), "rsl_hidden": (16,), "incentive_hidden": (8,),
    "batch_size": 512, "lr_stage1": 1e-3, "lr_base": 1e-3, "lr_rsl_finetune": 1e-4,
    "lr_prim": 1e-3, "alpha": 2.0, "beta": 0.5, "gamma": 0.1, "stage1_epochs": 1,
    "stage2_epochs": 1, "grouping": "query-group",
}


@pytest.mark.parametrize("key", list(cf.DEFAULTS))
def test_every_key_reaches_a_builder(key):
    # a key that no builder reads is a setting that changes nothing
    assert key in ALTERNATES, f"add an alternate value for {key}"
    builders = (cf.to_generator_config, cf.to_encoder_config, cf.to_model_config,
                cf.to_train_config)
    base = cf.resolve_config()
    changed = cf.resolve_config(overrides={key: ALTERNATES[key]})
    assert changed[key] != base[key]
    assert any(build(changed) != build(base) for build in builders), key
