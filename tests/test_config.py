import math
from dataclasses import fields

import pytest

from rankfuse import config as cf
from rankfuse import data as dt
from rankfuse.checkpoint import Domain, format_value
from rankfuse.cli import main
from rankfuse.encoder import EncoderConfig
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


BUILDERS = (cf.to_generator_config, cf.to_encoder_config, cf.to_model_config, cf.to_train_config)


@pytest.mark.parametrize("key", list(cf.DEFAULTS))
def test_every_key_reaches_a_builder(key):
    # a key that no builder reads is a setting that changes nothing
    assert key in ALTERNATES, f"add an alternate value for {key}"
    base = cf.resolve_config()
    changed = cf.resolve_config(overrides={key: ALTERNATES[key]})
    assert changed[key] != base[key]
    assert any(build(changed) != build(base) for build in BUILDERS), key


# ---------------------------------------------------------------------------
# the domain gate: each key just outside its domain, and on its edges


def test_every_field_of_every_config_class_declares_its_domain():
    undeclared = [f"{cls.__name__}.{f.name}" for cls in cf.CLASSES for f in fields(cls)
                  if not isinstance(f.metadata.get("domain"), Domain)]
    assert undeclared == []


def domain_values(domain: Domain, default) -> tuple[list, list]:
    """(values just outside `domain`, values on its edges), of the type of
    `default`. In a tuple, a value above the last element replaces that one
    and any other value the first, so an increasing tuple stays increasing."""
    if domain.choices:
        return ["none-of-these"], list(domain.choices)
    if isinstance(default[0] if isinstance(default, tuple) else default, int):
        outside = [v for v in (domain.low - 1, domain.high + 1) if v != math.inf]
        edges = [v for v in (domain.low, domain.high) if v != math.inf]
    else:
        outside = [math.nextafter(domain.low, -math.inf), math.nextafter(domain.high, math.inf),
                   math.nan, -math.inf]
        edges = [domain.low, domain.high]
    if isinstance(default, tuple):
        def put(v):
            return default[:-1] + (v,) if v > default[-1] else (v,) + default[1:]
        outside, edges = [put(v) for v in outside], [put(v) for v in edges]
        if domain.size:  # two elements out of order, and one element too few
            outside += [(default[1], default[0]) + default[2:], default[:-1]]
    return list(dict.fromkeys(outside)), edges


def key_cases(which: int) -> list:
    return [pytest.param(key, v, id=f"{key}={format_value(v)}") for key, domain in cf.DOMAINS.items()
            for v in domain_values(domain, cf.DEFAULTS[key])[which]]


def reading_command(key: str, files: dict) -> list[str]:
    """The argv, without --config and --out-dir, of a command that reads
    `key`: the command of the first config class that declares it."""
    cls = next(c for c in cf.CLASSES if key in cf._KEYS[c].values())
    if cls is dt.GeneratorConfig:
        return ["gen-data"]
    if cls is EncoderConfig and key.startswith("finetune"):
        return ["encoder", "finetune", "--checkpoint", files["encoder"], "--train-file", files["train"]]
    if cls is EncoderConfig:
        return ["encoder", "pretrain", "--train-file", files["train"]]
    return ["train", "--train-file", files["train"], "--index", files["index"]]


def write_config(path, cfg: dict):
    path.write_text("".join(f"{k}={format_value(v)}\n" for k, v in cfg.items()), encoding="utf-8")
    return path


# a tiny corpus and encoder, and no epochs: each edge run takes milliseconds
QUICK = {"n_impressions": 200, "n_users": 8, "n_items": 40, "n_queries": 15, "vocab_size": 256,
         "d_raw": 16, "d": 8, "encoder_epochs": 0, "finetune_epochs": 0, "stage1_epochs": 0,
         "stage2_epochs": 0}
# generating this many categories takes about 17 s; the config is still built
TOO_SLOW_TO_RUN = {("n_categories", 216000)}


@pytest.fixture(scope="module")
def quick_pipe(tmp_path_factory):
    root = tmp_path_factory.mktemp("quick")
    config = str(write_config(root / "quick.cfg", QUICK))
    assert main(["gen-data", "--config", config, "--out-dir", str(root / "data")]) == 0
    files = {"train": str(root / "data" / "train.tsv"), "encoder": str(root / "enc" / "encoder.ckpt"),
             "index": str(root / "idx" / "index.tsv")}
    assert main(["encoder", "pretrain", "--train-file", files["train"], "--config", config,
                 "--out-dir", str(root / "enc")]) == 0
    assert main(["encoder", "build-index", "--checkpoint", files["encoder"], "--dataset-file",
                 files["train"], "--out-dir", str(root / "idx")]) == 0
    return files


@pytest.mark.parametrize("key,value", key_cases(0))
def test_a_key_outside_its_domain_exits_1_naming_the_key(tmp_path, capsys, key, value):
    # refused while the config resolves: before any input is read or the
    # out-dir is made, so the inputs need not exist
    config = write_config(tmp_path / "run.cfg", {key: value})
    missing = {name: str(tmp_path / name) for name in ("train", "encoder", "index")}
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(reading_command(key, missing) + ["--config", str(config), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} must be "), err
    assert not out.exists()
    with pytest.raises(ValidationError, match=f"^{key} must be "):
        cf.resolve_config(overrides={key: value})


@pytest.mark.parametrize("key,value", key_cases(1))
def test_a_key_on_the_edge_of_its_domain_is_accepted(quick_pipe, tmp_path, key, value):
    config = write_config(tmp_path / "run.cfg", {**QUICK, key: value})
    cfg = cf.resolve_config(config)
    for build in BUILDERS:
        build(cfg)
    if (key, value) not in TOO_SLOW_TO_RUN:
        argv = reading_command(key, quick_pipe) + ["--config", str(config), "--out-dir", str(tmp_path / "o")]
        assert main(argv) == 0


@pytest.mark.parametrize("cls", cf.CLASSES, ids=lambda cls: cls.__name__)
def test_a_config_class_checks_each_field_on_construction(cls):
    # criterion tests build tr.TrainConfig(batch_size=4) directly; fields that
    # no key sets (variant, no_two_stage) are checked too, under their names
    for f in fields(cls):
        key = f.metadata.get("key") or f.name
        outside, edges = domain_values(f.metadata["domain"], f.default)
        for value in outside:
            with pytest.raises(ValidationError, match=f"^{key} must be "):
                cls(**{f.name: value})
        for value in edges:
            cls(**{f.name: value})
