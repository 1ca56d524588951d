"""Run configuration: one flat key=value namespace for the whole pipeline.

A config file is `key=value` lines with `#` comments. Defaults live here;
a file overrides defaults, command-line flags override the file. Unknown
keys are rejected loudly. Every command echoes its effective configuration
into the output directory as `config.resolved`, which is itself a valid
config file that reproduces the run.
"""

from __future__ import annotations

import math
from pathlib import Path

from .data import GeneratorConfig, open_text
from .encoder import EncoderConfig
from .errors import DatasetParseError, ValidationError
from .model import ModelConfig
from .training import TrainConfig

# Defaults, grouped: corpus, encoder, model, training. Types drive coercion.
DEFAULTS: dict = {
    "seed": 0,
    # corpus
    "n_users": 200,
    "n_items": 1000,
    "n_queries": 300,
    "n_impressions": 100000,
    "n_categories": 12,
    "n_descriptors": 120,
    "w_quality": 3.0,
    "w_relevance": 3.0,
    "bias": -1.0,
    "sensitivity_a": 2.0,
    "sensitivity_b": 2.0,
    "rsl_thresholds": (0.25, 0.5, 0.75),
    # encoder
    "vocab_size": 4096,
    "d_raw": 64,
    "d": 32,
    "encoder_lr": 0.5,
    "encoder_batch_size": 256,
    "encoder_epochs": 5,
    "finetune_lr_factor": 0.1,
    "finetune_epochs": 5,
    # model
    "field_dim": 16,
    "user_buckets": 1024,
    "item_buckets": 4096,
    "category_buckets": 64,
    "token_buckets": 512,
    "base_hidden": (64, 32),
    "rsl_hidden": (32,),
    "incentive_hidden": (16,),
    # training
    "batch_size": 4096,
    "lr_stage1": 1e-4,
    "lr_base": 1e-4,
    "lr_rsl_finetune": 1e-5,
    "lr_prim": 1e-4,
    "alpha": 4.0,
    "beta": 1.0,
    "gamma": 0.3,
    "stage1_epochs": 5,
    "stage2_epochs": 10,
    "grouping": "batch",
}


def _coerce(key: str, raw: str, line_no: int):
    """Parse a raw string of config line `line_no` to the type of the key's
    default."""
    default = DEFAULTS[key]
    raw = raw.strip()
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise DatasetParseError(line_no, f"config key {key}: expected integer, got {raw!r}") from None
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError:
            raise DatasetParseError(line_no, f"config key {key}: expected number, got {raw!r}") from None
    if isinstance(default, tuple):
        if raw == "":
            return ()
        elem = float if default and isinstance(default[0], float) else int
        try:
            return tuple(elem(part) for part in raw.split(","))
        except ValueError:
            raise DatasetParseError(line_no, f"config key {key}: expected comma-separated numbers") from None
    return raw


def _fmt_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_file(path) -> dict:
    """Read key=value overrides; `#` starts a comment, blank lines ignored.
    A bad line raises DatasetParseError naming the file and the line."""
    out: dict = {}
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh.read().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DatasetParseError(line_no, f"expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in DEFAULTS:
                raise DatasetParseError(line_no, f"unknown key {key!r}")
            if key in out:
                raise DatasetParseError(line_no, f"duplicate key {key!r}")
            out[key] = _coerce(key, value, line_no)
    return out


def resolve_config(file_path=None, overrides: dict | None = None) -> dict:
    """defaults <- config file <- explicit overrides."""
    cfg = dict(DEFAULTS)
    if file_path is not None:
        cfg.update(parse_config_file(file_path))
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ValidationError(f"unknown config key {key!r}")
        if value is not None:
            cfg[key] = value
    for key, default in DEFAULTS.items():
        values = cfg[key] if isinstance(default, tuple) else (cfg[key],)
        if isinstance(default, (float, tuple)) and not all(math.isfinite(v) for v in values):
            raise ValidationError(f"config key {key}: expected finite numbers, got {cfg[key]!r}")
    return cfg


def format_resolved(cfg: dict) -> str:
    lines = [f"{key}={_fmt_value(cfg[key])}" for key in DEFAULTS]
    return "\n".join(lines) + "\n"


def write_resolved(cfg: dict, out_dir) -> Path:
    path = Path(out_dir) / "config.resolved"
    path.write_text(format_resolved(cfg), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# builders for the module-level config objects


def to_generator_config(cfg: dict) -> GeneratorConfig:
    return GeneratorConfig(
        seed=cfg["seed"],
        n_users=cfg["n_users"],
        n_items=cfg["n_items"],
        n_queries=cfg["n_queries"],
        n_impressions=cfg["n_impressions"],
        n_categories=cfg["n_categories"],
        n_descriptors=cfg["n_descriptors"],
        w_quality=cfg["w_quality"],
        w_relevance=cfg["w_relevance"],
        bias=cfg["bias"],
        rsl_thresholds=tuple(cfg["rsl_thresholds"]),
        sensitivity_a=cfg["sensitivity_a"],
        sensitivity_b=cfg["sensitivity_b"],
    )


def to_encoder_config(cfg: dict) -> EncoderConfig:
    return EncoderConfig(
        vocab_size=cfg["vocab_size"],
        d_raw=cfg["d_raw"],
        d=cfg["d"],
        seed=cfg["seed"],
        lr=cfg["encoder_lr"],
        batch_size=cfg["encoder_batch_size"],
        epochs=cfg["encoder_epochs"],
        finetune_lr_factor=cfg["finetune_lr_factor"],
        finetune_epochs=cfg["finetune_epochs"],
    )


def to_model_config(cfg: dict, variant: str = "full") -> ModelConfig:
    return ModelConfig(
        variant=variant,
        d=cfg["d"],
        field_dim=cfg["field_dim"],
        user_buckets=cfg["user_buckets"],
        item_buckets=cfg["item_buckets"],
        category_buckets=cfg["category_buckets"],
        token_buckets=cfg["token_buckets"],
        base_hidden=tuple(cfg["base_hidden"]),
        rsl_hidden=tuple(cfg["rsl_hidden"]),
        incentive_hidden=tuple(cfg["incentive_hidden"]),
        seed=cfg["seed"],
    )


def to_train_config(cfg: dict, gamma: float | None = None, no_two_stage: bool = False) -> TrainConfig:
    return TrainConfig(
        batch_size=cfg["batch_size"],
        lr_stage1=cfg["lr_stage1"],
        lr_base=cfg["lr_base"],
        lr_rsl_finetune=cfg["lr_rsl_finetune"],
        lr_prim=cfg["lr_prim"],
        alpha=cfg["alpha"],
        beta=cfg["beta"],
        gamma=cfg["gamma"] if gamma is None else gamma,
        stage1_epochs=cfg["stage1_epochs"],
        stage2_epochs=cfg["stage2_epochs"],
        seed=cfg["seed"],
        grouping=cfg["grouping"],
        no_two_stage=no_two_stage,
    )
