"""Run configuration: one flat key=value namespace for the whole pipeline.

A config file is `key=value` lines with `#` comments. The keys, their
defaults, types and domains are the fields of the config classes
(`GeneratorConfig`, `EncoderConfig`, `ModelConfig`, `TrainConfig`; see
CLASSES); a file overrides defaults, command-line flags override the file,
and the result is checked whole, every key against its domain.
Unknown keys are rejected loudly. Every command echoes its effective
configuration into the output directory as `config.resolved`, which is itself
a valid config file that reproduces the run.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .checkpoint import check_value, format_value, parse_value
from .data import GeneratorConfig, open_text
from .encoder import EncoderConfig
from .errors import DatasetParseError, ValidationError
from .model import ModelConfig
from .training import TrainConfig

# The config classes, in the order of their keys in `config.resolved`. A
# field of one name in two classes (`seed`, `d`) is one key; fields that
# command flags set (`variant`, `no_two_stage`) declare no key.
CLASSES = (GeneratorConfig, EncoderConfig, ModelConfig, TrainConfig)


def _schema() -> tuple[dict, dict, dict]:
    """(class -> {field: key}, key -> default, key -> domain), from the fields."""
    keys, defaults, domains = {}, {}, {}
    for cls in CLASSES:
        keys[cls] = {}
        for f in fields(cls):
            key, domain = f.metadata.get("key", f.name), f.metadata["domain"]
            if key is None:
                continue
            if (defaults.setdefault(key, f.default), domains.setdefault(key, domain)) != (f.default, domain):
                raise TypeError(f"config key {key}: {cls.__name__} declares another default or domain")
            keys[cls][f.name] = key
    return keys, defaults, domains


_KEYS, DEFAULTS, DOMAINS = _schema()


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
            try:
                out[key] = parse_value(value, DEFAULTS[key])
            except ValueError as e:
                raise DatasetParseError(line_no, f"config key {key}: {e}") from None
    return out


def resolve_config(file_path=None, overrides: dict | None = None) -> dict:
    """defaults <- config file <- explicit overrides, each checked in its domain."""
    cfg = dict(DEFAULTS)
    if file_path is not None:
        cfg.update(parse_config_file(file_path))
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ValidationError(f"unknown config key {key!r}")
        if value is not None:
            cfg[key] = value
    for key, value in cfg.items():
        check_value(key, value, DOMAINS[key])
    return cfg


def format_resolved(cfg: dict) -> str:
    lines = [f"{key}={format_value(cfg[key])}" for key in DEFAULTS]
    return "\n".join(lines) + "\n"


def write_resolved(cfg: dict, out_dir) -> Path:
    path = Path(out_dir) / "config.resolved"
    path.write_text(format_resolved(cfg), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# builders for the module-level config objects


def _build(cls, cfg: dict, **flags):
    return cls(**{name: cfg[key] for name, key in _KEYS[cls].items()}, **flags)


def to_generator_config(cfg: dict) -> GeneratorConfig:
    return _build(GeneratorConfig, cfg)


def to_encoder_config(cfg: dict) -> EncoderConfig:
    return _build(EncoderConfig, cfg)


def to_model_config(cfg: dict, variant: str = "full") -> ModelConfig:
    return _build(ModelConfig, cfg, variant=variant)


def to_train_config(cfg: dict, gamma: float | None = None, no_two_stage: bool = False) -> TrainConfig:
    cfg = cfg if gamma is None else {**cfg, "gamma": gamma}
    return _build(TrainConfig, cfg, no_two_stage=no_two_stage)
