"""Binary container for parameter sets and the embedding index.

One container format serves `encoder.ckpt`, `model.ckpt` and `index.tsv`.
It is an uncompressed `np.savez` archive holding:

    head        uint8 array: UTF-8 JSON, keys sorted, with "format" and
                "kind" plus whatever the writer adds (meta, parameter names
                and groups, index dim and checkpoint id)
    <name>      float64 and int64 arrays, named by the writer

Arrays hold raw float64 bits, so save followed by load is value-exact. The
archive is written to an open handle (given a bare path numpy would append
`.npz`) with members in sorted order; zip entries carry numpy's fixed 1980
timestamp, so equal inputs give equal bytes. Loading never unpickles.

A checkpoint's meta holds its config dataclass, one string per field, in the
text form `config.resolved` uses too: `format_value` and `parse_value` are
the one codec of a setting's value, and `check_value` its one check.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import zipfile
from dataclasses import field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .autodiff import Parameter
from .errors import DatasetParseError, ValidationError

FORMAT = "rankfuse-container 1"
# first bytes of the text formats this container replaced
LEGACY_HEADERS = (b"rankfuse-params 1", b"dim=")
ZIP_MAGIC = b"PK\x03\x04"


def save_container(path, kind: str, head: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write `head` (JSON-able) and `arrays` to exactly `path`."""
    blob = json.dumps({"format": FORMAT, "kind": kind, **head}, sort_keys=True).encode("utf-8")
    members = {"head": np.frombuffer(blob, dtype=np.uint8)}
    members.update((name, arrays[name]) for name in sorted(arrays))
    with open(path, "wb") as fh:
        np.savez(fh, allow_pickle=False, **members)


def load_container(path, kind: str, rerun: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container of `kind`; every failure is a DatasetParseError naming
    the file. `rerun` names the command that writes this file, for the
    message about a file in a replaced text format."""
    path = Path(path)
    with open(path, "rb") as fh:
        start = fh.read(32)
    if start.startswith(LEGACY_HEADERS):
        raise DatasetParseError(
            None, f"{path} is in the old text format; re-run `{rerun}` to rewrite it"
        )
    if not start.startswith(ZIP_MAGIC):
        raise DatasetParseError(None, f"{path} is not a rankfuse {kind} file")
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as e:
        raise DatasetParseError(None, f"{path}: unreadable {kind} file: {e}") from None
    if not all(isinstance(a, np.ndarray) for a in arrays.values()):
        raise DatasetParseError(None, f"{path}: {kind} file holds a member that is not an array")
    raw = arrays.pop("head", None)
    if raw is None or raw.dtype != np.uint8 or raw.ndim != 1:
        raise DatasetParseError(None, f"{path}: {kind} file has no head")
    try:
        head = json.loads(raw.tobytes().decode("utf-8"))
    except ValueError as e:
        raise DatasetParseError(None, f"{path}: bad {kind} head: {e}") from None
    if not isinstance(head, dict) or head.get("format") != FORMAT or head.get("kind") != kind:
        raise DatasetParseError(None, f"{path}: not a {FORMAT!r} {kind} file")
    return head, arrays


def require_array(path, arrays: dict[str, np.ndarray], name: str, dtype, ndim: int) -> np.ndarray:
    """The named array, checked for presence, dtype and rank."""
    a = arrays.get(name)
    if a is None:
        raise DatasetParseError(None, f"{path}: missing array {name!r}")
    if a.dtype != dtype or a.ndim != ndim:
        raise DatasetParseError(
            None, f"{path}: array {name!r} is {a.dtype}[{a.ndim}D], expected {np.dtype(dtype)}[{ndim}D]"
        )
    return a


def save_params(path, params: dict[str, Parameter], meta: dict[str, str] | None = None):
    """Write parameters (and optional string metadata) to `path`."""
    names = sorted(params)
    arrays = {}
    for i, name in enumerate(names):
        p = params[name]
        if p.name != name:
            raise ValidationError(f"params dict key {name!r} != parameter name {p.name!r}")
        if p.data.ndim < 1:
            raise ValidationError(f"parameter {name!r} must be at least 1D")
        arrays[f"param{i}"] = np.ascontiguousarray(p.data, dtype=np.float64)
    head = {
        "meta": {str(k): str(v) for k, v in (meta or {}).items()},
        "names": names,
        "groups": [params[name].group for name in names],
    }
    save_container(path, "params", head, arrays)


def load_params(path, rerun: str = "the command that wrote it") -> tuple[dict[str, Parameter], dict[str, str]]:
    """Read a container written by save_params. Returns (params, meta)."""
    head, arrays = load_container(path, "params", rerun)
    names, groups, meta = head.get("names"), head.get("groups"), head.get("meta")
    if not (
        _strings(names) and _strings(groups) and len(names) == len(groups)
        and isinstance(meta, dict) and _strings(list(meta.values()))
    ):
        raise DatasetParseError(None, f"{path}: params head needs string names, groups and meta")
    if len(arrays) != len(names):
        raise DatasetParseError(None, f"{path}: {len(names)} parameters but {len(arrays)} arrays")
    params = {}
    for i, (name, group) in enumerate(zip(names, groups)):
        data = arrays.get(f"param{i}")
        if data is None or data.dtype != np.float64 or data.ndim < 1:
            raise DatasetParseError(None, f"{path}: parameter {name!r} is missing or not float64")
        params[name] = Parameter(name, data, group)
    return params, meta


def fill_params(path, expected: dict[str, Parameter], loaded: dict[str, Parameter]) -> None:
    """Copy the values of `loaded` (read from `path`) into `expected`; a
    DatasetParseError naming `path` unless both hold the same names and each
    parameter the same shape and group."""
    if set(expected) != set(loaded):
        differ = sorted(set(expected) ^ set(loaded))
        raise DatasetParseError(None, f"{path}: parameter names do not match the meta: {differ[:4]}")
    for name, p in expected.items():
        q = loaded[name]
        if q.data.shape != p.data.shape or q.group != p.group:
            raise DatasetParseError(
                None, f"{path}: parameter {name} is {q.group} {q.data.shape}, "
                f"expected {p.group} {p.data.shape}"
            )
        p.data[...] = q.data


# a meta key that only one checkpoint kind writes, and that kind's name
_KIND_MARKERS = (("variant", "a model"), ("vocab_size", "an encoder"))


def require_meta(path, meta: dict[str, str], keys, kind: str) -> None:
    """DatasetParseError naming `path` unless `meta` holds every key; `kind`
    ("a model", "an encoder") is what the caller expects, and the message
    names the kind found when the meta shows it."""
    missing = [k for k in keys if k not in meta]
    if not missing:
        return
    found = next((name for key, name in _KIND_MARKERS if key in meta), None)
    if found is not None and found != kind:
        raise DatasetParseError(None, f"{path} is {found} checkpoint; expected {kind} checkpoint")
    raise DatasetParseError(None, f"{path}: {kind} checkpoint meta lacks {missing}")


def format_value(value) -> str:
    """A setting's text form, in `config.resolved` and in checkpoint meta:
    `repr` for a float (it round-trips), comma-joined elements for a tuple,
    `str` otherwise."""
    if isinstance(value, tuple):
        return ",".join(map(format_value, value))
    return repr(value) if isinstance(value, float) else str(value)


def parse_value(raw: str, default):
    """`raw` parsed to the type of `default`: int, float, str, or a
    comma-separated tuple of the type of its elements. A ValueError says what
    was expected."""
    raw = raw.strip()
    if isinstance(default, str):
        return raw
    if isinstance(default, tuple):
        elem = type(default[0]) if default else int
        try:
            return tuple(elem(part) for part in raw.split(",")) if raw else ()
        except ValueError:
            raise ValueError("expected comma-separated numbers") from None
    try:
        return type(default)(raw)
    except ValueError:
        what = "integer" if isinstance(default, int) else "number"
        raise ValueError(f"expected {what}, got {raw!r}") from None


class Domain(NamedTuple):
    """What a setting may hold, in words after "must be" (`what`): numbers, or
    each number of a tuple, from `low` to `high`, never NaN, and `size` of
    them strictly increasing if set; or, given `choices`, one of them."""

    what: str
    low: float = -sys.float_info.max
    high: float = sys.float_info.max
    size: int = 0
    choices: tuple = ()


FINITE, NONNEGATIVE = Domain("finite"), Domain("finite and at least 0", 0.0)
POSITIVE = Domain("finite and positive", math.ulp(0.0))  # the least float above 0


def integers(low: int, high: float = math.inf) -> Domain:
    return Domain(f"at least {low}" if high == math.inf else f"from {low} to {high}", low, high)


def one_of(choices: tuple) -> Domain:
    return Domain(f"one of {', '.join(map(str, choices))}", choices=choices)


def setting(default, domain: Domain, **key):
    """A config class field: its default and its domain, and as `key=` its
    config key where that is not the field name (None: no key sets it)."""
    return field(default=default, metadata={"domain": domain, **key})


def check_value(key: str, value, domain: Domain) -> None:
    """ValidationError `<key> must be <what>, got <value>` unless `value` is in `domain`."""
    xs = value if isinstance(value, tuple) else (value,)
    if domain.choices:
        ok = value in domain.choices
    else:
        ok = all(domain.low <= x <= domain.high for x in xs) and (
            not domain.size or len(xs) == domain.size and list(xs) == sorted(set(xs)))
    if not ok:
        raise ValidationError(f"{key} must be {domain.what}, got {value!r}")


def check_fields(config) -> None:
    """check_value on each field of a config dataclass, named by its key."""
    for f in fields(config):
        check_value(f.metadata.get("key") or f.name, getattr(config, f.name), f.metadata["domain"])


def config_meta(config) -> dict[str, str]:
    """The checkpoint meta of a config dataclass: every field, as text."""
    return {f.name: format_value(getattr(config, f.name)) for f in fields(config)}


def config_from_meta(path, meta: dict[str, str], cls, kind: str):
    """The `cls` config that checkpoint meta describes; a DatasetParseError
    naming `path` when a field is missing, does not parse, or is refused by
    `cls`. `kind` is as for require_meta."""
    require_meta(path, meta, [f.name for f in fields(cls)], kind)
    kw = {}
    for f in fields(cls):
        try:
            kw[f.name] = parse_value(meta[f.name], f.default)
        except ValueError as e:
            raise DatasetParseError(None, f"{path}: meta {f.name}: {e}") from None
    try:
        return cls(**kw)
    except ValidationError as e:
        raise DatasetParseError(None, f"{path}: {e}") from None


def _strings(xs) -> bool:
    return isinstance(xs, list) and all(isinstance(x, str) for x in xs)


def params_digest(params: dict[str, Parameter]) -> str:
    """Short stable digest of a parameter set, used as a checkpoint id."""
    h = hashlib.sha256()
    for name in sorted(params):
        p = params[name]
        h.update(name.encode())
        h.update(str(p.data.shape).encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()[:16]
