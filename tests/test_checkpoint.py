import pickle

import numpy as np
import pytest

from rankfuse.autodiff import Parameter
from rankfuse.checkpoint import load_params, params_digest, save_params
from rankfuse.errors import DatasetParseError, ValidationError


def _params(rng):
    return {
        "base.w": Parameter("base.w", rng.normal(size=(3, 4)), "base"),
        "rsl.w": Parameter("rsl.w", rng.normal(size=(7,)), "rsl-finetune"),
        "att.q": Parameter("att.q", rng.normal(size=(2, 2)) * 1e-300, "prim"),
    }


def test_roundtrip_is_value_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = _params(rng)
    path = tmp_path / "ckpt.tsv"
    save_params(path, params, meta={"variant": "full", "d": "32"})
    loaded, meta = load_params(path)
    assert meta == {"variant": "full", "d": "32"}
    assert set(loaded) == set(params)
    for name, p in params.items():
        q = loaded[name]
        assert (q.data == p.data).all()
        assert q.group == p.group
        assert q.data.dtype == np.float64


def test_save_is_byte_stable(tmp_path):
    rng = np.random.default_rng(1)
    params = _params(rng)
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_params(a, params)
    save_params(b, params)
    assert a.read_bytes() == b.read_bytes()


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("something-else 9\n")
    with pytest.raises(DatasetParseError):
        load_params(path)


def _rewrite(path, edit):
    """Apply `edit` to the members of a saved container and write them back."""
    with np.load(path, allow_pickle=False) as z:
        members = {k: z[k] for k in z.files}
    edit(members)
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _drop_array(path):
    _rewrite(path, lambda m: m.pop("param1"))


UNPICKLED = []


def _record_unpickle():
    UNPICKLED.append(True)
    return 0


class _Trap:
    """Unpickling this runs code: it records the call."""

    def __reduce__(self):
        return (_record_unpickle, ())


def _pickled_member(path):
    _rewrite(path, lambda m: m.update(param0=np.array([_Trap()], dtype=object)))


def _pickle_file(path):
    path.write_bytes(pickle.dumps({"base.w": np.zeros(3)}))


@pytest.mark.parametrize("damage", [_truncate, _drop_array, _pickled_member, _pickle_file],
                         ids=["truncated", "missing-array", "pickled-member", "pickle-file"])
def test_malformed_container_rejected(tmp_path, damage):
    path = tmp_path / "model.ckpt"
    save_params(path, _params(np.random.default_rng(3)), meta={"variant": "full"})
    damage(path)
    with pytest.raises(DatasetParseError) as exc:
        load_params(path)
    assert str(path) in str(exc.value)
    assert not UNPICKLED


def test_old_text_format_names_file_and_stage(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_text("rankfuse-params 1\nparam\tw\tbase\t2\t1.0,2.0\n")
    with pytest.raises(ValidationError) as exc:
        load_params(path, rerun="rankfuse train")
    assert str(path) in str(exc.value) and "rankfuse train" in str(exc.value)


def test_save_without_npz_suffix_writes_exactly_that_path(tmp_path):
    params = _params(np.random.default_rng(4))
    path = tmp_path / "encoder.ckpt"
    save_params(path, params, meta={"d": "32"})
    first = path.read_bytes()
    save_params(path, params, meta={"d": "32"})
    assert path.read_bytes() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["encoder.ckpt"]


def test_digest_tracks_values():
    rng = np.random.default_rng(2)
    params = _params(rng)
    d1 = params_digest(params)
    assert d1 == params_digest(params)
    params["base.w"].data[0, 0] += 1.0
    assert params_digest(params) != d1
