import numpy as np
import pytest

from rankfuse import autodiff as ad
from rankfuse import encoder as enc
from rankfuse.errors import (
    DatasetParseError,
    EmbeddingLookupError,
    TrainingError,
    ValidationError,
)


def small_config(**kw):
    defaults = dict(vocab_size=64, d_raw=16, d=8, seed=3, lr=0.5, batch_size=32, epochs=5)
    defaults.update(kw)
    return enc.EncoderConfig(**defaults)


WORDS = [f"w{i}" for i in range(30)]
CLICKY = [f"good{i}" for i in range(10)]
DULL = [f"bad{i}" for i in range(10)]
NEUTRAL = [f"q{i}" for i in range(10)]


def _toy_click_pairs(rng, n):
    """Clicked items carry tokens from one pool, unclicked from another.

    Queries are neutral noise, so the label is decided purely by which item
    descriptors are present in the pooled pair bag.
    """
    pairs = []
    for _ in range(n):
        qt = list(rng.choice(NEUTRAL, size=int(rng.integers(2, 4)), replace=False))
        label = int(rng.random() < 0.5)
        pool = CLICKY if label else DULL
        it = list(rng.choice(pool, size=3, replace=False))
        if rng.random() < 0.5:
            it.append(str(rng.choice(NEUTRAL)))
        pairs.append((" ".join(qt), " ".join(it), label))
    return pairs


def test_tokenize_is_lowercase_whitespace():
    assert enc.tokenize("Red  Shoe\tbox") == ["red", "shoe", "box"]
    assert enc.tokenize("") == []


def test_token_id_stable_and_in_range():
    a = enc.token_id("shoe", 64)
    assert a == enc.token_id("shoe", 64)
    assert 0 <= a < 64


def test_encode_text_unit_norm_and_deterministic():
    params = enc.init_encoder(small_config())
    for text in ["red shoe", "", "one", "a b c d e f g"]:
        v = enc.encode_text(params, [text])[0]
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
        w = enc.encode_text(params, [text])[0]
        assert (v == w).all()


def test_empty_text_uses_sentinel_row():
    params = enc.init_encoder(small_config())
    v_empty = enc.encode_text(params, [""])[0]
    # pooling the CLS row alone: same as pushing that single row through the MLP
    pooled = params.token_table.data[params.cls_id][None, :]
    ref = ad.l2_normalize(ad.mlp_apply(params.reduce, ad.Tensor(pooled))).data[0]
    assert np.allclose(v_empty, ref, atol=0)


def test_encode_pair_unit_norm_and_structure():
    params = enc.init_encoder(small_config())
    v = enc.encode_pair(params, [("red shoe", "red shoe box")])[0]
    assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    # the pair encoding sees CLS/SEP markers, so it differs from encoding
    # the concatenated text directly
    w = enc.encode_text(params, ["red shoe red shoe box"])[0]
    assert not np.allclose(v, w)


def test_pair_ids_tokenize_each_text_once(monkeypatch):
    params = enc.init_encoder(small_config())
    pairs = [("red shoe", "red shoe box"), ("red shoe", "blue hat"), ("", "Red Shoe"),
             ("blue hat", "red shoe box")]
    v, cls, sep = params.config.vocab_size, params.cls_id, params.sep_id
    expect = [[cls] + [enc.token_id(t, v) for t in q.lower().split()] + [sep]
              + [enc.token_id(t, v) for t in i.lower().split()] + [sep] for q, i in pairs]
    calls = []
    monkeypatch.setattr(enc, "tokenize", lambda text: calls.append(text) or text.lower().split())
    assert enc._pair_id_lists(params, pairs) == expect
    assert sorted(calls) == sorted({t for pair in pairs for t in pair})


def test_encode_refuses_a_bare_str():
    # a str is a sequence of one-character texts; taking it as one would
    # encode "red shoe" letter by letter
    params = enc.init_encoder(small_config())
    with pytest.raises(ValidationError):
        enc.encode_text(params, "red shoe")
    with pytest.raises(ValidationError):
        enc.encode_pair(params, "red shoe")


def test_encode_rows_do_not_depend_on_batch():
    # one row, a padded pair of rows and a 37-row batch give the same bits
    params = enc.init_encoder(small_config())
    texts = [" ".join(WORDS[k : k + 1 + k % 4]) for k in range(37)] + [""]
    pairs = [(texts[k], texts[-2 - k]) for k in range(37)]
    for fn, keys in ((enc.encode_text, texts), (enc.encode_pair, pairs)):
        batch = fn(params, keys)
        assert batch.shape == (len(keys), 8)
        for k, key in enumerate(keys):
            assert np.array_equal(fn(params, [key])[0], batch[k]), key
        assert np.array_equal(fn(params, keys[5:7]), batch[5:7])
    assert enc.encode_text(params, []).shape == (0, 8)


def test_pretrain_separable_toy_reaches_accuracy():
    rng = np.random.default_rng(7)
    train = _toy_click_pairs(rng, 240)
    held = _toy_click_pairs(rng, 80)
    params, trace = enc.pretrain_encoder(train, small_config(epochs=40))
    assert len(trace) == 40
    correct = 0
    for q, i, y in held:
        emb = enc.encode_pair(params, [(q, i)])[0]
        logit = emb @ params.binary_head.W.data[:, 0] + params.binary_head.b.data[0]
        correct += int((logit > 0) == bool(y))
    acc = correct / len(held)
    assert acc > 0.9, f"held-out accuracy {acc}"


def test_pretrain_loss_decreases_clearly():
    rng = np.random.default_rng(7)
    train = _toy_click_pairs(rng, 240)
    _, trace = enc.pretrain_encoder(train, small_config(epochs=40))
    # per-batch SGD is allowed small upticks; the aggregate trend must be a
    # clear drop from the ln(2) starting plateau
    assert float(np.mean(trace[-5:])) < float(np.mean(trace[:5])) - 0.3
    assert trace[-1] < 0.1


def test_pretrain_zero_epochs_leaves_params_at_init():
    cfg = small_config(epochs=0)
    pairs = [("a", "a b", 1), ("a", "c d", 0)]
    params, trace = enc.pretrain_encoder(pairs, cfg)
    fresh = enc.init_encoder(cfg)
    assert trace == []
    assert (params.token_table.data == fresh.token_table.data).all()


def test_pretrain_single_class_is_training_error():
    pairs = [("a", "a b", 1), ("c", "c d", 1)]
    with pytest.raises(TrainingError):
        enc.pretrain_encoder(pairs, small_config())


def test_finetune_reduces_loss_and_beats_uniform():
    rng = np.random.default_rng(9)
    markers = ["alpha", "beta", "gamma", "delta"]
    labeled = []
    for _ in range(160):
        rsl = int(rng.integers(1, 5))
        qt = list(rng.choice(WORDS, size=2, replace=False))
        it = [markers[rsl - 1]] + list(rng.choice(WORDS, size=2, replace=False))
        labeled.append((" ".join(qt), " ".join(it), rsl))
    held = labeled[120:]
    train = labeled[:120]

    base, _ = enc.pretrain_encoder(_toy_click_pairs(rng, 100), small_config(epochs=3))
    params, trace = enc.finetune_encoder(base, train, small_config(finetune_epochs=50))
    assert trace[-1] < trace[0]

    correct = 0
    for q, i, rsl in held:
        emb = enc.encode_pair(params, [(q, i)])[0]
        logits = emb @ params.rsl_head.W.data + params.rsl_head.b.data
        correct += int(np.argmax(logits) == rsl - 1)
    assert correct / len(held) > 0.25


def test_finetune_rejects_bad_labels():
    params = enc.init_encoder(small_config())
    with pytest.raises(ValidationError):
        enc.finetune_encoder(params, [("a", "b", 5)], small_config())


def test_finetune_empty_or_zero_factor_leaves_params_unchanged():
    cfg = small_config()
    params = enc.init_encoder(cfg)
    before = params.token_table.data.copy()
    enc.finetune_encoder(params, [], cfg)
    assert (params.token_table.data == before).all()
    enc.finetune_encoder(
        params, [("a", "b", 2)], small_config(finetune_lr_factor=0.0)
    )
    assert (params.token_table.data == before).all()


def test_finetune_non_finite_loss_aborts_with_context():
    params = enc.init_encoder(small_config())
    params.token_table.data[params.cls_id, 0] = np.nan  # every pair bag starts with [CLS]
    labeled = [("red shoe", "blue hat", 2), ("blue hat", "red shoe", 3)]
    with pytest.raises(TrainingError, match="non-finite loss at epoch 0 finetune batch 0"):
        enc.finetune_encoder(params, labeled, small_config())


# ---------------------------------------------------------------------------
# index


def _tiny_index(tmp_path=None):
    params = enc.init_encoder(small_config())
    texts = ["red shoe", "blue hat", ""]
    pairs = [("red shoe", "blue hat"), ("blue hat", "red shoe")]
    return params, enc.build_index(params, texts, pairs, checkpoint_id="abc123")


def test_index_roundtrip_and_byte_identical_rebuild(tmp_path):
    params, index = _tiny_index()
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    enc.save_index(index, p1)
    enc.save_index(enc.build_index(params, ["red shoe", "blue hat", ""],
                                   [("red shoe", "blue hat"), ("blue hat", "red shoe")],
                                   checkpoint_id="abc123"), p2)
    assert p1.read_bytes() == p2.read_bytes()

    loaded = enc.load_index(p1)
    assert loaded.dim == index.dim and loaded.checkpoint_id == "abc123"
    for key, vec in index.text.items():
        assert (loaded.text[key] == vec).all()
    for key, vec in index.pair.items():
        assert (loaded.pair[key] == vec).all()


@pytest.mark.parametrize("rsl_head", [False, True])
def test_load_encoder_draws_no_random_values(tmp_path, monkeypatch, rsl_head):
    params = enc.init_encoder(small_config())
    if rsl_head:
        enc.finetune_encoder(params, [], small_config())  # adds the head only
    path = tmp_path / "encoder.ckpt"
    enc.save_encoder(params, path)

    def no_draws(*_):
        raise AssertionError("a random generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    back = enc.load_encoder(path)
    assert (back.rsl_head is not None) == rsl_head
    assert enc.encoder_digest(back) == enc.encoder_digest(params)


def test_lookup_hit_miss_and_counter():
    params, index = _tiny_index()
    assert index.cache_misses == 0
    v = index.lookup_text("red shoe")
    assert (v == index.text["red shoe"]).all()
    with pytest.raises(EmbeddingLookupError):
        index.lookup_text("never seen")
    index.attach_encoder(params)
    w = index.lookup_text("never seen")
    assert index.cache_misses == 1
    assert np.allclose(w, enc.encode_text(params, ["never seen"])[0], atol=0)
    # second lookup is a hit, counter unchanged
    index.lookup_text("never seen")
    assert index.cache_misses == 1


def test_lookup_pair_semantics():
    params, index = _tiny_index()
    v = index.lookup_pair("red shoe", "blue hat")
    assert np.allclose(v, enc.encode_pair(params, [("red shoe", "blue hat")])[0], atol=1e-15)


def test_load_index_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_text("dimension=8\n")
    with pytest.raises(DatasetParseError):
        enc.load_index(path)


def _rewrite_index(path, edit):
    """Apply `edit` to the members of a saved index and write them back."""
    with np.load(path, allow_pickle=False) as z:
        members = {k: z[k] for k in z.files}
    edit(members)
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def _narrow_matrix(m):
    m["text_mat"] = m["text_mat"][:, :-1]


def _drop_key(m):
    m["pair_offsets"] = m["pair_offsets"][:-1]
    m["pair_keys"] = m["pair_keys"][: m["pair_offsets"][-1]]


INDEX_DAMAGE = {
    "width-not-dim": lambda path: _rewrite_index(path, _narrow_matrix),
    "keys-not-rows": lambda path: _rewrite_index(path, _drop_key),
    "missing-array": lambda path: _rewrite_index(path, lambda m: m.pop("pair_mat")),
    "pickled-member": lambda path: _rewrite_index(
        path, lambda m: m.update(text_keys=np.array(["red shoe"], dtype=object))),
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:-100]),
}


@pytest.mark.parametrize("damage", sorted(INDEX_DAMAGE))
def test_load_index_rejects_malformed_container(tmp_path, damage):
    _, index = _tiny_index()
    path = tmp_path / "index.tsv"
    enc.save_index(index, path)
    INDEX_DAMAGE[damage](path)
    with pytest.raises(DatasetParseError) as exc:
        enc.load_index(path)
    assert str(path) in str(exc.value)


def test_load_index_old_text_format_names_the_stage(tmp_path):
    path = tmp_path / "index.tsv"
    path.write_text("dim=3 checkpoint=x\ntext\thello\t1.0,2.0,3.0\n")
    with pytest.raises(ValidationError) as exc:
        enc.load_index(path)
    assert str(path) in str(exc.value) and "build-index" in str(exc.value)


def test_index_keeps_any_key_text_exactly(tmp_path):
    # keys with trailing NULs, tabs, newlines and non-ASCII survive the blob
    index = enc.EmbeddingIndex(dim=2, checkpoint_id="k")
    keys = ["a\x00", "a", "", "t\tab\nnl", "caf\u00e9 \U0001f600"]
    for n, key in enumerate(keys):
        index.text[key] = np.array([n, -n], dtype=np.float64)
    index.pair[enc.pair_key("q\x00", "i")] = np.array([0.5, 0.25])
    path = tmp_path / "index.tsv"
    enc.save_index(index, path)
    loaded = enc.load_index(path)
    assert list(loaded.text) == sorted(keys) and list(loaded.pair) == list(index.pair)
    for key in keys:
        assert (loaded.text[key] == index.text[key]).all()


def test_pair_key_separator_cannot_collide():
    params, index = _tiny_index()
    index.attach_encoder(params)
    for query, item in (("a\x01b", "c"), ("a", "b\x01c")):
        assert enc.PAIR_KEY_SEP in query + item
        with pytest.raises(ValidationError):
            index.lookup_pair(query, item)
    assert index.cache_misses == 0
    assert "a\x01b\x01c" not in index.pair
    with pytest.raises(ValidationError):
        enc.build_index(params, [], [("a\x01b", "c")], checkpoint_id="x")
