import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfuse import autodiff as ad
from rankfuse import encoder as enc
from rankfuse import model as md
from rankfuse.checkpoint import params_digest
from rankfuse.data import Dataset, Sample
from rankfuse.encoder import PAIR_KEY_SEP, EmbeddingIndex
from rankfuse.errors import DimensionError, ValidationError


def tiny_config(**kw):
    defaults = dict(
        variant="full",
        d=8,
        field_dim=4,
        user_buckets=16,
        item_buckets=32,
        category_buckets=8,
        token_buckets=32,
        base_hidden=(8,),
        rsl_hidden=(8,),
        incentive_hidden=(4,),
        seed=5,
    )
    defaults.update(kw)
    return md.ModelConfig(**defaults)


def make_index(samples, d, seed=11):
    """Deterministic fake index covering every text/pair the samples use."""
    rng = np.random.default_rng(seed)
    idx = EmbeddingIndex(dim=d, checkpoint_id="fixture")
    texts, pairs = set(), set()
    for s in samples:
        texts.update([s.query_text, s.item_text])
        pairs.add((s.query_text, s.item_text))
        for q, i in s.history:
            texts.add(q)
            pairs.add((q, i))
    for t in sorted(texts):
        v = rng.normal(size=d)
        idx.text[t] = v / np.linalg.norm(v)
    for q, i in sorted(pairs):
        v = rng.normal(size=d)
        idx.pair[q + PAIR_KEY_SEP + i] = v / np.linalg.norm(v)
    return idx


def make_samples(n, seed=3, with_history=True):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        u = int(rng.integers(0, 6))
        q = f"cat{int(rng.integers(0, 3))} d{int(rng.integers(0, 5))}"
        it = f"cat{int(rng.integers(0, 3))} d{int(rng.integers(0, 5))} d{int(rng.integers(5, 9))}"
        hist = []
        if with_history and rng.random() < 0.6:
            for _ in range(int(rng.integers(1, 4))):
                hist.append((f"cat{int(rng.integers(0, 3))} h", f"cat{int(rng.integers(0, 3))} h x"))
        out.append(
            Sample(
                user_id=u,
                query_text=q,
                item_id=int(rng.integers(0, 20)),
                item_text=it,
                category_match=int(q.split()[0] == it.split()[0]),
                contains_query=0,
                rsl=int(rng.integers(1, 5)),
                click=int(rng.random() < 0.4),
                history=hist,
            )
        )
    return out


def zero_layers(layers):
    for layer in layers:
        layer.W.data[...] = 0.0
        layer.b.data[...] = 0.0


# ---------------------------------------------------------------------------
# config / params


def test_config_validation():
    with pytest.raises(ValidationError):
        md.ModelConfig(variant="fancy")
    with pytest.raises(ValidationError):
        md.ModelConfig(field_dim=0)


def test_group_partition():
    params = md.build_model(tiny_config())
    groups = {name: p.group for name, p in params.all_params().items()}
    assert all(g == "base" for n, g in groups.items() if n.startswith(("emb.", "base.")))
    assert all(g == "rsl-finetune" for n, g in groups.items() if n.startswith("rsl."))
    assert all(g == "prim" for n, g in groups.items() if n.startswith(("attn.", "incentive.")))
    assert set(params.by_group()) == {"base", "rsl-finetune", "prim"}

    solo = md.build_model(tiny_config(variant="base-only"))
    assert set(solo.by_group()) == {"base"}
    assert solo.rsl_layers is None and solo.attention is None
    # single-head output
    assert solo.base_layers[-1].W.data.shape[1] == 1


def test_build_model_deterministic():
    a = md.build_model(tiny_config())
    b = md.build_model(tiny_config())
    assert params_digest(a.all_params()) == params_digest(b.all_params())


def test_checkpoint_roundtrip(tmp_path):
    params = md.build_model(tiny_config())
    path = str(tmp_path / "model.ckpt")
    md.save_model(params, path, extra_meta={"note": "x"})
    back, meta = md.load_model(path)
    assert meta["note"] == "x"
    assert back.config == params.config
    assert params_digest(back.all_params()) == params_digest(params.all_params())

    # a checkpoint missing parameters is rejected
    from rankfuse.checkpoint import config_meta, save_params

    subset = dict(list(params.all_params().items())[:3])
    save_params(str(tmp_path / "bad.ckpt"), subset, config_meta(params.config))
    with pytest.raises(ValidationError):
        md.load_model(str(tmp_path / "bad.ckpt"))


@pytest.mark.parametrize("kw", [{}, {"variant": "no-prim"}, {"variant": "base-only"},
                                {"variant": "no-prim", "rsl_hidden": (8, 4)}])
def test_load_model_draws_no_random_values(tmp_path, monkeypatch, kw):
    params = md.build_model(tiny_config(**kw))
    path = str(tmp_path / "model.ckpt")
    md.save_model(params, path)
    shapes = md.build_model(params.config, draw=False).all_params()
    assert {k: (p.data.shape, p.group) for k, p in shapes.items()} == {
        k: (p.data.shape, p.group) for k, p in params.all_params().items()}

    def no_draws(*_):
        raise AssertionError("a random generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    back, _ = md.load_model(path)
    assert back.config == params.config
    assert params_digest(back.all_params()) == params_digest(params.all_params())


# ---------------------------------------------------------------------------
# forwards


def test_rsl_output_simplex_and_uniform_at_zero():
    samples = make_samples(12)
    cfg = tiny_config()
    params = md.build_model(cfg)
    batch = md.TrainingCache(samples, make_index(samples, cfg.d), cfg).batch(np.arange(len(samples)))
    out = md.rsl_forward_batch(params, batch).data
    assert np.all(out > 0) and np.all(out < 1)
    assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-9

    zero_layers(params.rsl_layers)
    out = md.rsl_forward_batch(params, batch).data
    assert np.allclose(out, 0.25, atol=0)


def test_base_output_independent_sigmoids():
    samples = make_samples(12)
    cfg = tiny_config()
    params = md.build_model(cfg)
    batch = md.TrainingCache(samples, make_index(samples, cfg.d), cfg).batch(np.arange(len(samples)))
    out = md.base_forward_batch(params, batch).data
    assert out.shape == (12, 4)
    assert np.all(out > 0) and np.all(out < 1)

    zero_layers(params.base_layers)
    out = md.base_forward_batch(params, batch).data
    assert np.allclose(out, 0.5, atol=0)


def test_rsl_hand_trace_single_layer():
    # one affine layer over [flags, q_emb, i_emb, pair_emb] then softmax
    samples = make_samples(3, with_history=False)
    cfg = tiny_config(rsl_hidden=())
    params = md.build_model(cfg)
    idx = make_index(samples, cfg.d)
    batch = md.TrainingCache(samples, idx, cfg).batch(np.arange(len(samples)))

    rng = np.random.default_rng(0)
    W = rng.normal(size=(2 + 3 * cfg.d, 4))
    b = rng.normal(size=4)
    params.rsl_layers[0].W.data[...] = W
    params.rsl_layers[0].b.data[...] = b

    x = np.concatenate([batch.flags, batch.qtext_emb, batch.itext_emb, batch.pair_emb], axis=-1)
    logits = x @ W + b
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    expect = e / e.sum(axis=-1, keepdims=True)
    got = md.rsl_forward_batch(params, batch).data
    assert np.abs(got - expect).max() < 1e-12


def test_base_hand_trace_single_layer():
    samples = make_samples(3, with_history=False)
    cfg = tiny_config(base_hidden=())
    params = md.build_model(cfg)
    idx = make_index(samples, cfg.d)
    batch = md.TrainingCache(samples, idx, cfg).batch(np.arange(len(samples)))

    rng = np.random.default_rng(1)
    n_in = md.base_input_dim(cfg)
    W = rng.normal(size=(n_in, 4))
    b = rng.normal(size=4)
    params.base_layers[0].W.data[...] = W
    params.base_layers[0].b.data[...] = b

    fields = np.concatenate(
        [
            params.embeddings["user"].data[batch.user_ids],
            params.embeddings["item"].data[batch.item_ids],
            params.embeddings["query_category"].data[batch.qcat_ids],
            params.embeddings["item_category"].data[batch.icat_ids],
            np.stack([
                params.embeddings["query_tokens"].data[batch.qtok_flat[s:e2]].mean(axis=0)
                for s, e2 in zip(batch.qtok_off[:-1], batch.qtok_off[1:])
            ]),
            np.stack([
                params.embeddings["item_tokens"].data[batch.itok_flat[s:e2]].mean(axis=0)
                for s, e2 in zip(batch.itok_off[:-1], batch.itok_off[1:])
            ]),
        ],
        axis=-1,
    )
    x = np.concatenate([fields, batch.flags, batch.pair_emb], axis=-1)
    expect = 1.0 / (1.0 + np.exp(-(x @ W + b)))
    got = md.base_forward_batch(params, batch).data
    assert np.abs(got - expect).max() < 1e-12


def _set_outputs(params, g, T):
    """Constant base heads g and relevance distribution T for every row."""
    zero_layers(params.base_layers)
    params.base_layers[-1].b.data[...] = np.log(g) - np.log1p(-g)
    zero_layers(params.rsl_layers)
    params.rsl_layers[-1].b.data[...] = np.log(np.maximum(T, 1e-300))


def test_fuse_examples():
    # fused is the total click probability: sum_i P(click|level i) * P(level i)
    samples = make_samples(6)
    cfg = tiny_config()
    params = md.build_model(cfg)
    batch = md.TrainingCache(samples, make_index(samples, cfg.d), cfg).batch(np.arange(len(samples)))
    examples = (
        ([0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 1.0, 0.0], 0.3),
        ([0.6, 0.6, 0.6, 0.6], [0.7, 0.1, 0.1, 0.1], 0.6),
        ([0.2, 0.4, 0.6, 0.8], [0.25, 0.25, 0.25, 0.25], 0.5),
    )
    for g, T, expect in examples:
        _set_outputs(params, np.array(g), np.array(T))
        fused = md.score_batch(params, batch)["fused"].data
        assert fused == pytest.approx(np.full(len(samples), expect))

    for seed in range(20):
        out = md.score_batch(md.build_model(tiny_config(seed=seed)), batch)
        base, rsl, fused = out["base"].data, out["rsl"].data, out["fused"].data
        assert np.abs(fused - (base * rsl).sum(axis=-1)).max() < 1e-12
        assert np.all((fused > 0.0) & (fused < 1.0))


# ---------------------------------------------------------------------------
# history / attention / incentive


def test_extract_history_preferences():
    # a cache over indexed histories embeds every entry without a miss
    samples = make_samples(6)
    idx = make_index(samples, 8)
    misses_before = idx.cache_misses
    batch = md.TrainingCache(samples, idx, tiny_config()).batch(np.arange(len(samples)))
    assert idx.cache_misses == misses_before

    with_hist = [i for i, s in enumerate(samples) if s.history]
    assert with_hist and list(batch.hist_rows) == with_hist
    for j, i in enumerate(with_hist):
        hist = samples[i].history
        m = len(hist)
        assert batch.hist_mask[j, :m].all() and not batch.hist_mask[j, m:].any()
        assert np.array_equal(batch.hist_q_emb[j, :m], np.stack([idx.lookup_text(q) for q, _ in hist]))
        assert np.array_equal(batch.hist_r_emb[j, :m], np.stack([idx.lookup_pair(q, it) for q, it in hist]))
    assert idx.cache_misses == misses_before


def _attn(d, seed=4, identity=False):
    rng = np.random.default_rng(seed)
    mk = lambda n: ad.Parameter(n, np.eye(d) if identity else rng.normal(0, 0.3, size=(d, d)), "prim")
    return md.AttentionParams(mk("attn.w_q"), mk("attn.w_k"), mk("attn.w_v"))


def _attend(attn, q_cur, qs, rs, pad=0):
    """attention_expectation over a one-row batch holding history (qs, rs),
    followed by `pad` masked slots of noise."""
    d = q_cur.shape[0]
    noise = np.random.default_rng(99).normal(size=(2, pad, d))
    hist_q = np.concatenate([np.reshape(qs, (-1, d)), noise[0]])[None]
    hist_r = np.concatenate([np.reshape(rs, (-1, d)), noise[1]])[None]
    mask = np.arange(len(qs) + pad)[None] < len(qs)
    return md.attention_expectation(attn, q_cur[None], hist_q, hist_r, mask).data[0]


def test_attention_single_entry_exact():
    d = 8
    attn = _attn(d)
    rng = np.random.default_rng(7)
    q_cur, q1, r1 = rng.normal(size=(3, d))
    out = _attend(attn, q_cur, [q1], [r1])
    assert np.array_equal(out, r1 @ attn.w_v.data)


def test_attention_identical_keys_mean():
    d = 8
    attn = _attn(d)
    rng = np.random.default_rng(8)
    q_cur = rng.normal(size=d)
    q1 = rng.normal(size=d)
    rs = [rng.normal(size=d) for _ in range(4)]
    out = _attend(attn, q_cur, [q1] * 4, rs)
    expect = np.stack([r @ attn.w_v.data for r in rs]).mean(axis=0)
    assert np.abs(out - expect).max() < 1e-12


def test_attention_hand_trace_two_entries():
    # identity projections, d=4, single head: weights = softmax(q.k_i / 2)
    d = 4
    attn = _attn(d, identity=True)
    q_cur = np.array([1.0, 0.5, -0.25, 2.0])
    k1 = np.array([0.5, 1.0, 0.0, -1.0])
    k2 = np.array([-1.0, 0.25, 2.0, 0.5])
    r1 = np.array([1.0, 0.0, 2.0, -1.0])
    r2 = np.array([0.0, 3.0, -2.0, 1.0])
    z = np.array([q_cur @ k1, q_cur @ k2]) / np.sqrt(d)
    w = np.exp(z - z.max())
    w = w / w.sum()
    expect = w[0] * r1 + w[1] * r2
    for pad in (0, 3):
        got = _attend(attn, q_cur, [k1, k2], [r1, r2], pad=pad)
        assert np.abs(got - expect).max() < 1e-12


def test_attention_output_in_hull_of_projected_values():
    d = 6
    attn = _attn(d, seed=9)
    rng = np.random.default_rng(10)
    q_cur = rng.normal(size=d)
    qs = [rng.normal(size=d) for _ in range(5)]
    rs = [rng.normal(size=d) for _ in range(5)]
    out = _attend(attn, q_cur, qs, rs, pad=2)
    projected = np.stack([r @ attn.w_v.data for r in rs])
    for _ in range(25):
        direction = rng.normal(size=d)
        vals = projected @ direction
        assert vals.min() - 1e-9 <= out @ direction <= vals.max() + 1e-9


def test_attention_permutation_equivariance():
    d = 8
    attn = _attn(d, seed=12)
    rng = np.random.default_rng(13)
    q_cur = rng.normal(size=d)
    qs = [rng.normal(size=d) for _ in range(6)]
    rs = [rng.normal(size=d) for _ in range(6)]
    base = _attend(attn, q_cur, qs, rs)
    perm = rng.permutation(6)
    shuffled = _attend(attn, q_cur, [qs[i] for i in perm], [rs[i] for i in perm])
    assert np.abs(base - shuffled).max() < 1e-12


def test_attention_rejects_empty_history():
    # cold-start rows never reach attention (prim_tau_batch gives them tau=1)
    attn = _attn(4)
    q_cur = np.zeros(4)
    for pad in (0, 2):
        with pytest.raises(ValidationError):
            _attend(attn, q_cur, np.zeros((0, 4)), np.zeros((0, 4)), pad=pad)


def _projected_attention(attn, q_cur, hist_q, hist_r, mask):
    """Reference in the projected form: every slot's key x_q W_k and value
    x_r W_v, a masked softmax, then the mix. Returns (weights [b, 1, L],
    expectation [b, d])."""
    b, L, d = hist_q.shape
    q = q_cur @ attn.w_q.data
    k = (hist_q.reshape(b * L, d) @ attn.w_k.data).reshape(b, L, d)
    v = (hist_r.reshape(b * L, d) @ attn.w_v.data).reshape(b, L, d)
    scores = np.where(mask, np.einsum("be,ble->bl", q, k) / np.sqrt(d), -np.inf)
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    return w[:, None, :], np.einsum("bl,ble->be", w, v)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 12), b=st.integers(1, 6), width=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_attention_matches_projected_form(d, b, width, seed):
    rng = np.random.default_rng(seed)
    attn = _attn(d, seed=seed)
    mask = np.arange(width)[None, :] < rng.integers(1, width + 1, size=b)[:, None]
    # padded slots hold noise, which must get no weight
    q_cur = rng.normal(size=(b, d))
    hist_q, hist_r = rng.normal(size=(2, b, width, d))
    w_ref, out_ref = _projected_attention(attn, q_cur, hist_q, hist_r, mask)
    w = md.attention_weights(attn, q_cur, hist_q, hist_r, mask)
    out = md.attention_expectation(attn, q_cur, hist_q, hist_r, mask).data
    assert w.shape == w_ref.shape and out.shape == (b, d)
    assert np.abs(w - w_ref).max() < 1e-12
    assert np.abs(out - out_ref).max() < 1e-12
    assert np.all(w[~np.broadcast_to(mask[:, None, :], w.shape)] == 0.0)


def test_attention_finite_difference_with_padding():
    d, width = 6, 4
    attn = _attn(d, seed=16)
    rng = np.random.default_rng(17)
    lens = np.array([4, 2, 1])
    mask = np.arange(width)[None, :] < lens[:, None]
    q_cur = rng.normal(size=(3, d))
    hist_q, hist_r = rng.normal(size=(2, 3, width, d))
    proj = ad.Tensor(rng.normal(size=(3, d)))

    def loss():
        return ad.tsum(ad.mul(md.attention_expectation(attn, q_cur, hist_q, hist_r, mask), proj))

    assert ad.finite_difference_check(loss, attn.params()) < 1e-6


def test_incentive_neutral_and_range():
    samples = make_samples(30)
    cfg = tiny_config()
    batch = md.TrainingCache(samples, make_index(samples, cfg.d), cfg).batch(np.arange(len(samples)))
    assert 0 < batch.hist_rows.size < len(samples)
    params = md.build_model(cfg)
    zero_layers(params.incentive_layers)
    assert np.all(md.prim_tau_batch(params, batch).data == 1.0)

    for seed in range(20):
        tau = md.prim_tau_batch(md.build_model(tiny_config(seed=seed)), batch).data
        assert np.all((tau > 0.0) & (tau < 2.0))
        cold = np.setdiff1d(np.arange(len(samples)), batch.hist_rows)
        assert np.all(tau[cold] == 1.0)


# ---------------------------------------------------------------------------
# composition


def test_cold_start_tau_exactly_one():
    samples = make_samples(5, with_history=False)
    cfg = tiny_config()
    params = md.build_model(cfg)
    bds = md.personalized_score(samples, make_index(samples, cfg.d), params)
    assert len(bds) == len(samples)
    for bd in bds:
        assert bd.tau == 1.0
        assert bd.final == bd.fused  # clamp inactive at interior values


def test_breakdown_consistency_random():
    samples = make_samples(20)
    cfg = tiny_config()
    params = md.build_model(cfg)
    idx = make_index(samples, cfg.d)
    bds = md.personalized_score(samples, idx, params)
    assert len(bds) == len(samples)
    for bd in bds:
        assert abs(bd.fused - float(bd.base_out @ bd.rsl_out)) < 1e-12
        assert bd.final == float(np.clip(bd.tau * bd.fused, md.SCORE_EPS, 1 - md.SCORE_EPS))
        assert 0.0 < bd.fused < 1.0
        assert 0.0 < bd.tau < 2.0
        assert md.SCORE_EPS <= bd.final <= 1 - md.SCORE_EPS


def test_clamp_engages_at_ceiling():
    samples = make_samples(4, with_history=True)
    samples = [s for s in samples if s.history][:1]
    cfg = tiny_config()
    params = md.build_model(cfg)
    idx = make_index(samples, cfg.d)
    # saturate every base head and the incentive logit
    for layer in params.base_layers:
        layer.W.data[...] = 0.0
        layer.b.data[...] = 0.0
    params.base_layers[-1].b.data[...] = 40.0
    params.incentive_layers[-1].b.data[...] = 40.0
    [bd] = md.personalized_score(samples, idx, params)
    assert bd.final == 1.0 - 1e-7
    assert bd.tau > 1.99


def test_score_batch_no_prim_and_base_only():
    samples = make_samples(10)
    cfg = tiny_config(variant="no-prim")
    params = md.build_model(cfg)
    idx = make_index(samples, cfg.d)
    batch = md.TrainingCache(samples, idx, cfg).batch(np.arange(len(samples)))
    out = md.score_batch(params, batch)
    assert np.all(out["tau"].data == 1.0)
    assert np.array_equal(
        out["final"].data, np.clip(out["fused"].data, md.SCORE_EPS, 1 - md.SCORE_EPS)
    )

    solo_cfg = tiny_config(variant="base-only")
    solo = md.build_model(solo_cfg)
    solo_batch = md.TrainingCache(samples, idx, solo_cfg).batch(np.arange(len(samples)))
    out2 = md.score_batch(solo, solo_batch)
    assert set(out2) == {"final"}
    assert np.all((out2["final"].data > 0) & (out2["final"].data < 1))
    with pytest.raises(ValidationError):
        md.personalized_score(samples, idx, solo)


def test_ranking_scale_invariance_pre_clamp():
    samples = make_samples(15)
    cfg = tiny_config()
    params = md.build_model(cfg)
    idx = make_index(samples, cfg.d)
    bds = md.personalized_score(samples, idx, params)
    pre = np.array([b.tau * b.fused for b in bds])
    for c in (0.3, 2.5, 17.0):
        assert np.argmax(pre) == np.argmax(c * pre)


def test_cache_slicing_matches_direct_batch():
    samples = make_samples(30, seed=21)
    cfg = tiny_config()
    params = md.build_model(cfg)
    idx = make_index(samples, cfg.d)
    cache = md.TrainingCache(samples, idx, cfg)
    rows = np.array([3, 7, 11, 18, 25], dtype=np.int64)
    got = md.score_batch(params, cache.batch(rows))["final"].data
    alone = md.TrainingCache([samples[i] for i in rows], idx, cfg).batch(np.arange(rows.size))
    direct = md.score_batch(params, alone)["final"].data
    assert np.array_equal(got, direct)


def test_index_dim_mismatch_rejected():
    samples = make_samples(3)
    cfg = tiny_config()
    with pytest.raises(DimensionError):
        md.TrainingCache(samples, make_index(samples, cfg.d + 1), cfg)


def test_cache_stores_each_history_once():
    samples = make_samples(30, seed=21)
    shared = [("cat0 h", "cat1 h x"), ("cat2 h", "cat0 h x")]
    for s in samples[::3]:
        s.history = list(shared)  # equal by value, separate list objects
    # no copy is a one-click shift of its user's previous history, which
    # would grow that history's log instead of looking the copy up
    prev = {}
    for r, s in enumerate(samples):
        assert r % 3 or prev.get(s.user_id) != shared[1:]
        prev[s.user_id] = s.history
    cfg = tiny_config()
    idx = make_index(samples, cfg.d)
    cache = md.TrainingCache(samples, idx, cfg)
    ds = Dataset.from_samples(samples)
    # the copies share one window, and the cache one history row per click
    assert len({(cache.hist_start[r], cache.hist_len[r]) for r in range(0, 30, 3)}) == 1
    assert cache.hist_q_rows.size == cache.hist_r_rows.size == ds.clicks.size
    batch = cache.batch(np.arange(len(samples), dtype=np.int64))
    for j, i in enumerate(batch.hist_rows):
        hist = samples[i].history
        assert np.array_equal(batch.hist_r_emb[j, : len(hist)],
                              np.stack([idx.lookup_pair(q, it) for q, it in hist]))


# ---------------------------------------------------------------------------
# encoder fallback: a miss gets the vector a full build_index stores


def _corpus_keys(samples):
    idx = make_index(samples, 2)
    return sorted(idx.text), sorted(tuple(k.split(PAIR_KEY_SEP)) for k in idx.pair)


def _partial_index(samples, keep_text, keep_pair):
    """(encoder, full build_index of every key, build_index of the kept keys
    with the encoder attached)."""
    params = enc.init_encoder(enc.EncoderConfig(vocab_size=64, d_raw=16, d=8, seed=3))
    texts, pairs = _corpus_keys(samples)
    full = enc.build_index(params, texts, pairs, checkpoint_id="x")
    part = enc.build_index(params, [t for t in texts if keep_text(t)],
                           [p for p in pairs if keep_pair(p)], checkpoint_id="x")
    part.attach_encoder(params)
    return params, full, part


def _assert_bit_equal(index, full):
    assert index.text.keys() == full.text.keys() and index.pair.keys() == full.pair.keys()
    for table, ref in ((index.text, full.text), (index.pair, full.pair)):
        for key, vec in ref.items():
            assert np.array_equal(table[key], vec), key


def test_fallback_vectors_equal_build_index():
    samples = make_samples(60, seed=8)
    texts, pairs = _corpus_keys(samples)
    kept_t, kept_p = set(texts[::2]), set(pairs[::3])
    _, full, part = _partial_index(samples, kept_t.__contains__, kept_p.__contains__)
    params = md.build_model(tiny_config())
    scores = md.score_dataset(params, samples, part)
    assert part.cache_misses == len(texts) - len(kept_t) + len(pairs) - len(kept_p)
    _assert_bit_equal(part, full)
    assert np.array_equal(scores, md.score_dataset(params, samples, full))


def test_single_miss_fallback_equals_build_index():
    # one missing pair goes through the one-row (padded) encode
    samples = make_samples(20, seed=9)
    missing = (samples[0].query_text, samples[0].item_text)
    _, full, part = _partial_index(samples, lambda t: True, lambda p: p != missing)
    md.score_dataset(md.build_model(tiny_config()), samples, part)
    assert part.cache_misses == 1
    _assert_bit_equal(part, full)


def test_build_index_last_chunk_of_one_key():
    samples = make_samples(20, seed=9)
    params, full, _ = _partial_index(samples, lambda t: True, lambda p: True)
    texts, pairs = _corpus_keys(samples)
    for n in (len(texts), len(pairs)):
        assert n > 2
        _assert_bit_equal(enc.build_index(params, texts, pairs, "x", batch_size=n - 1), full)


def test_full_composition_finite_difference():
    samples = make_samples(4, seed=31)
    if not any(s.history for s in samples):
        samples[0].history.append(("cat0 h", "cat0 h x"))
    cfg = tiny_config()
    params = md.build_model(cfg)
    idx = make_index(samples, cfg.d)
    cache = md.TrainingCache(samples, idx, cfg)
    rows = np.arange(4, dtype=np.int64)
    plist = list(params.all_params().values())

    def loss_fn():
        out = md.score_batch(params, cache.batch(rows))
        return ad.tsum(out["final"])

    err = ad.finite_difference_check(loss_fn, plist)
    assert err < 1e-4, err


def test_breakdown_line_format():
    samples = make_samples(2)
    cfg = tiny_config()
    params = md.build_model(cfg)
    bd = md.personalized_score(samples, make_index(samples, cfg.d), params)[0]
    line = bd.to_line()
    fields = line.split("\t")
    assert len(fields) == 5
    assert float(fields[0]) == bd.final
    assert float(fields[1]) == bd.fused
    assert float(fields[2]) == bd.tau
    assert [float(v) for v in fields[3].split(",")] == list(bd.rsl_out)
    assert [float(v) for v in fields[4].split(",")] == list(bd.base_out)


def test_probability_invariants_sweep():
    rng = np.random.default_rng(40)
    cfg = tiny_config()
    for trial in range(25):
        params = md.build_model(tiny_config(seed=trial))
        samples = make_samples(8, seed=100 + trial)
        idx = make_index(samples, cfg.d, seed=200 + trial)
        batch = md.TrainingCache(samples, idx, cfg).batch(np.arange(len(samples)))
        out = md.score_batch(params, batch)
        rsl = out["rsl"].data
        base = out["base"].data
        assert np.abs(rsl.sum(axis=-1) - 1).max() < 1e-9
        assert np.all((base > 0) & (base < 1))
        assert np.all((out["fused"].data > 0) & (out["fused"].data < 1))
        assert np.all((out["tau"].data > 0) & (out["tau"].data < 2))


# ---------------------------------------------------------------------------
# the cache builds from columns


def test_cache_from_dataset_works_per_distinct_text(tmp_path, monkeypatch):
    from rankfuse import data as dt

    samples = make_samples(200, seed=12)
    path = tmp_path / "data.tsv"
    dt.write_dataset(samples, str(path))
    ds = dt.read_dataset(str(path))
    calls = {"token_slots": 0, "category_slot": 0, "tokenize": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(md, name, counted(getattr(md, name)))

    def no_samples(*_):
        raise AssertionError("the cache built a Sample")

    monkeypatch.setattr(dt.Dataset, "__iter__", no_samples)
    monkeypatch.setattr(dt.Dataset, "__getitem__", no_samples)
    cfg = tiny_config()
    cache = md.TrainingCache(ds, make_index(samples, cfg.d), cfg)
    row_texts = {s.query_text for s in samples} | {s.item_text for s in samples}
    assert calls == dict.fromkeys(("token_slots", "category_slot", "tokenize"), len(row_texts))
    assert len(row_texts) < len(samples)
    monkeypatch.undo()
    from_list = md.TrainingCache(samples, make_index(samples, cfg.d), cfg)
    assert np.array_equal(cache.group_keys, from_list.group_keys)


def test_group_keys_number_user_query_pairs_at_int64_extreme_user_ids():
    # a raw user_id * n_texts + query key overflows int64 at these ids; the
    # product of `over` wraps below that of user 0, out of order
    samples = make_samples(8)
    over = 2**63 // len(Dataset.from_samples(samples).texts) + 1
    users = [2**63 - 1, 0, -(2**63), over, 0, -(2**63), over, 7]
    samples = [dataclasses.replace(s, user_id=u) for s, u in zip(samples, users)]
    cfg = tiny_config()
    cache = md.TrainingCache(samples, make_index(samples, cfg.d), cfg)
    pairs = sorted({(s.user_id, s.query_text) for s in samples})
    assert cache.group_keys.tolist() == [pairs.index((s.user_id, s.query_text)) for s in samples]


def test_rank_candidates_share_one_history():
    history = [("cat0 h", "cat1 h x"), ("cat2 h", "cat0 h x")]
    request = [md.sample_for_scoring(3, "cat0 d1", i, f"cat{i % 3} d{i}", history) for i in range(12)]
    assert all(s.history is history for s in request)
    cfg = tiny_config()
    idx = make_index(request, cfg.d)
    cache = md.TrainingCache(request, idx, cfg)
    assert cache.hist_start.tolist() == [0] * 12 and cache.hist_len.tolist() == [2] * 12
    assert cache.hist_q_rows.size == 2
    # the same scores as candidates that each hold a copy
    copies = [md.sample_for_scoring(3, "cat0 d1", i, f"cat{i % 3} d{i}", list(history))
              for i in range(12)]
    params = md.build_model(cfg)
    assert np.array_equal(md.score_dataset(params, request, idx), md.score_dataset(params, copies, idx))
