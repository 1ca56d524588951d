import math

import numpy as np
import pytest

from rankfuse import autodiff as ad
from rankfuse import data as dt
from rankfuse import encoder as enc
from rankfuse import model as md
from rankfuse import training as tr
from rankfuse.checkpoint import params_digest
from rankfuse.encoder import PAIR_KEY_SEP, EmbeddingIndex
from rankfuse.errors import TrainingError, ValidationError


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


def small_model_config(**kw):
    defaults = dict(
        d=8,
        field_dim=4,
        user_buckets=64,
        item_buckets=128,
        category_buckets=16,
        token_buckets=128,
        base_hidden=(16,),
        rsl_hidden=(8,),
        incentive_hidden=(4,),
        seed=5,
    )
    defaults.update(kw)
    return md.ModelConfig(**defaults)


def small_corpus_cache(n_impressions=700, seed=9, mcfg=None):
    cfg = dt.GeneratorConfig(
        seed=seed, n_users=30, n_items=80, n_queries=40, n_impressions=n_impressions
    )
    samples, _ = dt.generate_corpus(cfg)
    mcfg = mcfg or small_model_config()
    index = make_index(samples, mcfg.d)
    return md.TrainingCache(samples, index, mcfg), mcfg


def zero_layers(layers):
    for layer in layers:
        layer.W.data[...] = 0.0
        layer.b.data[...] = 0.0


# ---------------------------------------------------------------------------
# pointwise risk


def test_ctr_risk_hand_value():
    # -(ln 0.8 + ln 0.7) / 2
    got = float(tr.ctr_risk(ad.Tensor(np.array([0.8, 0.3])), np.array([1, 0])).data)
    assert abs(got - 0.2899092476264711) < 1e-15


def test_ctr_risk_uniform_scores():
    got = float(tr.ctr_risk(ad.Tensor(np.full(16, 0.5)), np.zeros(16)).data)
    assert abs(got - math.log(2.0)) < 1e-15


def test_ctr_risk_rejects_boundary_scores():
    with pytest.raises(ValidationError):
        tr.ctr_risk(ad.Tensor(np.array([1.0, 0.5])), np.array([1, 0]))
    with pytest.raises(ValidationError):
        tr.ctr_risk(ad.Tensor(np.array([0.0, 0.5])), np.array([1, 0]))


def test_ctr_risk_shape_checks():
    with pytest.raises(ValidationError):
        tr.ctr_risk(ad.Tensor(np.array([0.5, 0.5])), np.array([1.0]))
    with pytest.raises(ValidationError):
        tr.ctr_risk(ad.Tensor(np.zeros(0)), np.zeros(0))


def test_ctr_risk_gradient_direction():
    # raising the score of a clicked impression lowers the risk
    p = ad.Parameter("s", np.array([0.6, 0.6]), "base")
    with ad.Tape() as tape:
        loss = tr.ctr_risk(ad.mul(p, 1.0), np.array([1, 0]))
    tape.backward(loss)
    assert p.grad[0] < 0 < p.grad[1]


# ---------------------------------------------------------------------------
# listwise labels and the consistency term


def test_listwise_label_values():
    # clicked impressions score alpha regardless of level; unclicked fall
    # back to the beta-weighted level
    y, rsl = np.array([1, 1, 0, 0]), np.array([1, 4, 3, 2])
    assert tr.listwise_labels(y, rsl, 4.0, 1.0).tolist() == [4.0, 4.0, 3.0, 2.0]
    assert tr.listwise_labels(y, rsl, 4.0, 0.5).tolist() == [4.0, 4.0, 1.5, 1.0]


def test_listwise_labels_vectorized_matches_scalar():
    rng = np.random.default_rng(4)
    y = rng.integers(0, 2, size=40)
    rsl = rng.integers(1, 5, size=40)
    vec = tr.listwise_labels(y, rsl, 4.0, 0.5)
    for i in range(40):
        assert vec[i] == (4.0 if y[i] == 1 else 0.5 * int(rsl[i]))


def test_regularizer_hand_value():
    # two items, scores tied, labels 4 and 1
    got = float(
        tr.consistency_regularizer(ad.Tensor(np.array([0.0, 0.0])), np.array([4.0, 1.0])).data
    )
    assert abs(got - 0.5022822094535032) < 1e-9


def test_regularizer_shift_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        scores = rng.normal(size=n)
        labels = rng.integers(1, 5, size=n).astype(np.float64)
        base = float(tr.consistency_regularizer(ad.Tensor(scores), labels).data)
        for c in (-3.0, 0.25, 11.0):
            shifted = float(
                tr.consistency_regularizer(ad.Tensor(scores + c), labels).data
            )
            assert abs(shifted - base) < 1e-12


def test_regularizer_prefers_agreeing_order():
    labels = np.array([4.0, 1.0])
    agree = float(tr.consistency_regularizer(ad.Tensor(np.array([0.8, 0.2])), labels).data)
    disagree = float(tr.consistency_regularizer(ad.Tensor(np.array([0.2, 0.8])), labels).data)
    assert disagree > agree


def test_regularizer_gradient_pushes_underrated_item_up():
    p = ad.Parameter("s", np.array([0.0, 0.0]), "base")
    with ad.Tape() as tape:
        reg = tr.consistency_regularizer(ad.mul(p, 1.0), np.array([4.0, 1.0]))
    tape.backward(reg)
    # item 0 deserves more mass: negative gradient raises its score under SGD
    assert p.grad[0] < 0 < p.grad[1]


def test_regularizer_validation():
    with pytest.raises(ValidationError):
        tr.consistency_regularizer(ad.Tensor(np.array([0.1])), np.array([4.0]))
    with pytest.raises(ValidationError):
        tr.consistency_regularizer(ad.Tensor(np.array([0.1, 0.2])), np.array([4.0]))


def test_grouped_regularizer_matches_mean_of_groups():
    scores = ad.Tensor(np.array([0.1, 0.9, 0.4, 0.2]))
    labels = np.array([4.0, 1.0, 2.0, 3.0])
    keys = np.array([0, 0, 1, 1])
    whole = float(tr.grouped_regularizer(scores, labels, keys).data)
    a = float(tr.consistency_regularizer(ad.Tensor(np.array([0.1, 0.9])), labels[:2]).data)
    b = float(tr.consistency_regularizer(ad.Tensor(np.array([0.4, 0.2])), labels[2:]).data)
    assert abs(whole - 0.5 * (a + b)) < 1e-15


def test_grouped_regularizer_skips_singletons():
    scores = ad.Tensor(np.array([0.1, 0.9, 0.4]))
    labels = np.array([4.0, 1.0, 2.0])
    keys = np.array([7, 7, 3])
    got = float(tr.grouped_regularizer(scores, labels, keys).data)
    pair = float(tr.consistency_regularizer(ad.Tensor(np.array([0.1, 0.9])), labels[:2]).data)
    assert abs(got - pair) < 1e-15
    # nothing but singletons: exactly zero
    alone = tr.grouped_regularizer(scores, labels, np.array([1, 2, 3]))
    assert float(alone.data) == 0.0


def test_grouped_regularizer_none_keys_is_whole_batch():
    scores = ad.Tensor(np.array([0.1, 0.9, 0.4]))
    labels = np.array([4.0, 1.0, 2.0])
    whole = float(tr.grouped_regularizer(scores, labels, None).data)
    direct = float(tr.consistency_regularizer(scores, labels).data)
    assert whole == direct


def test_grouped_regularizer_misaligned_keys():
    with pytest.raises(ValidationError):
        tr.grouped_regularizer(
            ad.Tensor(np.array([0.1, 0.9])), np.array([4.0, 1.0]), np.array([0, 0, 1])
        )


# ---------------------------------------------------------------------------
# stage-1 loss


def test_stage1_loss_uniform_start():
    # zeroed level head: uniform softmax over 4 levels, loss is ln 4
    samples = dt.generate_corpus(
        dt.GeneratorConfig(seed=3, n_users=10, n_items=40, n_queries=20, n_impressions=60)
    )[0]
    mcfg = small_model_config()
    cache = md.TrainingCache(samples, make_index(samples, mcfg.d), mcfg)
    params = md.build_model(mcfg)
    zero_layers(params.rsl_layers)
    loss = tr.stage1_loss(params, cache.batch(np.arange(cache.n)))
    assert abs(float(loss.data) - 1.3862943611198906) < 1e-9


# ---------------------------------------------------------------------------
# total risk


def test_total_risk_identity_and_report():
    cache, mcfg = small_corpus_cache(n_impressions=120)
    params = md.build_model(mcfg)
    cfg = tr.TrainConfig(batch_size=64, gamma=0.3)
    batch = cache.batch(np.arange(64))
    loss, report = tr.total_risk(batch, params, cfg, stage="stage2", epoch=2, batch_no=5)
    assert report.regularizer > 0
    assert abs(report.total - (report.ctr_risk + 0.3 * report.regularizer)) < 1e-12
    assert abs(float(loss.data) - report.total) < 1e-15
    assert report.stage == "stage2" and report.epoch == 2 and report.batch == 5


def test_total_risk_gamma_zero_skips_regularizer():
    cache, mcfg = small_corpus_cache(n_impressions=120)
    params = md.build_model(mcfg)
    batch = cache.batch(np.arange(64))
    loss, report = tr.total_risk(batch, params, tr.TrainConfig(batch_size=64, gamma=0.0))
    assert report.regularizer == 0.0
    assert float(loss.data) == report.ctr_risk == report.total


def test_total_risk_rejects_tiny_batch():
    cache, mcfg = small_corpus_cache(n_impressions=120)
    params = md.build_model(mcfg)
    with pytest.raises(ValidationError):
        tr.total_risk(cache.batch(np.array([0])), params, tr.TrainConfig(batch_size=64))


def test_total_risk_query_group_mode_uses_cache_keys():
    cache, mcfg = small_corpus_cache(n_impressions=300)
    params = md.build_model(mcfg)
    rows = np.arange(128)
    batch = cache.batch(rows)
    cfg = tr.TrainConfig(batch_size=128, grouping="query-group")
    loss, report = tr.total_risk(batch, params, cfg)
    out = md.score_batch(params, batch)
    labels = tr.listwise_labels(batch.y, batch.rsl, cfg.alpha, cfg.beta)
    direct = float(tr.grouped_regularizer(out["final"], labels, batch.group_keys).data)
    assert abs(report.regularizer - direct) < 1e-12


def test_group_keys_identify_user_query_lists():
    cache, _ = small_corpus_cache(n_impressions=300)
    samples, _ = dt.generate_corpus(
        dt.GeneratorConfig(seed=9, n_users=30, n_items=80, n_queries=40, n_impressions=300)
    )
    keys = cache.group_keys
    for i in range(0, 300, 7):
        for j in range(i + 1, min(i + 8, 300)):
            same = (samples[i].user_id, samples[i].query_text) == (
                samples[j].user_id,
                samples[j].query_text,
            )
            assert (keys[i] == keys[j]) == same


def test_total_risk_finite_difference():
    cfg = dt.GeneratorConfig(seed=9, n_users=30, n_items=80, n_queries=40, n_impressions=700)
    samples, _ = dt.generate_corpus(cfg)
    small = samples[:4]
    mcfg = small_model_config(base_hidden=(8,), seed=7)
    cache = md.TrainingCache(small, make_index(small, mcfg.d, seed=23), mcfg)
    params = md.build_model(mcfg)
    batch = cache.batch(np.arange(4))
    tcfg = tr.TrainConfig(batch_size=4)

    def loss_fn():
        loss, _ = tr.total_risk(batch, params, tcfg)
        return loss

    worst = ad.finite_difference_check(loss_fn, list(params.all_params().values()))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_step_is_exactly_lr_times_grad():
    p1 = ad.Parameter("a", np.zeros((3, 2)), "base")
    p2 = ad.Parameter("b", np.zeros(4), "rsl-finetune")
    g1 = np.arange(6, dtype=np.float64).reshape(3, 2) + 0.25
    g2 = np.array([1.0, -2.0, 0.5, 3.0])
    p1.grad[...] = g1
    p2.grad[...] = g2
    tr.sgd_step([p1, p2], {"base": 0.1, "rsl-finetune": 0.01})
    assert np.array_equal(p1.data, -(0.1 * g1))
    assert np.array_equal(p2.data, -(0.01 * g2))


def test_sgd_step_ignores_groups_without_rate():
    p = ad.Parameter("a", np.ones(3), "prim")
    p.grad[...] = 5.0
    tr.sgd_step([p], {"base": 0.1})
    assert np.array_equal(p.data, np.ones(3))


# ---------------------------------------------------------------------------
# stage 1


def test_pretrain_isolation_accuracy_and_trace():
    cache, mcfg = small_corpus_cache()
    params = md.build_model(mcfg)
    tcfg = tr.TrainConfig(
        batch_size=64,
        lr_stage1=0.05,
        lr_base=0.05,
        lr_rsl_finetune=0.005,
        lr_prim=0.05,
        stage1_epochs=30,
        stage2_epochs=0,
        seed=0,
    )
    frozen = {n: p for n, p in params.all_params().items() if p.group != "rsl-finetune"}
    before = params_digest(frozen)
    params, trace = tr.pretrain_rsl(cache, params, tcfg)
    # only the relevance-level group may move, bit for bit
    assert params_digest(frozen) == before
    assert all(r.stage == "stage1" and r.regularizer == 0.0 for r in trace)
    per_epoch = [np.mean([r.total for r in trace if r.epoch == e]) for e in range(30)]
    assert per_epoch[-1] < per_epoch[0] - 0.5
    majority = np.bincount(cache.rsl).max() / cache.n
    assert tr.rsl_accuracy(cache, params) > majority + 0.1


def test_pretrain_rejects_single_level():
    samples = dt.generate_corpus(
        dt.GeneratorConfig(seed=3, n_users=10, n_items=40, n_queries=20, n_impressions=80)
    )[0]
    level = samples[0].rsl
    for s in samples:
        s.rsl = level
    mcfg = small_model_config()
    cache = md.TrainingCache(samples, make_index(samples, mcfg.d), mcfg)
    with pytest.raises(TrainingError):
        tr.pretrain_rsl(cache, md.build_model(mcfg), tr.TrainConfig(batch_size=32))


def test_pretrain_zero_epochs_is_identity():
    cache, mcfg = small_corpus_cache(n_impressions=120)
    params = md.build_model(mcfg)
    before = params_digest(params.all_params())
    params, trace = tr.pretrain_rsl(cache, params, tr.TrainConfig(batch_size=64, stage1_epochs=0))
    assert trace == []
    assert params_digest(params.all_params()) == before


def test_pretrain_requires_level_module():
    cache, _ = small_corpus_cache(n_impressions=120, mcfg=small_model_config(variant="base-only"))
    params = md.build_model(small_model_config(variant="base-only"))
    with pytest.raises(ValidationError):
        tr.pretrain_rsl(cache, params, tr.TrainConfig(batch_size=64))


# ---------------------------------------------------------------------------
# stage 2 and the full schedule


def test_stage2_loss_decreases():
    cache, mcfg = small_corpus_cache()
    params = md.build_model(mcfg)
    tcfg = tr.TrainConfig(
        batch_size=64,
        lr_stage1=0.05,
        lr_base=0.05,
        lr_rsl_finetune=0.005,
        lr_prim=0.05,
        stage1_epochs=5,
        stage2_epochs=8,
        seed=0,
    )
    params, _ = tr.pretrain_rsl(cache, params, tcfg)
    params, trace = tr.train_stage2(cache, params, tcfg)
    per_epoch = [np.mean([r.total for r in trace if r.epoch == e]) for e in range(8)]
    assert per_epoch[-1] < per_epoch[0] - 0.05
    assert all(r.regularizer > 0 for r in trace)


def test_two_stage_determinism():
    cache, mcfg = small_corpus_cache(n_impressions=200)
    tcfg = tr.TrainConfig(batch_size=64, stage1_epochs=2, stage2_epochs=2, seed=12)
    digests = []
    for _ in range(2):
        params = md.build_model(mcfg)
        params, _ = tr.train_two_stage(cache, params, tcfg)
        digests.append(params_digest(params.all_params()))
    assert digests[0] == digests[1]


def test_two_stage_report_order_and_no_two_stage():
    cache, mcfg = small_corpus_cache(n_impressions=200)
    params = md.build_model(mcfg)
    tcfg = tr.TrainConfig(batch_size=64, stage1_epochs=2, stage2_epochs=2, seed=1)
    _, reports = tr.train_two_stage(cache, params, tcfg)
    stages = [r.stage for r in reports]
    assert "stage1" in stages and "stage2" in stages
    assert stages.index("stage2") > stages.index("stage1")
    # the one-stage ablation never touches the warm-up
    params2 = md.build_model(mcfg)
    flat = tr.TrainConfig(
        batch_size=64, stage1_epochs=2, stage2_epochs=2, seed=1, no_two_stage=True
    )
    _, reports2 = tr.train_two_stage(cache, params2, flat)
    assert all(r.stage == "stage2" for r in reports2)


def test_gamma_zero_training_reports_no_regularizer():
    cache, mcfg = small_corpus_cache(n_impressions=200)
    params = md.build_model(mcfg)
    tcfg = tr.TrainConfig(batch_size=64, stage1_epochs=1, stage2_epochs=2, seed=3, gamma=0.0)
    _, reports = tr.train_two_stage(cache, params, tcfg)
    assert all(r.regularizer == 0.0 for r in reports)
    assert all(r.total == r.ctr_risk for r in reports if r.stage == "stage2")


def test_non_finite_loss_aborts_with_context():
    cache, mcfg = small_corpus_cache(n_impressions=200)
    params = md.build_model(mcfg)
    params.base_layers[0].W.data[0, 0] = np.nan
    tcfg = tr.TrainConfig(batch_size=64, stage1_epochs=0, stage2_epochs=1, seed=0)
    with pytest.raises(TrainingError, match="non-finite"):
        tr.train_stage2(cache, params, tcfg)


def test_no_prim_variant_trains_and_keeps_tau_trivial():
    mcfg = small_model_config(variant="no-prim")
    cache, _ = small_corpus_cache(n_impressions=200, mcfg=mcfg)
    params = md.build_model(mcfg)
    tcfg = tr.TrainConfig(batch_size=64, stage1_epochs=1, stage2_epochs=1, seed=0)
    params, _ = tr.train_two_stage(cache, params, tcfg)
    out = md.score_batch(params, cache.batch(np.arange(64)))
    assert np.array_equal(out["tau"].data, np.ones(64))


def test_only_full_stage2_gathers_history_tensors(monkeypatch):
    # the [m, L, d] history tensors are built on first access; stage 1, the
    # accuracy pass and the variants without attention never touch them
    def refuse(batch):
        raise AssertionError("history tensor gathered")

    monkeypatch.setattr(md.Batch, "hist_q_emb", property(refuse))
    monkeypatch.setattr(md.Batch, "hist_r_emb", property(refuse))
    tcfg = tr.TrainConfig(batch_size=64, stage1_epochs=1, stage2_epochs=1, seed=0)
    cache, mcfg = small_corpus_cache(n_impressions=200)
    assert cache.batch(np.arange(64)).hist_rows.size > 0
    params, _ = tr.pretrain_rsl(cache, md.build_model(mcfg), tcfg)
    tr.rsl_accuracy(cache, params)
    for variant in ("no-prim", "base-only"):
        mcfg = small_model_config(variant=variant)
        cache, _ = small_corpus_cache(n_impressions=200, mcfg=mcfg)
        tr.train_stage2(cache, md.build_model(mcfg), tcfg)
    cache, mcfg = small_corpus_cache(n_impressions=200)
    with pytest.raises(AssertionError, match="history tensor gathered"):
        tr.train_stage2(cache, md.build_model(mcfg), tcfg)


# tape ops of one stage-2 step on a fixed corpus and batch; counts repeat
# exactly, so a change that adds ops to a step shows here, not only in timings
TAPE_OPS = {"full": 54, "no-prim": 36, "base-only": 28}


@pytest.mark.parametrize("variant", list(TAPE_OPS))
def test_tape_ops_per_step(variant):
    mcfg = small_model_config(variant=variant)
    cache, _ = small_corpus_cache(n_impressions=300, seed=3, mcfg=mcfg)
    batch = cache.batch(np.arange(64))
    assert batch.hist_rows.size > 0
    with ad.Tape() as tape:
        tr.total_risk(batch, md.build_model(mcfg), tr.TrainConfig(batch_size=64))
    assert len(tape) == TAPE_OPS[variant]


# token-table rows that one encoder SGD step updates, on a fixed 8-pair batch:
# its 11 distinct words plus [CLS] and [SEP], of the table's 4098 rows (a
# dense step writes all 4098)
ENCODER_STEP_ROWS = 13


def test_encoder_step_rows():
    pairs = [(f"query {i % 3}", f"red item {i}", i % 2) for i in range(8)]
    config = enc.EncoderConfig(batch_size=8, epochs=1)
    before = enc.init_encoder(config).token_table.data
    table = enc.pretrain_encoder(pairs, config)[0].token_table
    assert table.data.shape[0] == 4098
    assert table.rows.size == ENCODER_STEP_ROWS
    moved = np.flatnonzero((table.data != before).any(axis=1))
    assert np.array_equal(moved, table.rows)


def test_risk_report_line_round_trip():
    r = tr.RiskReport(stage="stage2", epoch=3, batch=17, ctr_risk=0.25, regularizer=0.5, total=0.4)
    fields = r.to_line().split("\t")
    assert len(fields) == 6
    assert fields[0] == "3" and fields[1] == "stage2" and fields[2] == "17"
    assert abs(float(fields[3]) - 0.25) < 1e-9
    assert abs(float(fields[4]) - 0.5) < 1e-9
    assert abs(float(fields[5]) - 0.4) < 1e-9
