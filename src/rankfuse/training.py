"""Two-stage optimization for the fusion ranker.

Stage 1 warms up the relevance-level module alone as a 4-class classifier
over the labeled levels. Stage 2 trains everything on the pointwise click
cross-entropy plus an optional listwise consistency term, with the
relevance-level group stepped at a much smaller rate so the warm start is
fine-tuned rather than overwritten. Both run in `autodiff.sgd_loop`, the one
training loop, as the encoder's two stages do.

The consistency term synthesizes a priority label per impression,
alpha*y + beta*(1-y)*rsl, and penalizes the KL divergence between the
softmax of those priorities and the softmax of the model scores over each
group (whole batch by default). Labels are constants: gradients flow into
scores only. gamma == 0 skips the term entirely, so a zeroed weight and a
disabled regularizer run byte-identical code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import sgd_step  # noqa: F401 - re-exported: the step of both stages
from .checkpoint import NONNEGATIVE, POSITIVE, check_fields, integers, one_of, setting
from .errors import TrainingError, ValidationError
from .model import ModelParams, TrainingCache, rsl_logits_batch, score_batch

GROUPINGS = ("batch", "query-group")


@dataclass
class TrainConfig:
    batch_size: int = setting(4096, integers(2))
    lr_stage1: float = setting(1e-4, POSITIVE)
    lr_base: float = setting(1e-4, POSITIVE)
    lr_rsl_finetune: float = setting(1e-5, POSITIVE)
    lr_prim: float = setting(1e-4, POSITIVE)
    alpha: float = setting(4.0, NONNEGATIVE)
    beta: float = setting(1.0, NONNEGATIVE)
    gamma: float = setting(0.3, NONNEGATIVE)
    stage1_epochs: int = setting(5, integers(0))
    stage2_epochs: int = setting(10, integers(0))
    seed: int = setting(0, integers(0))
    grouping: str = setting("batch", one_of(GROUPINGS))
    no_two_stage: bool = setting(False, one_of((False, True)), key=None)  # set by train's flag

    __post_init__ = check_fields


@dataclass
class RiskReport:
    stage: str
    epoch: int
    batch: int
    ctr_risk: float
    regularizer: float
    total: float

    def to_line(self) -> str:
        return (
            f"{self.epoch}\t{self.stage}\t{self.batch}"
            f"\t{self.ctr_risk:.10f}\t{self.regularizer:.10f}\t{self.total:.10f}"
        )


# ---------------------------------------------------------------------------
# loss pieces


def ctr_risk(final_scores: ad.Tensor, clicks: np.ndarray) -> ad.Tensor:
    """Pointwise click cross-entropy; scores must already sit inside (0,1)."""
    scores = final_scores if isinstance(final_scores, ad.Tensor) else ad.Tensor(final_scores)
    y = np.asarray(clicks, dtype=np.float64)
    if scores.data.ndim != 1 or scores.data.shape != y.shape:
        raise ValidationError("scores and clicks must be matching 1D")
    if y.size == 0:
        raise ValidationError("empty batch")
    if np.any(scores.data <= 0.0) or np.any(scores.data >= 1.0):
        raise ValidationError("scores must lie strictly inside (0,1); clamp upstream")
    term = ad.add(
        ad.mul(ad.Tensor(y), ad.log(scores)),
        ad.mul(ad.Tensor(1.0 - y), ad.log(ad.add(ad.mul(scores, -1.0), 1.0))),
    )
    return ad.mul(ad.tmean(term), -1.0)


def listwise_labels(y: np.ndarray, rsl: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Priority of each impression for the listwise view: clicks dominate at
    alpha, unclicked items fall back to beta-scaled relevance level."""
    y = np.asarray(y, dtype=np.float64)
    rsl = np.asarray(rsl, dtype=np.float64)
    return alpha * y + beta * (1.0 - y) * rsl


def consistency_regularizer(final_scores: ad.Tensor, labels: np.ndarray) -> ad.Tensor:
    """KL(softmax(labels) || softmax(scores)) over one group; labels constant."""
    scores = final_scores if isinstance(final_scores, ad.Tensor) else ad.Tensor(final_scores)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.data.ndim != 1 or labels.shape != scores.data.shape:
        raise ValidationError("scores and labels must be matching 1D")
    if labels.size < 2:
        raise ValidationError("consistency regularizer needs at least 2 items")
    p = ad.np_softmax(labels)
    return ad.kl_divergence(ad.Tensor(p), ad.softmax(scores))


def grouped_regularizer(
    final_scores: ad.Tensor, labels: np.ndarray, group_keys: np.ndarray | None
) -> ad.Tensor:
    """Mean regularizer over listwise groups; `None` keys mean one batch-wide
    group. Groups with fewer than 2 impressions carry no signal and are
    skipped; all-singleton batches contribute exactly 0."""
    if group_keys is None:
        return consistency_regularizer(final_scores, labels)
    keys = np.asarray(group_keys)
    if keys.shape != final_scores.data.shape:
        raise ValidationError("group keys must align with scores")
    terms = []
    for key in kernels.distinct(keys)[0]:
        rows = np.nonzero(keys == key)[0]
        if rows.size < 2:
            continue
        terms.append(consistency_regularizer(ad.select_rows(final_scores, rows), labels[rows]))
    if not terms:
        return ad.Tensor(np.zeros(()))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.mul(total, 1.0 / len(terms))


def stage1_loss(params: ModelParams, batch) -> ad.Tensor:
    """Multi-class cross-entropy of the relevance-level head on rsl labels."""
    logp = ad.log_softmax(rsl_logits_batch(params, batch))
    return ad.mul(ad.tmean(ad.select_columns(logp, batch.rsl - 1)), -1.0)


def total_risk(batch, params: ModelParams, config: TrainConfig, *, stage="stage2", epoch=0, batch_no=0):
    """Stage-2 objective on one batch: returns (loss tensor, RiskReport)."""
    if batch.size < 2:
        raise ValidationError("stage-2 batches need at least 2 impressions")
    out = score_batch(params, batch)
    risk = ctr_risk(out["final"], batch.y)
    if config.gamma == 0.0:
        loss = risk
        reg_val = 0.0
    elif not np.isfinite(out["final"].data).all():
        # kl_divergence refuses non-finite scores; a NaN regularizer keeps the
        # loss NaN, so the caller's finite check aborts with the batch's context
        loss = ad.mul(risk, np.nan)
        reg_val = np.nan
    else:
        labels = listwise_labels(batch.y, batch.rsl, config.alpha, config.beta)
        keys = batch.group_keys if config.grouping == "query-group" else None
        reg = grouped_regularizer(out["final"], labels, keys)
        loss = ad.add(risk, ad.mul(reg, config.gamma))
        reg_val = float(reg.data)
    report = RiskReport(
        stage=stage,
        epoch=epoch,
        batch=batch_no,
        ctr_risk=float(risk.data),
        regularizer=reg_val,
        total=float(loss.data),
    )
    return loss, report


# ---------------------------------------------------------------------------
# stages


def pretrain_rsl(
    cache: TrainingCache, params: ModelParams, config: TrainConfig
) -> tuple[ModelParams, list[RiskReport]]:
    """Stage 1: warm up the relevance-level group only; everything else is
    untouched (bit-identical, not merely unchanged in expectation)."""
    if params.rsl_layers is None:
        raise ValidationError("variant has no relevance-level module to pretrain")
    levels = kernels.distinct(cache.rsl)[0]
    if levels.size < 2:
        raise TrainingError("relevance pretraining needs at least 2 distinct levels")
    trainable = [p for layer in params.rsl_layers for p in layer.params()]

    def loss(batch, rows, epoch, batch_no):
        value = stage1_loss(params, batch)
        return value, RiskReport("stage1", epoch, batch_no, float(value.data), 0.0, float(value.data))

    reports = ad.sgd_loop(cache.n, config.batch_size, config.stage1_epochs,
                          np.random.default_rng(config.seed + 1), trainable,
                          {"rsl-finetune": config.lr_stage1}, "stage1", cache.batch, loss)
    return params, reports


def train_stage2(
    cache: TrainingCache, params: ModelParams, config: TrainConfig
) -> tuple[ModelParams, list[RiskReport]]:
    """Joint training on the full objective with per-group rates."""
    rsl_rate = config.lr_base if config.no_two_stage else config.lr_rsl_finetune
    rates = {"base": config.lr_base, "rsl-finetune": rsl_rate, "prim": config.lr_prim}

    def loss(batch, rows, epoch, batch_no):
        return total_risk(batch, params, config, stage="stage2", epoch=epoch, batch_no=batch_no)

    # min_batch=2: the listwise term is undefined on singletons
    reports = ad.sgd_loop(cache.n, config.batch_size, config.stage2_epochs,
                          np.random.default_rng(config.seed + 2), list(params.all_params().values()),
                          rates, "stage2", cache.batch, loss, min_batch=2)
    return params, reports


def train_two_stage(
    cache: TrainingCache, params: ModelParams, config: TrainConfig
) -> tuple[ModelParams, list[RiskReport]]:
    """Stage 1 (unless disabled or absent) followed by Stage 2."""
    reports: list[RiskReport] = []
    if not config.no_two_stage and params.rsl_layers is not None:
        params, stage1 = pretrain_rsl(cache, params, config)
        reports.extend(stage1)
    params, stage2 = train_stage2(cache, params, config)
    reports.extend(stage2)
    return params, reports


def rsl_accuracy(cache: TrainingCache, params: ModelParams, batch_size: int = 4096) -> float:
    """Argmax accuracy of the relevance-level head over a cached dataset."""
    hits = 0
    for lo in range(0, cache.n, batch_size):
        rows = np.arange(lo, min(lo + batch_size, cache.n), dtype=np.int64)
        batch = cache.batch(rows)
        pred = np.argmax(rsl_logits_batch(params, batch).data, axis=-1) + 1
        hits += int((pred == batch.rsl).sum())
    return hits / cache.n
