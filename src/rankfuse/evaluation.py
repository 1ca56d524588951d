"""Ranking metrics and the ablation comparison runner, on a Dataset's
columns and one score per row.

AUC is computed by average ranks (ties between a positive and a negative
count half a pair, the Mann-Whitney convention) and must match the
brute-force pairwise definition exactly, not just approximately: both
numerators are half-integers far below 2^52, so the rank route and the
double loop produce the same float. GAUC averages per-user AUCs, ranked
within each user's rows, weighted by each user's impression count, skipping
users whose impressions are all one class. The relevance score averages
query-item cosines over the top-10 ranked items of every query text's list,
which merges the impressions of every user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, open_text
from .encoder import EmbeddingIndex
from .errors import DatasetParseError, UndefinedMetricError, ValidationError
from .kernels import distinct
from .model import load_model, score_dataset

TOP_K = 10
COSINE_FLOOR = 1e-12


@dataclass
class ScoredImpression:
    """One scored row, for the list forms `auc` and `gauc`."""

    user_id: int
    query_text: str
    item_text: str
    score: float
    click: int


@dataclass
class MetricReport:
    auc: float
    gauc: float
    relevance_score: float | None


def _checked(scores, clicks) -> tuple[np.ndarray, np.ndarray]:
    """Finite float64 scores and the mask of clicks, which must be 0 or 1."""
    scores = np.asarray(scores, dtype=np.float64)
    clicks = np.asarray(clicks)
    if scores.ndim != 1 or scores.shape != clicks.shape:
        raise ValidationError("scores and clicks must be matching 1D")
    if not np.isfinite(scores).all():
        raise ValidationError("scores must be finite")
    pos = clicks == 1
    if not (pos | (clicks == 0)).all():
        raise ValidationError("clicks must be 0 or 1")
    return scores, pos


def _starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values starts."""
    new = np.ones(ordered.size, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    return new


def _offsets(new: np.ndarray) -> np.ndarray:
    """Each position's distance from the start of its run."""
    at = np.arange(new.size)
    return at - np.maximum.accumulate(np.where(new, at, 0))


# ---------------------------------------------------------------------------
# AUC


def _average_ranks(scores: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """1-based ranks within each group, ties sharing the mean rank of their
    block."""
    order = np.lexsort((scores, groups))
    new_group = _starts(groups[order])
    first = new_group | _starts(scores[order])
    # a block of equal scores spans positions lo..hi of its group
    at = np.flatnonzero(first)
    lo = _offsets(new_group)[at]
    hi = lo + np.diff(np.append(at, scores.size)) - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = ((lo + hi) / 2.0 + 1.0)[np.cumsum(first) - 1]
    return ranks


def _group_aucs(scores: np.ndarray, pos: np.ndarray, groups: np.ndarray):
    """AUC and row count of each group that holds both classes, in group
    order. A rank sum adds half-integers, so it is exact."""
    ranks = _average_ranks(scores, groups)
    n = np.bincount(groups)
    n_pos = np.bincount(groups[pos], minlength=n.size)
    rank_sum = np.bincount(groups[pos], weights=ranks[pos], minlength=n.size)
    n_neg = n - n_pos
    both = (n_pos > 0) & (n_neg > 0)
    n, n_pos, n_neg = n[both], n_pos[both], n_neg[both]
    u = rank_sum[both] - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg), n


def _auc(scores: np.ndarray, pos: np.ndarray) -> float:
    aucs, _ = _group_aucs(scores, pos, np.zeros(scores.size, dtype=np.int64))
    if not aucs.size:
        raise UndefinedMetricError("AUC needs both a positive and a negative")
    return float(aucs[0])


def auc_scores(scores: np.ndarray, clicks: np.ndarray) -> float:
    """Rank-based AUC over parallel score/click arrays."""
    return _auc(*_checked(scores, clicks))


def auc_scores_brute_force(scores: np.ndarray, clicks: np.ndarray) -> float:
    """Pairwise definition: mean over positive-negative pairs of
    1[s_p > s_n] + 0.5 * 1[s_p == s_n]. Quadratic; the oracle."""
    scores = np.asarray(scores, dtype=np.float64)
    clicks = np.asarray(clicks)
    pos = scores[clicks == 1]
    neg = scores[clicks == 0]
    if pos.size == 0 or neg.size == 0:
        raise UndefinedMetricError("AUC needs both a positive and a negative")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (float(wins) + 0.5 * float(ties)) / (pos.size * neg.size)


def auc(impressions: list[ScoredImpression]) -> float:
    return auc_scores([im.score for im in impressions], [im.click for im in impressions])


# ---------------------------------------------------------------------------
# GAUC


def _gauc(scores: np.ndarray, pos: np.ndarray, users: np.ndarray) -> float:
    """Per-user AUCs weighted by impression count, in ascending user order."""
    aucs, counts = _group_aucs(scores, pos, distinct(users)[1])
    if not aucs.size:
        raise UndefinedMetricError("GAUC: no user has both classes")
    if aucs.size == 1:
        # the weighted mean of one value is that value, bit for bit
        return float(aucs[0])
    # summed left to right in user order: metrics.txt prints all 17 digits
    return sum((aucs * counts).tolist()) / int(counts.sum())


def gauc(impressions: list[ScoredImpression]) -> float:
    scores, pos = _checked([im.score for im in impressions], [im.click for im in impressions])
    return _gauc(scores, pos, np.array([im.user_id for im in impressions], dtype=np.int64))


# ---------------------------------------------------------------------------
# RelaImpr


def rela_impr(auc_measured: float, auc_base: float) -> float:
    """Relative improvement over base, in percent of lift above random."""
    if auc_base == 0.5:
        raise UndefinedMetricError("RelaImpr undefined for a random-level base")
    return ((auc_measured - 0.5) / (auc_base - 0.5) - 1.0) * 100.0


# ---------------------------------------------------------------------------
# relevance score


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a)) * float(np.linalg.norm(b)), COSINE_FLOOR)
    return float(a @ b) / denom


def relevance_score(ds: Dataset, scores: np.ndarray, index: EmbeddingIndex) -> float:
    """Mean query-item cosine over the top-10 of every query text's list:
    every row with that query, whichever user saw it, by score, ties by
    item text. Lists shorter than 10 contribute what they have and shrink
    the denominator. Cosines are added in query text order, then rank order."""
    texts, n = ds.texts, len(ds)
    if not n:
        raise UndefinedMetricError("relevance score of an empty ranking set")
    rank = ds.text_ranks()
    query = rank[ds.query_text_id]
    order = np.lexsort((rank[ds.item_text_id], -np.asarray(scores, dtype=np.float64), query))
    top = order[_offsets(_starts(query[order])) < TOP_K]
    # one cosine per distinct (query, item) pair of the top lists
    pairs, inverse = distinct(ds.query_text_id[top] * len(texts) + ds.item_text_id[top])
    q, i = np.divmod(pairs, len(texts))
    cosines = np.array([_cosine(index.lookup_text(texts[a]), index.lookup_text(texts[b]))
                        for a, b in zip(q.tolist(), i.tolist())])
    # summed left to right from 0.0 in that order: metrics.txt prints all 17 digits
    return float(np.cumsum(np.append(0.0, cosines[inverse]))[-1]) / top.size


# ---------------------------------------------------------------------------
# report and comparison


def evaluate_scores(ds: Dataset, scores, index: EmbeddingIndex | None = None) -> MetricReport:
    """Every metric of one score per row of ds; the relevance score only
    given an index."""
    scores, pos = _checked(scores, ds.click)
    return MetricReport(
        auc=_auc(scores, pos),
        gauc=_gauc(scores, pos, ds.user_id),
        relevance_score=None if index is None else relevance_score(ds, scores, index),
    )


COMPARISON_COLUMNS = ("variant", "auc", "rela_impr", "gauc", "relevance_score")


def run_comparison(variants: list[tuple[str, str]], samples, index: EmbeddingIndex,
                   batch_size: int = 4096) -> list[dict]:
    """Score the split with each checkpoint; first row is the baseline."""
    if not variants:
        raise ValidationError("no variants to compare")
    ds = Dataset.from_samples(samples)
    rows: list[dict] = []
    for name, ckpt_path in variants:
        params, _ = load_model(ckpt_path)
        report = evaluate_scores(ds, score_dataset(params, ds, index, batch_size=batch_size), index)
        base_auc = rows[0]["auc"] if rows else report.auc
        rows.append({"variant": name, "auc": report.auc,
                     "rela_impr": rela_impr(report.auc, base_auc), "gauc": report.gauc,
                     "relevance_score": report.relevance_score})
    return rows


def format_comparison(rows: list[dict]) -> str:
    """Tab-separated table, one variant per line, fixed column order."""
    lines = ["\t".join(COMPARISON_COLUMNS)]
    for r in rows:
        lines.append(
            f"{r['variant']}\t{r['auc']:.6f}\t{r['rela_impr']:+.2f}%"
            f"\t{r['gauc']:.6f}\t{r['relevance_score']:.6f}"
        )
    return "\n".join(lines)


def metric_lines(rows: list[dict]) -> list[str]:
    """Machine-readable metric\tvalue lines for every variant."""
    out = []
    for r in rows:
        prefix = r["variant"]
        out.append(f"{prefix}.auc\t{r['auc']:.17g}")
        out.append(f"{prefix}.rela_impr\t{r['rela_impr']:.17g}")
        out.append(f"{prefix}.gauc\t{r['gauc']:.17g}")
        out.append(f"{prefix}.relevance_score\t{r['relevance_score']:.17g}")
    return out


def read_metrics_file(path) -> dict[str, float]:
    """Parse a metric\tvalue file back into a name -> value map; every error
    is a DatasetParseError naming the file."""
    out: dict[str, float] = {}
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DatasetParseError(line_no, "expected name\\tvalue")
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                raise DatasetParseError(line_no, f"bad metric value {parts[1]!r}") from None
    return out
