"""Ranking metrics and the ablation comparison runner.

AUC is computed by average ranks (ties between a positive and a negative
count half a pair, the Mann-Whitney convention) and must match the
brute-force pairwise definition exactly, not just approximately: both
numerators are half-integers far below 2^52, so the rank route and the
double loop produce the same float. GAUC averages per-user AUCs weighted
by each user's impression count, skipping users whose impressions are all
one class. The relevance score averages query-item cosines over the
top-10 ranked items of every (user, query) list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import open_text
from .encoder import EmbeddingIndex
from .errors import DatasetParseError, UndefinedMetricError, ValidationError
from .model import load_model, score_dataset

TOP_K = 10
COSINE_FLOOR = 1e-12


@dataclass
class ScoredImpression:
    user_id: int
    query_text: str
    item_text: str
    score: float
    click: int

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise ValidationError(f"score {self.score!r} is not finite")
        if self.click not in (0, 1):
            raise ValidationError(f"click {self.click!r} not binary")


@dataclass
class MetricReport:
    auc: float
    gauc: float
    relevance_score: float | None
    n_impressions: int
    per_user: dict[int, tuple[float, int]] = field(default_factory=dict)


def samples_to_impressions(samples, scores) -> list[ScoredImpression]:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(samples),):
        raise ValidationError("one score per sample required")
    return [
        ScoredImpression(s.user_id, s.query_text, s.item_text, float(v), s.click)
        for s, v in zip(samples, scores)
    ]


# ---------------------------------------------------------------------------
# AUC


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean rank of their block."""
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    # a block of equal scores spans sorted positions lo..hi
    first = np.ones(scores.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    lo = np.flatnonzero(first)
    hi = np.append(lo[1:], scores.size) - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = ((lo + hi) / 2.0 + 1.0)[np.cumsum(first) - 1]
    return ranks


def auc_scores(scores: np.ndarray, clicks: np.ndarray) -> float:
    """Rank-based AUC over parallel score/click arrays."""
    scores = np.asarray(scores, dtype=np.float64)
    clicks = np.asarray(clicks)
    if scores.ndim != 1 or scores.shape != clicks.shape:
        raise ValidationError("scores and clicks must be matching 1D")
    if not np.isfinite(scores).all():
        raise ValidationError("scores must be finite")
    pos = clicks == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both a positive and a negative")
    ranks = _average_ranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


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
    scores = np.array([im.score for im in impressions], dtype=np.float64)
    clicks = np.array([im.click for im in impressions])
    return auc_scores(scores, clicks)


# ---------------------------------------------------------------------------
# GAUC


def per_user_auc(impressions: list[ScoredImpression]) -> dict[int, tuple[float, int]]:
    """AUC and impression count per user, eligible users only."""
    by_user: dict[int, list[ScoredImpression]] = {}
    for im in impressions:
        by_user.setdefault(im.user_id, []).append(im)
    table: dict[int, tuple[float, int]] = {}
    for uid in sorted(by_user):
        rows = by_user[uid]
        clicks = {im.click for im in rows}
        if clicks != {0, 1}:
            continue  # single-class user: per-user AUC undefined, excluded
        table[uid] = (auc(rows), len(rows))
    return table


def _weighted_gauc(table: dict[int, tuple[float, int]]) -> float:
    if not table:
        raise UndefinedMetricError("GAUC: no user has both classes")
    if len(table) == 1:
        # the weighted mean of one value is that value, bit for bit
        return next(iter(table.values()))[0]
    num = sum(a * w for a, w in table.values())
    den = sum(w for _, w in table.values())
    return num / den


def gauc(impressions: list[ScoredImpression]) -> float:
    return _weighted_gauc(per_user_auc(impressions))


# ---------------------------------------------------------------------------
# RelaImpr


def rela_impr(auc_measured: float, auc_base: float) -> float:
    """Relative improvement over base, in percent of lift above random."""
    if auc_base == 0.5:
        raise UndefinedMetricError("RelaImpr undefined for a random-level base")
    return ((auc_measured - 0.5) / (auc_base - 0.5) - 1.0) * 100.0


# ---------------------------------------------------------------------------
# relevance score


def top_ranked(impressions: list[ScoredImpression], k: int = TOP_K):
    """Per-query list: top-k candidates by score, ties broken by item text."""
    lists: dict[str, list[ScoredImpression]] = {}
    for im in impressions:
        lists.setdefault(im.query_text, []).append(im)
    out = {}
    for key in sorted(lists):
        rows = sorted(lists[key], key=lambda im: (-im.score, im.item_text))
        out[key] = rows[:k]
    return out


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a)) * float(np.linalg.norm(b)), COSINE_FLOOR)
    return float(a @ b) / denom


def relevance_score(impressions: list[ScoredImpression], index: EmbeddingIndex) -> float:
    """Mean query-item cosine over the top-10 of every ranked list; lists
    shorter than 10 contribute what they have and shrink the denominator."""
    ranked = top_ranked(impressions)
    if not ranked:
        raise UndefinedMetricError("relevance score of an empty ranking set")
    total = 0.0
    count = 0
    for query_text, rows in ranked.items():
        q = index.lookup_text(query_text)
        for im in rows:
            total += _cosine(q, index.lookup_text(im.item_text))
            count += 1
    return total / count


# ---------------------------------------------------------------------------
# report and comparison


def evaluate_scores(
    impressions: list[ScoredImpression], index: EmbeddingIndex | None = None
) -> MetricReport:
    table = per_user_auc(impressions)
    return MetricReport(
        auc=auc(impressions),
        gauc=_weighted_gauc(table),
        relevance_score=relevance_score(impressions, index) if index is not None else None,
        n_impressions=len(impressions),
        per_user=table,
    )


COMPARISON_COLUMNS = ("variant", "auc", "rela_impr", "gauc", "relevance_score")


def run_comparison(
    variants: list[tuple[str, str]],
    samples,
    index: EmbeddingIndex,
    batch_size: int = 4096,
) -> list[dict]:
    """Score the split with each checkpoint; first row is the baseline."""
    if not variants:
        raise ValidationError("no variants to compare")
    rows: list[dict] = []
    base_auc = None
    for name, ckpt_path in variants:
        params, _ = load_model(ckpt_path)
        scores = score_dataset(params, samples, index, batch_size=batch_size)
        report = evaluate_scores(samples_to_impressions(samples, scores), index)
        if base_auc is None:
            base_auc = report.auc
        rows.append(
            {
                "variant": name,
                "auc": report.auc,
                "rela_impr": rela_impr(report.auc, base_auc),
                "gauc": report.gauc,
                "relevance_score": report.relevance_score,
                "n_impressions": report.n_impressions,
            }
        )
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
