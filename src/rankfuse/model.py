"""Fusion ranking network.

Three cooperating parts produce a personalized click score:

* a base module emitting one conditional click probability per relevance
  level (independent sigmoid heads) from the id/token field embeddings,
  the relevance flags and the query-item pair embedding (the base-only
  ablation reads the field embeddings alone),
* a relevance-level module emitting a distribution over the four levels
  (softmax head) from relevance flags plus frozen text embeddings,
* a preference-incentive module that attends over the user's clicked
  history and rescales the fused score by tau in (0,2).

The fused score is the dot product of the first two outputs; the final
score is clamp(tau * fused) so it stays a valid Bernoulli parameter.
Text/pair embeddings always come from the static index (they are model
inputs, never trained here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import kernels
from .checkpoint import check_fields, integers, one_of, setting
from .data import Dataset, Sample, derive_flags
from .encoder import EmbeddingIndex, token_id, tokenize
from .errors import DatasetParseError, DimensionError, ValidationError

SCORE_EPS = 1e-7
SCORE_BATCH = 4096  # rows per score_batch call when scoring without a tape
VARIANTS = ("full", "no-prim", "base-only")
N_LEVELS = 4
FIELD_NAMES = ("user", "item", "query_category", "item_category", "query_tokens", "item_tokens")


@dataclass
class ModelConfig:
    variant: str = setting("full", one_of(VARIANTS), key=None)  # set by train's flags
    d: int = setting(32, integers(1))
    field_dim: int = setting(16, integers(1))
    user_buckets: int = setting(1024, integers(1))
    item_buckets: int = setting(4096, integers(1))
    category_buckets: int = setting(64, integers(1))
    token_buckets: int = setting(512, integers(1))
    base_hidden: tuple[int, ...] = setting((64, 32), integers(1))
    rsl_hidden: tuple[int, ...] = setting((32,), integers(1))
    incentive_hidden: tuple[int, ...] = setting((16,), integers(1))
    seed: int = setting(0, integers(0))

    def __post_init__(self):
        for name in ("base_hidden", "rsl_hidden", "incentive_hidden"):
            setattr(self, name, tuple(int(v) for v in getattr(self, name)))
        check_fields(self)


# ---------------------------------------------------------------------------
# feature extraction (hashing trick over ids and tokens)


def category_slot(tokens: list[str], config: ModelConfig) -> int:
    """The category bucket of a tokenized text: its first token's, 0 if none."""
    if not tokens:
        return 0
    return token_id(tokens[0], config.category_buckets)


def token_slots(tokens: list[str], config: ModelConfig) -> list[int]:
    """Sorted unique token buckets of a tokenized text: a multi-hot id set."""
    return sorted({token_id(t, config.token_buckets) for t in tokens})


# ---------------------------------------------------------------------------
# parameters


@dataclass
class AttentionParams:
    w_q: ad.Parameter
    w_k: ad.Parameter
    w_v: ad.Parameter

    def __post_init__(self):
        d = self.w_q.data.shape[0]
        for w in (self.w_q, self.w_k, self.w_v):
            if w.data.shape != (d, d):
                raise DimensionError("attention projections must be square and equal-sized")

    def params(self) -> list[ad.Parameter]:
        return [self.w_q, self.w_k, self.w_v]


@dataclass
class ModelParams:
    config: ModelConfig
    embeddings: dict[str, ad.Parameter]
    base_layers: list[ad.DenseLayer]
    rsl_layers: list[ad.DenseLayer] | None = None
    attention: AttentionParams | None = None
    incentive_layers: list[ad.DenseLayer] | None = None

    def all_params(self) -> dict[str, ad.Parameter]:
        parts = [*self.base_layers, *(self.rsl_layers or ()), self.attention,
                 *(self.incentive_layers or ())]
        params = [*self.embeddings.values(),
                  *(p for part in parts if part is not None for p in part.params())]
        return {p.name: p for p in params}

    def by_group(self) -> dict[str, list[ad.Parameter]]:
        groups: dict[str, list[ad.Parameter]] = {}
        for p in self.all_params().values():
            groups.setdefault(p.group, []).append(p)
        return groups


def _mlp(rng, dims: tuple[int, ...], prefix: str, group: str):
    layers = []
    for i, (fi, fo) in enumerate(zip(dims[:-1], dims[1:])):
        act = "relu" if i < len(dims) - 2 else "linear"
        layers.append(ad.dense_layer(rng, fi, fo, act, f"{prefix}.{i}", group))
    return layers


def base_input_dim(config: ModelConfig) -> int:
    n = len(FIELD_NAMES) * config.field_dim
    if config.variant == "base-only":
        return n
    return n + 2 + config.d  # relevance flags, pair embedding


def build_model(config: ModelConfig, draw: bool = True) -> ModelParams:
    """Deterministic seeded initialization of every parameter group; with
    draw=False, zeros of the same shapes and groups."""
    rng = np.random.default_rng(config.seed) if draw else ad.NoDraws()
    sizes = {
        "user": config.user_buckets,
        "item": config.item_buckets,
        "query_category": config.category_buckets,
        "item_category": config.category_buckets,
        "query_tokens": config.token_buckets,
        "item_tokens": config.token_buckets,
    }
    embeddings = {
        name: ad.Parameter(f"emb.{name}", rng.normal(0.0, 0.1, size=(sizes[name], config.field_dim)), "base")
        for name in FIELD_NAMES
    }
    n_heads = 1 if config.variant == "base-only" else N_LEVELS
    base_layers = _mlp(rng, (base_input_dim(config),) + config.base_hidden + (n_heads,), "base", "base")
    params = ModelParams(config=config, embeddings=embeddings, base_layers=base_layers)
    if config.variant == "base-only":
        return params
    params.rsl_layers = _mlp(rng, (2 + 3 * config.d,) + config.rsl_hidden + (N_LEVELS,), "rsl", "rsl-finetune")
    scale = 1.0 / np.sqrt(config.d)
    params.attention = AttentionParams(
        ad.Parameter("attn.w_q", rng.normal(0.0, scale, size=(config.d, config.d)), "prim"),
        ad.Parameter("attn.w_k", rng.normal(0.0, scale, size=(config.d, config.d)), "prim"),
        ad.Parameter("attn.w_v", rng.normal(0.0, scale, size=(config.d, config.d)), "prim"),
    )
    params.incentive_layers = _mlp(rng, (2 * config.d,) + config.incentive_hidden + (1,), "incentive", "prim")
    return params


def save_model(params: ModelParams, path: str, extra_meta: dict[str, str] | None = None) -> None:
    from .checkpoint import config_meta, save_params

    meta = config_meta(params.config)
    if extra_meta:
        meta.update(extra_meta)
    save_params(path, params.all_params(), meta)


def load_model(path: str) -> tuple[ModelParams, dict[str, str]]:
    """Rebuild a ModelParams from a checkpoint; shapes are re-validated."""
    from .checkpoint import config_from_meta, fill_params, load_params

    loaded, meta = load_params(path, rerun="rankfuse train")
    # a multi-head model's d x d weights would load and score as one head
    if meta.get("head_count", "1") != "1":
        raise DatasetParseError(None, f"{path}: head_count={meta['head_count']}; only one attention head is supported")
    params = build_model(config_from_meta(path, meta, ModelConfig, "a model"), draw=False)
    fill_params(path, params.all_params(), loaded)
    return params, meta


# ---------------------------------------------------------------------------
# batches


@dataclass
class Batch:
    size: int
    user_ids: np.ndarray
    item_ids: np.ndarray
    qcat_ids: np.ndarray
    icat_ids: np.ndarray
    qtok_flat: np.ndarray
    qtok_off: np.ndarray
    itok_flat: np.ndarray
    itok_off: np.ndarray
    flags: np.ndarray
    qtext_emb: np.ndarray
    itext_emb: np.ndarray
    pair_emb: np.ndarray
    y: np.ndarray
    rsl: np.ndarray
    group_keys: np.ndarray
    hist_rows: np.ndarray
    hist_mask: np.ndarray
    # [m, L] positions in the cache's click arrays, 0 in padding
    hist_slots: np.ndarray
    cache: "TrainingCache" = field(repr=False)

    # Only the full variant's attention reads the two [m, L, d] history
    # tensors, so they are gathered on first access.
    @cached_property
    def hist_q_emb(self) -> np.ndarray:
        """Text embeddings of each history entry's query, [m, L, d]."""
        return self.cache.text_mat[self.cache.hist_q_rows[self.hist_slots]]

    @cached_property
    def hist_r_emb(self) -> np.ndarray:
        """Pair embeddings of each history entry, [m, L, d]."""
        return self.cache.pair_mat[self.cache.hist_r_rows[self.hist_slots]]


class TrainingCache:
    """Precomputed ids and frozen embeddings for repeated batch slicing.

    Built from a Dataset's columns; any other sequence of Samples is first
    turned into one (Dataset.from_samples). Slots, token bags and embedding
    rows are computed once per distinct text, history rows once per click of
    the dataset's click table, and per-row arrays are gathered from them,
    with no Python loop over rows and no history hashed. Unique texts and
    pairs are looked up in sorted order, so encoder fallbacks are
    deterministic. A row's history is its window of the click table; a
    batch pads its windows' positions and gathers their embeddings only
    when read.
    """

    def __init__(self, samples, index: EmbeddingIndex, config: ModelConfig):
        ds = Dataset.from_samples(samples)
        if not len(ds):
            raise ValidationError("no samples to cache")
        if index.dim != config.d:
            raise DimensionError(f"index dim {index.dim} != model d {config.d}")
        self.config = config
        self.n = len(ds)
        texts, n_texts = ds.texts, len(ds.texts)

        # row r's history is the window of hist_len[r] clicks from hist_start[r]
        self.hist_start, self.hist_len = ds.history_start, ds.history_len
        entry_q, entry_i = ds.entry_query[ds.clicks], ds.entry_item[ds.clicks]

        # a text's rank in sorted order; rank(q) * n_texts + rank(i) sorts
        # pairs as their (query, item) tuples sort
        rank = ds.text_ranks()
        order = np.argsort(rank)
        looked_up = np.zeros(n_texts, dtype=bool)
        looked_up[ds.query_text_id] = looked_up[ds.item_text_id] = looked_up[entry_q] = True
        text_ids = order[looked_up[order]]
        text_row = np.full(n_texts, -1, dtype=np.int64)
        text_row[text_ids] = np.arange(text_ids.size)
        pair_keys, pair_row = kernels.distinct(np.concatenate([
            rank[ds.query_text_id] * n_texts + rank[ds.item_text_id],
            rank[entry_q] * n_texts + rank[entry_i],
        ]))
        text_list = [texts[t] for t in text_ids.tolist()]
        pair_list = [(texts[q], texts[i]) for q, i in zip(order[pair_keys // n_texts].tolist(),
                                                           order[pair_keys % n_texts].tolist())]
        index.encode_missing(text_list, pair_list)
        self.text_mat = np.stack([index.lookup_text(t) for t in text_list])
        self.pair_mat = np.stack([index.lookup_pair(q, i) for q, i in pair_list])
        self.qtext_rows = text_row[ds.query_text_id]
        self.itext_rows = text_row[ds.item_text_id]
        self.pair_rows = pair_row[: self.n]
        self.hist_q_rows = text_row[entry_q]
        self.hist_r_rows = pair_row[self.n :]

        # category slot and token bag of each distinct row text, in sorted order
        in_rows = np.zeros(n_texts, dtype=bool)
        in_rows[ds.query_text_id] = in_rows[ds.item_text_id] = True
        row_texts = order[in_rows[order]]
        bag = np.zeros(n_texts, dtype=np.int64)
        bag[row_texts] = np.arange(row_texts.size)
        words = [tokenize(texts[t]) for t in row_texts.tolist()]
        category = np.array([category_slot(w, config) for w in words], dtype=np.int64)
        self.tok_flat, self.tok_off = kernels.ragged([token_slots(w, config) for w in words])
        self.qbag, self.ibag = bag[ds.query_text_id], bag[ds.item_text_id]
        self.qcat_ids, self.icat_ids = category[self.qbag], category[self.ibag]

        self.user_ids = ds.user_id % config.user_buckets
        self.item_ids = ds.item_id % config.item_buckets
        self.flags = np.stack([ds.category_match, ds.contains_query], axis=1).astype(np.float64)
        self.y = ds.click.astype(np.float64)
        self.rsl = ds.rsl.copy()
        # listwise grouping: impressions sharing (user, query) form one list,
        # numbered in (user, query text) order; users are densified first so
        # that the combined key cannot overflow int64
        user_rank = kernels.distinct(ds.user_id)[1]
        self.group_keys = kernels.distinct(user_rank * n_texts + rank[ds.query_text_id])[1]

    def batch(self, rows: np.ndarray) -> Batch:
        rows = np.asarray(rows, dtype=np.int64)
        qtok_flat, qtok_off = kernels.gather_segments(self.tok_flat, self.tok_off, self.qbag[rows])
        itok_flat, itok_off = kernels.gather_segments(self.tok_flat, self.tok_off, self.ibag[rows])

        lengths = self.hist_len[rows]
        hist_rows = np.flatnonzero(lengths)
        lengths = lengths[hist_rows]
        flat, off = kernels.segment_positions(self.hist_start[rows[hist_rows]], lengths)
        slots, mask = kernels.pad_segments(flat, off, int(lengths.max(initial=0)))

        return Batch(
            size=rows.size,
            user_ids=self.user_ids[rows],
            item_ids=self.item_ids[rows],
            qcat_ids=self.qcat_ids[rows],
            icat_ids=self.icat_ids[rows],
            qtok_flat=qtok_flat,
            qtok_off=qtok_off,
            itok_flat=itok_flat,
            itok_off=itok_off,
            flags=self.flags[rows],
            qtext_emb=self.text_mat[self.qtext_rows[rows]],
            itext_emb=self.text_mat[self.itext_rows[rows]],
            pair_emb=self.pair_mat[self.pair_rows[rows]],
            y=self.y[rows],
            rsl=self.rsl[rows],
            group_keys=self.group_keys[rows],
            hist_rows=hist_rows,
            hist_mask=mask,
            hist_slots=slots,
            cache=self,
        )


# ---------------------------------------------------------------------------
# forward passes (batched, tape-aware)


def field_embeddings(params: ModelParams, batch: Batch) -> ad.Tensor:
    e = params.embeddings
    parts = [
        ad.embedding(e["user"], batch.user_ids),
        ad.embedding(e["item"], batch.item_ids),
        ad.embedding(e["query_category"], batch.qcat_ids),
        ad.embedding(e["item_category"], batch.icat_ids),
        ad.embedding_bag_mean(e["query_tokens"], batch.qtok_flat, batch.qtok_off),
        ad.embedding_bag_mean(e["item_tokens"], batch.itok_flat, batch.itok_off),
    ]
    return ad.concat(parts, axis=-1)


def _base_input(params: ModelParams, batch: Batch) -> ad.Tensor:
    fields = field_embeddings(params, batch)
    if params.config.variant == "base-only":
        return fields
    return ad.concat([fields, ad.Tensor(batch.flags), ad.Tensor(batch.pair_emb)], axis=-1)


def base_logits_batch(params: ModelParams, batch: Batch) -> ad.Tensor:
    return ad.mlp_apply(params.base_layers, _base_input(params, batch))


def base_forward_batch(params: ModelParams, batch: Batch) -> ad.Tensor:
    """Per-level conditional click probabilities, each an independent sigmoid."""
    return ad.sigmoid(base_logits_batch(params, batch))


def rsl_logits_batch(params: ModelParams, batch: Batch) -> ad.Tensor:
    if params.rsl_layers is None:
        raise ValidationError("variant has no relevance-level module")
    x = ad.concat(
        [
            ad.Tensor(batch.flags),
            ad.Tensor(batch.qtext_emb),
            ad.Tensor(batch.itext_emb),
            ad.Tensor(batch.pair_emb),
        ],
        axis=-1,
    )
    return ad.mlp_apply(params.rsl_layers, x)


def rsl_forward_batch(params: ModelParams, batch: Batch) -> ad.Tensor:
    """Distribution over the four relevance levels (softmax head)."""
    return ad.softmax(rsl_logits_batch(params, batch))


def _attention_softmax(
    attn: AttentionParams,
    q_cur: np.ndarray,
    hist_q: np.ndarray,
    mask: np.ndarray,
) -> ad.Tensor:
    """Attention weights [B, L], scored in embedding space: the score of
    slot l is (q W_k^T) . x_q[l] / sqrt(d), which equals q . (x_q[l] W_k) /
    sqrt(d) without projecting any slot."""
    if hist_q.shape[0] == 0:
        raise ValidationError("attention needs at least one history entry")
    q_keys = ad.matmul_t(ad.matmul(ad.Tensor(q_cur), attn.w_q), attn.w_k)  # [B, d]
    scores = ad.mul(ad.attn_scores(q_keys, hist_q), 1.0 / np.sqrt(hist_q.shape[2]))
    return ad.softmax(scores, mask=mask)


def attention_expectation(
    attn: AttentionParams,
    q_cur: np.ndarray,
    hist_q: np.ndarray,
    hist_r: np.ndarray,
    mask: np.ndarray,
) -> ad.Tensor:
    """Target attention over history: softmax(QK^T/sqrt(d)) mixing projected
    relevance embeddings. Returns [B, d].

    It mixes the raw relevance embeddings first and projects the mix after,
    (sum_l w_l x_r[l]) W_v, so no [B, L, d] array is projected or carries a
    gradient, and a one-entry history gives x_r W_v bit for bit."""
    weights = _attention_softmax(attn, q_cur, hist_q, mask)
    return ad.matmul(ad.attn_mix(weights, hist_r), attn.w_v)


def attention_weights(
    attn: AttentionParams,
    q_cur: np.ndarray,
    hist_q: np.ndarray,
    hist_r: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Attention distribution per row over history slots, [B, 1, L], so
    that a [B, 1, L] view of the mask lines up with it. Masked slots carry
    exactly zero weight. hist_r does not enter the weights; it stays in the
    signature, which matches attention_expectation's."""
    return _attention_softmax(attn, q_cur, hist_q, mask).data[:, None, :]


def prim_tau_batch(params: ModelParams, batch: Batch) -> ad.Tensor:
    """tau per sample; rows with empty history get exactly 1."""
    if params.attention is None or params.incentive_layers is None:
        raise ValidationError("variant has no preference-incentive module")
    if batch.hist_rows.size == 0:
        return ad.Tensor(np.ones(batch.size))
    q_cur = batch.qtext_emb[batch.hist_rows]
    r_cur = batch.pair_emb[batch.hist_rows]
    r_expect = attention_expectation(
        params.attention, q_cur, batch.hist_q_emb, batch.hist_r_emb, batch.hist_mask
    )
    z = ad.mlp_apply(
        params.incentive_layers, ad.concat([ad.Tensor(r_cur), r_expect], axis=-1)
    )
    tau_sub = ad.mul(ad.sigmoid(ad.reshape(z, (batch.hist_rows.size,))), 2.0)
    return ad.row_scatter(tau_sub, batch.hist_rows, batch.size, fill=1.0)


def score_batch(params: ModelParams, batch: Batch) -> dict[str, ad.Tensor]:
    """All score components; 'final' is always present and clamp-bounded."""
    variant = params.config.variant
    if variant == "base-only":
        p = ad.reshape(base_forward_batch(params, batch), (batch.size,))
        return {"final": ad.clamp(p, SCORE_EPS, 1.0 - SCORE_EPS)}
    base = base_forward_batch(params, batch)
    rsl = rsl_forward_batch(params, batch)
    fused = ad.tsum(ad.mul(base, rsl), axis=-1)
    out = {"base": base, "rsl": rsl, "fused": fused}
    if variant == "full":
        tau = prim_tau_batch(params, batch)
        out["tau"] = tau
        out["final"] = ad.clamp(ad.mul(tau, fused), SCORE_EPS, 1.0 - SCORE_EPS)
    else:
        out["tau"] = ad.Tensor(np.ones(batch.size))
        out["final"] = ad.clamp(fused, SCORE_EPS, 1.0 - SCORE_EPS)
    return out


def _score_chunks(params: ModelParams, cache: TrainingCache, batch_size: int):
    """(rows, score_batch outputs) over the cache's rows in chunks of
    batch_size, no tape."""
    for lo in range(0, cache.n, batch_size):
        rows = np.arange(lo, min(lo + batch_size, cache.n), dtype=np.int64)
        yield rows, score_batch(params, cache.batch(rows))


def score_cache(params: ModelParams, cache: TrainingCache, batch_size: int = SCORE_BATCH) -> np.ndarray:
    """Final scores of every row of a cache built for params.config, batched,
    no tape; a cache can be scored by many models."""
    out = np.empty(cache.n)
    for rows, scores in _score_chunks(params, cache, batch_size):
        out[rows] = scores["final"].data
    return out


def score_dataset(
    params: ModelParams,
    samples: list[Sample],
    index: EmbeddingIndex,
    batch_size: int = SCORE_BATCH,
) -> np.ndarray:
    """Final scores for a sample list, batched, no tape."""
    return score_cache(params, TrainingCache(samples, index, params.config), batch_size)


# ---------------------------------------------------------------------------
# per-sample breakdowns (rank)


@dataclass
class ScoreBreakdown:
    rsl_out: np.ndarray
    base_out: np.ndarray
    fused: float
    tau: float
    final: float

    def to_line(self) -> str:
        t = ",".join(f"{v:.17g}" for v in self.rsl_out)
        g = ",".join(f"{v:.17g}" for v in self.base_out)
        return f"{self.final:.17g}\t{self.fused:.17g}\t{self.tau:.17g}\t{t}\t{g}"


def personalized_score(
    samples: list[Sample], index: EmbeddingIndex, params: ModelParams
) -> list[ScoreBreakdown]:
    """One breakdown per sample, scored as batches exactly as score_dataset
    scores them; undefined for the base-only variant."""
    if params.config.variant == "base-only":
        raise ValidationError("base-only variant has no fusion breakdown")
    out = []
    for _, scores in _score_chunks(params, TrainingCache(samples, index, params.config), SCORE_BATCH):
        parts = (scores[k].data for k in ("rsl", "base", "fused", "tau", "final"))
        out.extend(
            ScoreBreakdown(rsl, base, float(fused), float(tau), float(final))
            for rsl, base, fused, tau, final in zip(*parts)
        )
    return out


def sample_for_scoring(
    user_id: int,
    query_text: str,
    item_id: int,
    item_text: str,
    history: list[tuple[str, str]],
) -> Sample:
    """Inference-time record: labels are placeholders, flags recomputed.
    The sample holds `history` itself, not a copy, so the candidates of one
    request share it (and Dataset.from_samples looks it up once)."""
    cm, cq = derive_flags(query_text, item_text)
    return Sample(
        user_id=user_id,
        query_text=query_text,
        item_id=item_id,
        item_text=item_text,
        category_match=cm,
        contains_query=cq,
        rsl=1,
        click=0,
        history=history,
    )
