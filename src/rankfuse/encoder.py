"""Text-encoder surrogate and the static embedding index built from it.

The production system distills a large language model; here a deliberately
small trainable stand-in plays that role: hashed token embeddings, mean
pooling, a 3-layer reduction MLP, and L2 normalization to unit length. It is
pretrained on click/no-click pairs (clicked treated as relevant), fine-tuned
on 4-level relevance labels at a reduced learning rate, then frozen. Ranking
code never calls the encoder at training time; it reads the precomputed
index, falling back to an on-the-fly encode (counted) only on cache misses.
The misses of a request are encoded in one sorted batch through the chunk
loop build_index uses, and a row's vector does not depend on the rows it is
batched with, so each fallback vector equals the one build_index stores.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from . import kernels
from .checkpoint import NONNEGATIVE, check_fields, integers, setting
from .checkpoint import load_container, params_digest, require_array, save_container
from .errors import (
    DatasetParseError,
    DimensionError,
    EmbeddingLookupError,
    TrainingError,
    ValidationError,
)

PAIR_KEY_SEP = ""


def pair_key(query: str, item: str) -> str:
    """Index key of a (query, item) pair; neither side may hold the separator,
    or two different pairs could share one key."""
    if PAIR_KEY_SEP in query or PAIR_KEY_SEP in item:
        raise ValidationError(f"pair text contains the key separator {PAIR_KEY_SEP!r}")
    return query + PAIR_KEY_SEP + item


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenization."""
    return text.lower().split()


@lru_cache(maxsize=65536)
def token_id(token: str, vocab_size: int) -> int:
    """Stable hash of a token into [0, vocab_size)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % vocab_size


@dataclass
class EncoderConfig:
    vocab_size: int = setting(4096, integers(1))
    d_raw: int = setting(64, integers(1))
    d: int = setting(32, integers(1))
    seed: int = setting(0, integers(0))
    lr: float = setting(0.5, NONNEGATIVE, key="encoder_lr")
    batch_size: int = setting(256, integers(1), key="encoder_batch_size")
    epochs: int = setting(5, integers(0), key="encoder_epochs")
    finetune_lr_factor: float = setting(0.1, NONNEGATIVE)
    finetune_epochs: int = setting(5, integers(0))

    __post_init__ = check_fields


@dataclass
class EncoderParams:
    """Token table (with CLS/SEP rows), reduction MLP, and training heads.

    token_table row vocab_size is CLS, row vocab_size+1 is SEP. The CLS row
    doubles as the sentinel pooled alone for empty token lists. Heads exist
    only for training and never contribute to index embeddings.
    """

    config: EncoderConfig
    token_table: ad.Parameter
    reduce: list[ad.DenseLayer]
    binary_head: ad.DenseLayer
    rsl_head: ad.DenseLayer | None = None

    @property
    def cls_id(self) -> int:
        return self.config.vocab_size

    @property
    def sep_id(self) -> int:
        return self.config.vocab_size + 1

    def params(self) -> dict[str, ad.Parameter]:
        layers = [*self.reduce, self.binary_head, self.rsl_head]
        params = [self.token_table,
                  *(p for layer in layers if layer is not None for p in layer.params())]
        return {p.name: p for p in params}


def init_encoder(config: EncoderConfig, draw: bool = True) -> EncoderParams:
    """Seeded initial weights; with draw=False, zeros of the same shapes."""
    rng = np.random.default_rng(config.seed) if draw else ad.NoDraws()
    table = ad.Parameter(
        "enc.tokens",
        rng.normal(0.0, 0.1, size=(config.vocab_size + 2, config.d_raw)),
        "stage1",
    )
    reduce = [
        ad.dense_layer(rng, config.d_raw, config.d_raw, "relu", "enc.reduce0", "stage1"),
        ad.dense_layer(rng, config.d_raw, config.d, "relu", "enc.reduce1", "stage1"),
        ad.dense_layer(rng, config.d, config.d, "linear", "enc.reduce2", "stage1"),
    ]
    binary_head = ad.dense_layer(rng, config.d, 1, "linear", "enc.click_head", "stage1")
    return EncoderParams(config, table, reduce, binary_head)


def _add_rsl_head(params: EncoderParams, draw: bool = True):
    if params.rsl_head is None:
        rng = np.random.default_rng(params.config.seed + 1) if draw else ad.NoDraws()
        params.rsl_head = ad.dense_layer(rng, params.config.d, 4, "linear", "enc.rsl_head", "stage1")


# ---------------------------------------------------------------------------
# encoding


def _text_ids(params: EncoderParams, text: str) -> list[int]:
    ids = [token_id(t, params.config.vocab_size) for t in tokenize(text)]
    return ids if ids else [params.cls_id]


def _pair_id_lists(params: EncoderParams, pairs) -> list[list[int]]:
    """The [CLS] query [SEP] item [SEP] token ids of each (query, item) pair,
    each distinct text tokenized once."""
    v = params.config.vocab_size
    words = {t: [token_id(w, v) for w in tokenize(t)]
             for t in dict.fromkeys(itertools.chain.from_iterable(pairs))}
    cls, sep = [params.cls_id], [params.sep_id]
    return [cls + words[q] + sep + words[i] + sep for q, i in pairs]


def encode_bags(params: EncoderParams, flat_ids: np.ndarray, offsets: np.ndarray) -> ad.Tensor:
    """Unit-norm embeddings for a batch of token bags (tape-aware)."""
    pooled = ad.embedding_bag_mean(params.token_table, flat_ids, offsets)
    reduced = ad.mlp_apply(params.reduce, pooled)
    return ad.l2_normalize(reduced)


def _encode_id_lists(params: EncoderParams, id_lists: list[list[int]]) -> np.ndarray:
    if len(id_lists) == 1:
        # numpy sends a one-row `@` to BLAS GEMV, which rounds differently from
        # the GEMM a batch takes; two copies of the row go through GEMM, so the
        # vector is bit-equal to the one the row gets inside any larger batch
        return _encode_id_lists(params, id_lists * 2)[:1]
    return encode_bags(params, *kernels.ragged(id_lists)).data


def _refuse_bare_str(keys, what: str):
    if isinstance(keys, str):
        raise ValidationError(f"{what} takes a sequence of keys, not one str: {keys!r}")


def encode_text(params: EncoderParams, texts: Sequence[str]) -> np.ndarray:
    """Unit-length embeddings [n, d] of bare texts; empty text pools the CLS row.
    A row's vector does not depend on the other rows of the batch."""
    _refuse_bare_str(texts, "encode_text")
    return _encode_id_lists(params, [_text_ids(params, t) for t in texts])


def encode_pair(params: EncoderParams, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """Unit-length relevance embeddings [n, d] of [CLS] query [SEP] item [SEP]
    for (query, item) pairs. A row's vector does not depend on the other rows."""
    _refuse_bare_str(pairs, "encode_pair")
    return _encode_id_lists(params, _pair_id_lists(params, pairs))


# ---------------------------------------------------------------------------
# training


def _pair_bags(params: EncoderParams, labeled) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The token bags of the distinct (query, item) pairs among the labeled
    triples, as CSR (flat ids, offsets), each pair's ids computed once; and
    per triple, the number of its pair's bag."""
    bag_of: dict[tuple[str, str], int] = {}
    bags = np.fromiter((bag_of.setdefault((q, i), len(bag_of)) for q, i, _ in labeled),
                       dtype=np.int64, count=len(labeled))
    flat, offsets = kernels.ragged(_pair_id_lists(params, list(bag_of)))
    return flat, offsets, bags


def _fit(params: EncoderParams, labeled, batch_size: int, epochs: int, lr: float, seed: int,
         stage: str, head_loss) -> list[float]:
    """Both encoder stages: SGD on the labeled triples' pair bags in a seeded
    order, with `head_loss(embeddings, rows)` as the loss of a batch. Returns
    the per-epoch mean loss."""
    bag_flat, bag_off, bags = _pair_bags(params, labeled)

    def loss(batch, rows, epoch, batch_no):
        value = head_loss(encode_bags(params, *batch), rows)
        return value, value.item()

    losses = ad.sgd_loop(len(labeled), batch_size, epochs, np.random.default_rng(seed),
                         list(params.params().values()), {"stage1": lr}, stage,
                         lambda rows: kernels.gather_segments(bag_flat, bag_off, bags[rows]), loss)
    per_epoch = -(-len(labeled) // batch_size)
    return [float(np.mean(losses[lo : lo + per_epoch])) for lo in range(0, len(losses), per_epoch)]


def pretrain_encoder(
    pairs: list[tuple[str, str, int]], config: EncoderConfig
) -> tuple[EncoderParams, list[float]]:
    """Binary cross-entropy pretraining on (query, item, clicked) pairs.

    Clicked is treated as the relevance signal. Returns the trained params and
    the per-epoch mean loss trace (empty when epochs == 0).
    """
    if not pairs:
        raise ValidationError("pretrain needs at least one pair")
    labels = np.array([int(c) for _, _, c in pairs], dtype=np.float64)
    if labels.min() == labels.max():
        raise TrainingError("pretrain needs both clicked and unclicked pairs")

    params = init_encoder(config)
    if config.epochs == 0:
        return params, []

    def head_loss(emb, rows):
        logits = ad.affine(emb, params.binary_head.W, params.binary_head.b)
        p = ad.sigmoid(logits.reshape((rows.size,)))
        y = labels[rows]
        return -(ad.Tensor(y) * ad.log(p) + ad.Tensor(1.0 - y) * ad.log(1.0 - p)).mean()

    trace = _fit(params, pairs, config.batch_size, config.epochs, config.lr, config.seed + 17,
                 "pretrain", head_loss)
    return params, trace


def finetune_encoder(
    params: EncoderParams, labeled_pairs: list[tuple[str, str, int]], config: EncoderConfig
) -> tuple[EncoderParams, list[float]]:
    """4-class cross-entropy fine-tune on (query, item, rsl) at a reduced rate.

    rsl labels are 1..4. An empty input (or a zero lr factor) leaves the
    parameters unchanged. Mutates and returns `params`.
    """
    for _, _, rsl in labeled_pairs:
        if rsl not in (1, 2, 3, 4):
            raise ValidationError(f"rsl label {rsl!r} outside 1..4")
    _add_rsl_head(params)
    lr = config.lr * config.finetune_lr_factor
    if not labeled_pairs or lr == 0.0 or config.finetune_epochs == 0:
        return params, []

    labels = np.array([rsl - 1 for _, _, rsl in labeled_pairs], dtype=np.int64)

    def head_loss(emb, rows):
        logits = ad.affine(emb, params.rsl_head.W, params.rsl_head.b)
        return -ad.select_columns(ad.log_softmax(logits), labels[rows]).mean()

    trace = _fit(params, labeled_pairs, config.batch_size, config.finetune_epochs, lr,
                 config.seed + 29, "finetune", head_loss)
    return params, trace


# ---------------------------------------------------------------------------
# the static index


@dataclass
class EmbeddingIndex:
    """Exact-match store of text and pair embeddings from one encoder state."""

    dim: int
    checkpoint_id: str
    text: dict[str, np.ndarray] = field(default_factory=dict)
    pair: dict[str, np.ndarray] = field(default_factory=dict)
    cache_misses: int = 0
    _encoder: EncoderParams | None = None

    def attach_encoder(self, params: EncoderParams):
        self._encoder = params

    def encode_missing(self, texts: Iterable[str], pairs: Iterable[tuple[str, str]]) -> None:
        """Encode every text and (query, item) pair not yet stored, in sorted
        order through build_index's own chunk loop, so each gets the vector a
        full build_index would store; each counts as one cache miss. Without
        an encoder this does nothing, and the lookup of a missing key raises."""
        if self._encoder is None:
            return
        new_texts = sorted({t for t in texts if t not in self.text})
        new_pairs = sorted({(q, i) for q, i in pairs if pair_key(q, i) not in self.pair})
        _encode_into(self, self._encoder, new_texts, new_pairs)
        self.cache_misses += len(new_texts) + len(new_pairs)

    def lookup_text(self, text: str) -> np.ndarray:
        if text not in self.text:
            if self._encoder is None:
                raise EmbeddingLookupError(f"text not indexed and no encoder attached: {text!r}")
            self.encode_missing([text], [])
        return self.text[text]

    def lookup_pair(self, query: str, item: str) -> np.ndarray:
        key = pair_key(query, item)
        if key not in self.pair:
            if self._encoder is None:
                raise EmbeddingLookupError(f"pair not indexed and no encoder attached: {key!r}")
            self.encode_missing([], [(query, item)])
        return self.pair[key]


INDEX_BATCH = 1024  # rows per encode call when filling an index


def _encode_into(index: EmbeddingIndex, params: EncoderParams, texts: list[str],
                 pairs: list[tuple[str, str]], batch_size: int = INDEX_BATCH):
    """Store the vectors of sorted, distinct texts and pairs, encoded in chunks
    of batch_size: the one fill path of build_index and encode_missing."""
    for lo in range(0, len(texts), batch_size):
        chunk = texts[lo : lo + batch_size]
        index.text.update(zip(chunk, encode_text(params, chunk)))
    for lo in range(0, len(pairs), batch_size):
        chunk = pairs[lo : lo + batch_size]
        keys = [pair_key(q, i) for q, i in chunk]
        index.pair.update(zip(keys, encode_pair(params, chunk)))


def build_index(
    params: EncoderParams,
    texts: list[str],
    pairs: list[tuple[str, str]],
    checkpoint_id: str,
    batch_size: int = INDEX_BATCH,
) -> EmbeddingIndex:
    """Encode every distinct text and pair once. Deterministic for fixed inputs."""
    index = EmbeddingIndex(dim=params.config.d, checkpoint_id=checkpoint_id)
    _encode_into(index, params, sorted(set(texts)), sorted(set(pairs)), batch_size)
    return index


def save_encoder(params: EncoderParams, path) -> None:
    """Persist encoder weights plus enough config to rebuild them."""
    from .checkpoint import config_meta, save_params

    meta = config_meta(params.config)
    meta["has_rsl_head"] = "1" if params.rsl_head is not None else "0"
    save_params(path, params.params(), meta)


def load_encoder(path) -> EncoderParams:
    """Rebuild an EncoderParams from a checkpoint; shapes are re-validated."""
    from .checkpoint import config_from_meta, fill_params, load_params

    loaded, meta = load_params(path, rerun="rankfuse encoder pretrain/finetune")
    params = init_encoder(config_from_meta(path, meta, EncoderConfig, "an encoder"), draw=False)
    if meta.get("has_rsl_head") == "1":
        _add_rsl_head(params, draw=False)
    fill_params(path, params.params(), loaded)
    return params


def encoder_digest(params: EncoderParams) -> str:
    return params_digest(params.params())


def save_index(index: EmbeddingIndex, path):
    """Write the index as a binary container (see `checkpoint`).

    For each kind, text and pair, the keys are sorted and stored as one UTF-8
    blob plus int64 byte offsets (`<kind>_keys`, `<kind>_offsets`), and the
    vectors as the rows of a float64 `<kind>_mat` of width `dim`.
    """
    arrays = {}
    for kind, table in (("text", index.text), ("pair", index.pair)):
        keys = sorted(table)
        encoded = [k.encode("utf-8") for k in keys]
        offsets = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum([len(b) for b in encoded], out=offsets[1:])
        mat = np.empty((len(keys), index.dim), dtype=np.float64)
        for row, key in enumerate(keys):
            vec = np.asarray(table[key], dtype=np.float64)
            if vec.shape != (index.dim,):
                raise DimensionError(f"{kind} vector for {key!r} has shape {vec.shape}, not ({index.dim},)")
            mat[row] = vec
        arrays[f"{kind}_keys"] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
        arrays[f"{kind}_offsets"] = offsets
        arrays[f"{kind}_mat"] = mat
    head = {"dim": index.dim, "checkpoint_id": index.checkpoint_id}
    save_container(path, "index", head, arrays)


def load_index(path) -> EmbeddingIndex:
    """Read an index written by save_index; `.text` and `.pair` map each key
    to a row view of its kind's matrix. Every structural fault is a
    DatasetParseError naming the file."""
    head, arrays = load_container(path, "index", rerun="rankfuse encoder build-index")
    dim, checkpoint_id = head.get("dim"), head.get("checkpoint_id")
    if type(dim) is not int or dim < 1 or not isinstance(checkpoint_id, str):
        raise DatasetParseError(None, f"{path}: index head needs a positive dim and a checkpoint_id")
    index = EmbeddingIndex(dim=dim, checkpoint_id=checkpoint_id)
    for kind, table in (("text", index.text), ("pair", index.pair)):
        blob = require_array(path, arrays, f"{kind}_keys", np.uint8, 1).tobytes()
        offsets = require_array(path, arrays, f"{kind}_offsets", np.int64, 1)
        mat = require_array(path, arrays, f"{kind}_mat", np.float64, 2)
        if mat.shape[1] != dim:
            raise DatasetParseError(None, f"{path}: {kind}_mat width {mat.shape[1]} != dim {dim}")
        if offsets.size != mat.shape[0] + 1:
            raise DatasetParseError(
                None, f"{path}: {offsets.size - 1} {kind} keys for {mat.shape[0]} rows"
            )
        if offsets[0] != 0 or offsets[-1] != len(blob) or (np.diff(offsets) < 0).any():
            raise DatasetParseError(None, f"{path}: {kind}_offsets do not partition the key blob")
        bounds = offsets.tolist()
        try:
            keys = [blob[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]
        except UnicodeDecodeError as e:
            raise DatasetParseError(None, f"{path}: {kind} key is not UTF-8: {e}") from None
        table.update(zip(keys, mat))
        if len(table) != len(keys):
            raise DatasetParseError(None, f"{path}: duplicate {kind} keys")
    return index
