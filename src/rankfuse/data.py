"""Seeded synthetic search-impression corpus with ground-truth relevance.

The generator builds a small e-commerce world (users with heterogeneous
relevance sensitivity, items with categories/descriptors/quality, queries
derived from items) and simulates click logs over it. True relevance, item
quality, user sensitivity and the click probability live in a sidecar
manifest that the model-visible dataset never contains; it is written for
inspection, and no stage reads it.

Dataset files store each click once: a log table holds the users' click
logs, and each row names a window of it, its history (see write_dataset).
Files of the two formats before it are refused with a message to re-run
`rankfuse gen-data`. read_dataset returns a split as a columnar Dataset,
which the training cache builds from without a Sample per row.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from operator import attrgetter

import numpy as np

from . import kernels
from .autodiff import np_sigmoid
from .checkpoint import FINITE, POSITIVE, ZIP_MAGIC, Domain, check_fields, integers, setting
from .encoder import PAIR_KEY_SEP, tokenize
from .errors import DatasetParseError, ValidationError

HISTORY_LIMIT = 50
DATASET_FORMAT = "rankfuse-dataset"
DATASET_VERSION = 3
# the columns of an impression row; a row's history is the window of
# history_len clicks from history_start in the click table
DATASET_COLUMNS = (
    "user_id",
    "query_text",
    "item_id",
    "item_text",
    "category_match",
    "contains_query",
    "rsl",
    "click",
    "history_start",
    "history_len",
)
# the header of the first format, which wrote each row's whole history
_OLD_DATASET_COLUMNS = DATASET_COLUMNS[:-2] + ("history",)
_REWRITE = "re-run `rankfuse gen-data` to rewrite it"
SIDECAR_COLUMNS = ("relevance", "quality", "sensitivity", "true_click_prob")
# texts travel in tab-separated files read with universal newlines (so \r
# would end a line too), `rank` reads ^-paired history lines, and the
# embedding index joins a query and an item with PAIR_KEY_SEP; ; joined
# history entries in the first dataset format and stays forbidden, so both
# formats hold the same texts
FORBIDDEN_CHARS = ("\t", ";", "^", "\n", "\r", PAIR_KEY_SEP)
# what a reader can still find inside a tab-separated field
_FIELD_FORBIDDEN = (";", "^", PAIR_KEY_SEP)
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

_SYLLABLES = [c + v for c in "bdklmnprstvz" for v in "aeiou"]
# the most descriptors an item draws: rng.integers(3, MOST_DESCRIPTORS + 1)
MOST_DESCRIPTORS = 8


@dataclass
class GeneratorConfig:
    seed: int = setting(0, integers(0))
    n_users: int = setting(200, integers(1))
    n_items: int = setting(1000, integers(1))
    n_queries: int = setting(300, integers(1))
    n_impressions: int = setting(100000, integers(1))
    n_categories: int = setting(12, integers(1, len(_SYLLABLES) ** 3))
    n_descriptors: int = setting(120, integers(MOST_DESCRIPTORS, len(_SYLLABLES) ** 2))
    w_quality: float = setting(3.0, FINITE)
    w_relevance: float = setting(3.0, FINITE)
    bias: float = setting(-1.0, FINITE)
    sensitivity_a: float = setting(2.0, POSITIVE)
    sensitivity_b: float = setting(2.0, POSITIVE)
    rsl_thresholds: tuple[float, float, float] = setting((0.25, 0.5, 0.75), Domain(
        "three increasing numbers strictly between 0 and 1", POSITIVE.low, math.nextafter(1.0, 0.0), 3))

    def __post_init__(self):
        self.rsl_thresholds = tuple(float(t) for t in self.rsl_thresholds)
        check_fields(self)


@dataclass
class GroundTruth:
    relevance: float
    quality: float
    sensitivity: float
    true_click_prob: float


@dataclass
class Sample:
    user_id: int
    query_text: str
    item_id: int
    item_text: str
    category_match: int
    contains_query: int
    rsl: int
    click: int
    history: list[tuple[str, str]] = field(default_factory=list)
    truth: GroundTruth | None = field(default=None, compare=False)


class Dataset(Sequence):
    """A dataset split as columns, which is also a read-only sequence of
    Samples.

    - `user_id`, `item_id`, `category_match`, `contains_query`, `rsl`,
      `click`, `history_start` and `history_len`: one int64 array each, one
      value per row;
    - `texts`: the distinct texts, and per row `query_text_id` and
      `item_text_id` into them;
    - the entry table as text ids `entry_query` and `entry_item`, and the
      click table `clicks`: entry ids, the users' click logs one after
      another, each newest first. Row r's history is the window
      `clicks[history_start[r] : history_start[r] + history_len[r]]`.

    `ds[i]` builds row i's Sample on each access; rows that share a window
    share one list, and histories that share an entry one tuple, so a
    sample's `history` is read-only. A Dataset is not a list, whose elements
    could be changed and drift from the columns; `==` compares it with any
    list or tuple of Samples, and `+` gives a list.
    """

    def __init__(self, *, texts, query_text_id, item_text_id, entry_query, entry_item,
                 clicks, user_id, item_id, category_match, contains_query,
                 rsl, click, history_start, history_len):
        self.texts = texts
        self.query_text_id, self.item_text_id = query_text_id, item_text_id
        self.entry_query, self.entry_item = entry_query, entry_item
        self.clicks = clicks
        self.user_id, self.item_id = user_id, item_id
        self.category_match, self.contains_query = category_match, contains_query
        self.rsl, self.click = rsl, click
        self.history_start, self.history_len = history_start, history_len
        self._entries: list[tuple[str, str]] | None = None
        self._histories: dict[tuple[int, int], list[tuple[str, str]]] = {}

    @classmethod
    def from_samples(cls, samples) -> "Dataset":
        """The columns of a sequence of Samples; a Dataset is returned as it is.

        Each history becomes a window of a click log, in row order: a list
        object already seen keeps its window (looked up by identity, so a
        shared list is hashed once); a one-click shift of the user's previous
        history grows that window's log, if the window ends at the log's
        newest click (a user's first click starts a log); a history equal to
        one that started a log takes its window; any other starts a log. A
        generated split thus stores each click once; a history equal to one
        that a log grew to is not looked up, and is stored again. Texts and
        entries are numbered by first appearance.
        """
        if isinstance(samples, Dataset):
            return samples
        return cls._laid_out(samples)[0]

    @classmethod
    def _laid_out(cls, samples) -> tuple["Dataset", np.ndarray]:
        """from_samples of any Samples, a Dataset laid out afresh too, and the
        log bounds: log k spans `log_off[k]:log_off[k + 1]` of `clicks`."""
        samples = list(samples)
        n = len(samples)
        queries = [s.query_text for s in samples]
        items = [s.item_text for s in samples]
        logs: list[list[tuple[str, str]]] = []  # each oldest first
        # a window is (log, end, length): the log's clicks [end - length, end)
        no_history = ([], (-1, 0, 0))
        window_of, started, last, windows = {}, {}, {}, []  # last: per user, (history, window)
        for u, h in zip(map(attrgetter("user_id"), samples), map(attrgetter("history"), samples)):
            w = window_of.get(id(h))
            if w is None:
                prev, (k, end, _) = last.get(u, no_history)
                if not h:
                    w = no_history[1]
                elif (len(h) == min(len(prev) + 1, HISTORY_LIMIT) and h[1:] == prev[: len(h) - 1]
                      and (k < 0 or end == len(logs[k]))):
                    if k < 0:
                        k, end = len(logs), 0
                        logs.append([])
                    logs[k].append(h[0])
                    w = (k, end + 1, len(h))
                else:
                    w = started.setdefault(tuple(h), (len(logs), len(h), len(h)))
                    if w[0] == len(logs):
                        logs.append(list(reversed(h)))
                window_of[id(h)] = w
            last[u] = (h, w)
            windows.append(w)
        log_off = np.zeros(len(logs) + 1, dtype=np.int64)
        np.cumsum(list(map(len, logs)), out=log_off[1:])
        log, end, history_len = np.fromiter(itertools.chain.from_iterable(windows), dtype=np.int64,
                                            count=3 * n).reshape(-1, 3).T
        # the logs are stored newest first, so a window starts `end` clicks
        # before its log's end; the empty window (log -1) starts at 0
        flat = [e for clicks in logs for e in reversed(clicks)]
        entry_id = _numbered(flat)
        text_id = _numbered(itertools.chain(
            itertools.chain.from_iterable(zip(queries, items)),
            itertools.chain.from_iterable(entry_id),
        ))

        def ids(table, keys, count):
            return np.fromiter(map(table.__getitem__, keys), dtype=np.int64, count=count)

        try:
            ints = {name: np.fromiter(map(attrgetter(name), samples), dtype=np.int64, count=n)
                    for name in ("user_id", "item_id", "category_match", "contains_query",
                                 "rsl", "click")}
        except OverflowError:
            raise ValidationError("a sample's id or label is outside the int64 range") from None
        entries = ids(text_id, itertools.chain.from_iterable(entry_id), 2 * len(entry_id))
        return cls(
            texts=list(text_id), query_text_id=ids(text_id, queries, n),
            item_text_id=ids(text_id, items, n),
            entry_query=entries[0::2], entry_item=entries[1::2],
            clicks=ids(entry_id, flat, len(flat)),
            history_start=log_off[log + 1] - end, history_len=history_len, **ints,
        ), log_off

    def __len__(self) -> int:
        return self.user_id.shape[0]

    def _history(self, start: int, length: int) -> list[tuple[str, str]]:
        history = self._histories.get((start, length))
        if history is None:
            if self._entries is None:
                t = self.texts
                self._entries = [(t[q], t[i]) for q, i in
                                 zip(self.entry_query.tolist(), self.entry_item.tolist())]
            ids = self.clicks[start : start + length].tolist()
            history = self._histories[start, length] = [self._entries[e] for e in ids]
        return history

    def __iter__(self):
        t = self.texts
        cols = (self.user_id, self.query_text_id, self.item_id, self.item_text_id,
                self.category_match, self.contains_query, self.rsl, self.click,
                self.history_start, self.history_len)
        for u, q, i, it, cm, cq, rsl, click, a, n in zip(*(c.tolist() for c in cols)):
            yield Sample(u, t[q], i, t[it], cm, cq, rsl, click, self._history(a, n))

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[k] for k in range(*key.indices(len(self)))]
        k = range(len(self))[key]  # IndexError outside, negative keys count from the end
        t = self.texts
        return Sample(
            int(self.user_id[k]), t[self.query_text_id[k]], int(self.item_id[k]),
            t[self.item_text_id[k]], int(self.category_match[k]), int(self.contains_query[k]),
            int(self.rsl[k]), int(self.click[k]),
            self._history(int(self.history_start[k]), int(self.history_len[k])),
        )

    def __eq__(self, other):
        if isinstance(other, (Dataset, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

    def labeled_pairs(self, label: str) -> list[tuple[str, str, int]]:
        """(query, item, label) per row, the label from the int column so named."""
        t = self.texts
        return list(zip(map(t.__getitem__, self.query_text_id.tolist()),
                        map(t.__getitem__, self.item_text_id.tolist()),
                        getattr(self, label).tolist()))

    def pairs(self) -> list[tuple[str, str]]:
        """The distinct (query, item) pairs of the rows and the entry table."""
        n = len(self.texts)
        keys, _ = kernels.distinct(np.concatenate([self.query_text_id * n + self.item_text_id,
                                                   self.entry_query * n + self.entry_item]))
        t = self.texts
        return [(t[q], t[i]) for q, i in zip((keys // n).tolist(), (keys % n).tolist())]

    def text_ranks(self) -> np.ndarray:
        """Each text's rank in sorted order, by text id."""
        t = self.texts
        rank = np.empty(len(t), dtype=np.int64)
        rank[sorted(range(len(t)), key=t.__getitem__)] = np.arange(len(t))
        return rank


def _numbered(keys) -> dict:
    """Each distinct key, numbered from 0 in order of first appearance."""
    distinct = dict.fromkeys(keys)
    return dict(zip(distinct, range(len(distinct))))


# ---------------------------------------------------------------------------
# relevance and click oracles
#
# The relevance oracle and the flag core take token lists, which the
# generator makes once per text and calls once per distinct (query, item)
# pair. assign_rsl and click_probability work on arrays element by element,
# and give a plain number for plain-number inputs.


def ground_truth_relevance(query_tokens: list[str], item_tokens: list[str]) -> float:
    """Weighted token overlap in [0,1]; 0.5 for category match, 0.5 scaled
    by descriptor-set Jaccard.

    The first token of each text is its category. When both descriptor sets
    are empty the Jaccard part follows the category (identical single-token
    texts are fully relevant, disjoint ones fully irrelevant). Any empty
    text scores 0.
    """
    qt, it = query_tokens, item_tokens
    if not qt or not it:
        return 0.0
    cat = 1.0 if qt[0] == it[0] else 0.0
    qd, idd = set(qt[1:]), set(it[1:])
    if not qd and not idd:
        jac = cat
    else:
        union = qd | idd
        jac = len(qd & idd) / len(union)
    return 0.5 * cat + 0.5 * jac


def _flags(qt: list[str], it: list[str]) -> tuple[int, int]:
    if not qt or not it:
        return 0, 0
    return int(qt[0] == it[0]), int(set(qt) <= set(it))


def derive_flags(query_text: str, item_text: str) -> tuple[int, int]:
    """(category_match, contains_query) recomputed from the raw texts."""
    return _flags(tokenize(query_text), tokenize(item_text))


def _in_unit_interval(name: str, values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    outside = ~((v >= 0.0) & (v <= 1.0))  # NaN is outside too
    if outside.any():
        raise ValidationError(f"{name} {float(v[outside][0])!r} outside [0,1]")
    return v


def assign_rsl(relevance, thresholds: tuple[float, float, float] = (0.25, 0.5, 0.75)):
    """Bucket [0,1] relevances into levels 1..4, lower-inclusive thresholds."""
    r = _in_unit_interval("relevance", relevance)
    level = np.ones(r.shape, dtype=np.int64)
    for t in thresholds:
        level += r >= t
    return level if level.ndim else int(level)


def click_probability(sensitivity, quality, relevance, config: GeneratorConfig):
    """The true click probability
    p = sigmoid(w_quality*(quality-1/2) + w_relevance*sensitivity*(relevance-1/2) + bias),
    so insensitive users (s=0) click on quality alone. An impression is
    clicked when its uniform draw falls below p."""
    s = _in_unit_interval("sensitivity", sensitivity)
    q = _in_unit_interval("quality", quality)
    r = _in_unit_interval("relevance", relevance)
    z = config.w_quality * (q - 0.5) + config.w_relevance * s * (r - 0.5) + config.bias
    p = np_sigmoid(z)
    return p if p.ndim else float(p)


# ---------------------------------------------------------------------------
# corpus generation


def _pseudo_words(rng: np.random.Generator, count: int, n_syllables: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < count:
        # rng.integers(n) draws what rng.choice(n) draws
        w = "".join(_SYLLABLES[rng.integers(len(_SYLLABLES))] for _ in range(n_syllables))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _pick(rng: np.random.Generator, pool: list[str], k: int) -> list[str]:
    """k distinct elements of pool, by the draws of
    rng.choice(pool, size=k, replace=False), without making pool an array."""
    return [pool[i] for i in rng.choice(len(pool), size=k, replace=False).tolist()]


def generate_corpus(config: GeneratorConfig) -> tuple[list[Sample], dict]:
    """Simulate a click log; returns (samples, manifest).

    Impressions mix the query's source item, cross-category descriptor
    variants, same-category items and uniform draws so that all four
    relevance levels occur. Clicked impressions roll into that user's
    history (most recent first, capped at HISTORY_LIMIT) which each later
    sample holds as its prediction-time context.

    A click gives its user a new history list, and each sample holds the
    list that was current, so samples share their histories: a sample's
    `history` is read-only.

    The impression loop makes only the random draws; no draw depends on a
    label or a click, so labels are computed after it, once per distinct
    (query, item) pair, and clicks for all rows at once.
    """
    rng = np.random.default_rng(config.seed)
    # rng.integers(n) draws what rng.integers(0, n) draws, with less argument parsing
    taken: set[str] = set()
    categories = _pseudo_words(rng, config.n_categories, 3, taken)
    descriptors = _pseudo_words(rng, config.n_descriptors, 2, taken)

    n_base = max(1, config.n_items - config.n_items // 10)
    item_cat: list[int] = []
    item_desc: list[list[str]] = []
    item_text: list[str] = []
    variants_of: dict[int, list[int]] = {}
    by_category: dict[int, list[int]] = {c: [] for c in range(config.n_categories)}

    def _add_item(cat: int, desc: list[str]) -> int:
        j = len(item_desc)
        item_cat.append(cat)
        item_desc.append(desc)
        item_text.append(" ".join([categories[cat]] + desc))
        by_category[cat].append(j)
        return j

    for j in range(n_base):
        if j > 0 and rng.random() < 0.35:
            # knock-off: same descriptors as an earlier item, fresh category
            base = int(rng.integers(j))
            desc = list(item_desc[base])
            variants_of.setdefault(base, []).append(j)
        else:
            k = int(rng.integers(3, MOST_DESCRIPTORS + 1))
            desc = _pick(rng, descriptors, k)
        _add_item(int(rng.integers(config.n_categories)), desc)

    query_source = rng.integers(0, n_base, size=config.n_queries).tolist()
    query_text: list[str] = []
    query_desc: list[list[str]] = []
    for q in range(config.n_queries):
        src = query_source[q]
        d = min(int(rng.integers(4)), len(item_desc[src]))
        picked = _pick(rng, item_desc[src], d) if d else []
        query_text.append(" ".join([categories[item_cat[src]]] + picked))
        query_desc.append(picked)

    # weakly-relevant lookalikes: a different category but enough shared
    # descriptors that the weighted overlap lands in the second bucket
    rich = [q for q in range(config.n_queries) if query_desc[q]]
    for _ in range(config.n_items - n_base):
        if not rich or config.n_categories < 2:
            k = int(rng.integers(3, MOST_DESCRIPTORS + 1))
            _add_item(int(rng.integers(config.n_categories)), _pick(rng, descriptors, k))
            continue
        q = rich[int(rng.integers(len(rich)))]
        src = query_source[q]
        d = len(query_desc[q])
        size = 2 if d == 1 else int(rng.integers(d + 1, 2 * d + 1))
        own = set(query_desc[q])
        pad = _pick(rng, [w for w in descriptors if w not in own], size - d)
        cat = int(rng.integers(config.n_categories - 1))
        if cat >= item_cat[src]:
            cat += 1
        j = _add_item(cat, query_desc[q] + pad)
        variants_of.setdefault(src, []).append(j)

    item_quality = rng.uniform(0.0, 1.0, size=config.n_items)

    sensitivity = rng.beta(config.sensitivity_a, config.sensitivity_b, size=config.n_users)

    # per query, the pools of the descriptor-variant and same-category modes
    same_category = [by_category[item_cat[src]] for src in query_source]
    variants = [variants_of.get(src) or pool for src, pool in zip(query_source, same_category)]
    # per impression: user, query, mode, pool index or item, click uniform
    integers, uniform = rng.integers, rng.random
    n_users, n_queries, n_items = config.n_users, config.n_queries, config.n_items
    users, queries, items, draws = [], [], [], []
    for _ in range(config.n_impressions):
        users.append(integers(n_users))
        q = int(integers(n_queries))
        mode = uniform()
        if mode < 0.25:
            j = query_source[q]
        elif mode < 0.5:
            pool = variants[q]
            j = pool[integers(len(pool))]
        elif mode < 0.75:
            pool = same_category[q]
            j = pool[integers(len(pool))]
        else:
            j = integers(n_items)
        queries.append(q)
        items.append(j)
        draws.append(uniform())
    user = np.array(users, dtype=np.int64)
    query = np.array(queries, dtype=np.int64)
    item = np.array(items, dtype=np.int64)

    # labels once per distinct (query, item) pair, on texts tokenized once
    pair_keys, pair_of = kernels.distinct(query * n_items + item)
    pair_q, pair_j = (pair_keys // n_items).tolist(), (pair_keys % n_items).tolist()
    query_tokens = {q: tokenize(query_text[q]) for q in set(pair_q)}
    item_tokens = {j: tokenize(item_text[j]) for j in set(pair_j)}
    pair_tokens = [(query_tokens[q], item_tokens[j]) for q, j in zip(pair_q, pair_j)]
    pair_relevance = np.array([ground_truth_relevance(qt, it) for qt, it in pair_tokens],
                              dtype=np.float64)
    pair_flags = np.array([_flags(qt, it) for qt, it in pair_tokens], dtype=np.int64).reshape(-1, 2)
    relevance = pair_relevance[pair_of]
    rsl = assign_rsl(pair_relevance, config.rsl_thresholds)[pair_of]
    category_match, contains_query = pair_flags[pair_of].T
    quality, user_sensitivity = item_quality[item], sensitivity[user]
    prob = click_probability(user_sensitivity, quality, relevance, config)
    click = (np.array(draws, dtype=np.float64) < prob).astype(np.int64)

    # every user starts from one shared empty history
    histories: list[list[tuple[str, str]]] = [[]] * n_users
    samples: list[Sample] = []
    columns = (user, query, item, category_match, contains_query, rsl, click,
               relevance, quality, user_sensitivity, prob)
    for u, q, j, cm, cq, level, y, r, quality_j, s, p in zip(*(c.tolist() for c in columns)):
        history = histories[u]
        samples.append(Sample(u, query_text[q], j, item_text[j], cm, cq, level, y, history,
                              GroundTruth(r, quality_j, s, p)))
        if y:
            histories[u] = [(query_text[q], item_text[j])] + history[: HISTORY_LIMIT - 1]

    manifest = {
        "config": asdict(config),
        "n_samples": len(samples),
        "click_rate": int(click.sum()) / len(samples),
        "rsl_counts": {level: int((rsl == level).sum()) for level in (1, 2, 3, 4)},
        "n_categories": config.n_categories,
        "n_descriptors": config.n_descriptors,
    }
    return samples, manifest


def split_corpus(samples: list[Sample]) -> tuple[list[Sample], list[Sample], list[Sample]]:
    """Sequential 78/11/11 split of the impression stream."""
    n = len(samples)
    n_train = int(n * 0.78)
    n_val = int(n * 0.11)
    return samples[:n_train], samples[n_train : n_train + n_val], samples[n_train + n_val :]


# ---------------------------------------------------------------------------
# serialization


def check_text(text: str, what: str) -> str:
    for ch in FORBIDDEN_CHARS:
        if ch in text:
            raise ValidationError(f"{what} contains forbidden character {ch!r}")
    return text


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading. Inside the block, bytes that are
    not UTF-8, and every DatasetParseError raised without a path, become a
    DatasetParseError naming the file; so does a rankfuse binary container
    given where a text file belongs, and a path that cannot be opened (a
    missing file, a directory)."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as e:
        raise DatasetParseError(None, f"cannot be read ({e.strerror})", path=path) from None
    try:
        with fh:
            if fh.buffer.peek(len(ZIP_MAGIC)).startswith(ZIP_MAGIC):
                raise DatasetParseError(
                    None, "is a rankfuse binary container (a checkpoint or an index), not a text file"
                )
            yield fh
    except UnicodeDecodeError as e:
        raise DatasetParseError(None, f"not UTF-8 text ({e.reason})", path=path) from None
    except DatasetParseError as e:
        if e.path is not None:
            raise
        raise DatasetParseError(e.line_no, e.detail, path=path) from None


def _check_sample(s: Sample) -> None:
    if len(s.history) > HISTORY_LIMIT:
        raise ValidationError(f"history longer than {HISTORY_LIMIT}")
    for q, i in s.history:
        if not q or not i:
            raise ValidationError("history entries must be non-empty")
        check_text(q, "history query")
        check_text(i, "history item")
    check_text(s.query_text, "query_text")
    check_text(s.item_text, "item_text")


def write_dataset(samples: list[Sample], path: str) -> None:
    """Write the model-visible records; truth fields are left out.

    Each click is written once, in its user's click log, and a row names
    its history as a window of the logs:
    - line 1, the header: `rankfuse-dataset`, `version=3`, `entries=<E>`,
      `logs=<K>` and `rows=<N>`, tab-separated;
    - E lines, the entry table: `<query>\t<item>`; entry ids count from 0;
    - K lines, the log table: entry ids joined by single spaces, newest
      first; the lines one after another are the click table;
    - N rows, one per sample: the DATASET_COLUMNS, tab-separated. A row's
      history is the `history_len` clicks from click `history_start`.
    Logs and ids follow first appearance, so the bytes depend only on
    `samples`. Every sample is checked before the file is opened; of
    several faulty samples, the first raises.

    The file is written from the columns that Dataset.from_samples gives,
    laid out afresh for a Dataset read from a file too.
    """
    ds, log_off = Dataset._laid_out(samples)
    t = ds.texts
    empty = t.index("") if "" in t else -1
    joined = "".join(t)
    if (any(ch in joined for ch in FORBIDDEN_CHARS) or ds.history_len.max(initial=0) > HISTORY_LIMIT
            or (ds.entry_query == empty).any() or (ds.entry_item == empty).any()):
        for s in ds:
            _check_sample(s)
    # entry ids are 0..E-1, so each is made a str once
    numerals = list(map(str, range(ds.entry_query.size)))
    ids = list(map(numerals.__getitem__, ds.clicks.tolist()))
    bounds = log_off.tolist()
    text = t.__getitem__
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{DATASET_FORMAT}\tversion={DATASET_VERSION}\tentries={ds.entry_query.size}"
                 f"\tlogs={len(bounds) - 1}\trows={len(ds)}\n")
        fh.writelines(map("%s\t%s\n".__mod__, zip(map(text, ds.entry_query.tolist()),
                                                   map(text, ds.entry_item.tolist()))))
        fh.writelines(" ".join(ids[a:b]) + "\n" for a, b in zip(bounds, bounds[1:]))
        fh.writelines(map("%d\t%s\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n".__mod__, zip(
            ds.user_id.tolist(), map(text, ds.query_text_id.tolist()), ds.item_id.tolist(),
            map(text, ds.item_text_id.tolist()), ds.category_match.tolist(),
            ds.contains_query.tolist(), ds.rsl.tolist(), ds.click.tolist(),
            ds.history_start.tolist(), ds.history_len.tolist(),
        )))


def parse_int(text: str, what: str, line_no: int, allowed=None) -> int:
    """An int in the writer's own form: ASCII digits, no sign but `-`, no
    leading zero, space or underscore (`int()` alone takes `+7` or `01`)."""
    try:
        v = int(text)
    except ValueError:
        v = None
    if v is None or str(v) != text:
        raise DatasetParseError(line_no, f"bad {what} {text!r}")
    if allowed is not None and v not in allowed:
        raise DatasetParseError(line_no, f"{what} {v} outside {sorted(allowed)}")
    return v


def _parse_id(text: str, what: str, line_no: int, count: int) -> int:
    v = parse_int(text, what, line_no)
    if not 0 <= v < count:
        raise DatasetParseError(line_no, f"{what} {v} outside 0..{count - 1}")
    return v


def _parse_int64(text: str, what: str, line_no: int) -> int:
    v = parse_int(text, what, line_no)
    if not _INT64_MIN <= v <= _INT64_MAX:
        raise DatasetParseError(line_no, f"{what} {v} outside the int64 range")
    return v


def _check_field(text: str, what: str, line_no: int) -> None:
    if any(ch in text for ch in _FIELD_FORBIDDEN):
        raise DatasetParseError(line_no, f"{what} contains forbidden character")


def _parse_header(line: str) -> tuple[int, int, int]:
    """(entries, logs, rows) from a dataset's first line."""
    parts = line.rstrip("\n").split("\t")
    if parts == list(_OLD_DATASET_COLUMNS):
        raise DatasetParseError(1, f"old dataset format (a whole history in every row); {_REWRITE}")
    if len(parts) < 2 or parts[0] != DATASET_FORMAT:
        raise DatasetParseError(1, "bad dataset header")
    if parts[1] == "version=2":
        raise DatasetParseError(1, f"old dataset version=2 (a table of whole histories); {_REWRITE}")
    if parts[1] != f"version={DATASET_VERSION}":
        raise DatasetParseError(1, f"unsupported dataset {parts[1]!r}")
    keys = ("entries", "logs", "rows")
    if len(parts) != 2 + len(keys):
        raise DatasetParseError(1, "bad dataset header")
    counts = []
    for part, key in zip(parts[2:], keys):
        name, _, value = part.partition("=")
        if name != key:
            raise DatasetParseError(1, f"expected {key}=<count>, got {part!r}")
        n = parse_int(value, key, 1)
        if n < 0:
            raise DatasetParseError(1, f"negative {key} count {n}")
        counts.append(n)
    return counts[0], counts[1], counts[2]


# ---------------------------------------------------------------------------
# the columnar reader
#
# Each part of the file has a fast path that checks and converts a whole
# table at once, and returns None at the first sign of a fault; the
# line-by-line path then runs over that table and raises the error of its
# first faulty line, as a reader going down the file would.


def _canonical_ids(fields: list[str], most: int):
    """(ids, ids per field) when every field is space-separated
    non-negative ints in the writer's form (at most 18 digits), none above
    `most`; None otherwise."""
    text = "\n".join(fields) + "\n"
    if not text.isascii():
        return None
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    digit = (b >= ord("0")) & (b <= ord("9"))
    space = b == ord(" ")
    newline = b == ord("\n")
    if not (digit | space | newline).all():
        return None
    # a space only between two digits: no empty id, no edge or double space
    # (the text ends with a newline, so no space is last)
    if space[0] or (space[1:-1] & ~(digit[:-2] & digit[2:])).any():
        return None
    starts = np.flatnonzero(digit & ~np.concatenate(([False], digit[:-1])))
    ends = np.flatnonzero(digit & ~np.concatenate((digit[1:], [False]))) + 1
    lengths = ends - starts
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(len(fields), dtype=np.int64)
    width = int(lengths.max())
    if width > 18 or ((b[starts] == ord("0")) & (lengths > 1)).any():
        return None
    ids = np.zeros(starts.size, dtype=np.int64)
    for k in range(width):  # the digit k places before each id's end
        d = b[np.maximum(ends - 1 - k, 0)].astype(np.int64) - ord("0")
        ids += np.where(lengths > k, d, 0) * 10**k
    if ids.max() > most:
        return None
    # the ids that start before each field's newline, less those before the last
    per_field = np.diff(np.searchsorted(starts, np.flatnonzero(newline)), prepend=0)
    return ids, per_field


def _parse_entries(lines: list[str], first: int) -> tuple[list[str], list[str]]:
    """(queries, items) of the entry table; lines[0] is line `first`."""
    if list(map(str.count, lines, itertools.repeat("\t"))).count(1) == len(lines):
        fields = "\t".join(lines).split("\t") if lines else []
        if "" not in fields and not any(ch in "\n".join(lines) for ch in _FIELD_FORBIDDEN):
            return fields[0::2], fields[1::2]
    queries, items = [], []
    for line_no, line in enumerate(lines, start=first):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DatasetParseError(line_no, f"bad history entry {line!r}")
        for text, what in zip(parts, ("history query", "history item")):
            _check_field(text, what, line_no)
        queries.append(parts[0])
        items.append(parts[1])
    return queries, items


def _logs_slow(lines: list[str], first: int, n_entries: int) -> np.ndarray:
    """The click table, parsed log line by log line; lines[0] is line `first`."""
    return np.array([_parse_id(x, "entry id", line_no, n_entries)
                     for line_no, line in enumerate(lines, start=first) if line
                     for x in line.split(" ")], dtype=np.int64)


def _ints_in(fields: list[str], lo: int, hi: int):
    """One int per field, each in lo..hi (lo >= 0); None otherwise."""
    parsed = _canonical_ids(fields, hi)
    if parsed is None or (parsed[1] != 1).any() or (parsed[0] < lo).any():
        return None
    return parsed[0]


def _rows_fast(lines: list[str], n_clicks: int):
    """The ten columns of the impression rows, or None."""
    n_cols = len(DATASET_COLUMNS)
    if not lines:
        return [[] for _ in DATASET_COLUMNS]
    if list(map(str.count, lines, itertools.repeat("\t"))).count(n_cols - 1) != len(lines):
        return None
    fields = "\t".join(lines).split("\t")
    user_id, qtext, item_id, itext, cm, cq, rsl, click, start, length = (
        fields[k::n_cols] for k in range(n_cols)
    )
    if any(ch in "\n".join(dict.fromkeys(qtext + itext)) for ch in _FIELD_FORBIDDEN):
        return None
    ints = [_ints_in(col, lo, hi) for col, lo, hi in (
        (user_id, 0, _INT64_MAX), (item_id, 0, _INT64_MAX), (cm, 0, 1), (cq, 0, 1),
        (rsl, 1, 4), (click, 0, 1), (start, 0, n_clicks), (length, 0, HISTORY_LIMIT),
    )]
    if any(v is None for v in ints) or (ints[-2] + ints[-1] > n_clicks).any():
        return None
    return [ints[0], qtext, ints[1], itext, *ints[2:]]


def _rows_slow(lines: list[str], first: int, n_clicks: int):
    """The ten columns, row by row; raises at the first faulty row."""
    cols: list[list] = [[] for _ in DATASET_COLUMNS]
    checked: set[str] = set()
    for line_no, line in enumerate(lines, start=first):
        parts = line.split("\t")
        if len(parts) != len(DATASET_COLUMNS):
            raise DatasetParseError(
                line_no, f"expected {len(DATASET_COLUMNS)} columns, got {len(parts)}"
            )
        user_id, qtext, item_id, itext, cm, cq, rsl, click, start, length = parts
        for text, what in ((qtext, "query_text"), (itext, "item_text")):
            if text not in checked:
                _check_field(text, what, line_no)
                checked.add(text)
        values = (
            _parse_int64(user_id, "user_id", line_no),
            qtext,
            _parse_int64(item_id, "item_id", line_no),
            itext,
            parse_int(cm, "category_match", line_no, {0, 1}),
            parse_int(cq, "contains_query", line_no, {0, 1}),
            parse_int(rsl, "rsl", line_no, {1, 2, 3, 4}),
            parse_int(click, "click", line_no, {0, 1}),
            _parse_id(start, "history_start", line_no, n_clicks + 1),
            _parse_id(length, "history_len", line_no, HISTORY_LIMIT + 1),
        )
        if values[-2] + values[-1] > n_clicks:
            raise DatasetParseError(line_no, f"history window of {values[-1]} clicks from "
                                             f"{values[-2]} ends past the {n_clicks} clicks")
        for col, v in zip(cols, values):
            col.append(v)
    return cols


def read_dataset(path) -> Dataset:
    """Inverse of write_dataset, as a columnar Dataset (the file holds no
    truth fields).

    Every error names the file and its 1-based line; in a file with several
    faults, the first in file order. A file with fewer or more rows than its
    header counts is refused, so a file cut at a line boundary does not pass
    as a shorter split.
    """
    with open_text(path) as fh:
        lines = fh.read().split("\n")
        if lines[-1] == "":
            lines.pop()  # the newline that ends the last line
        n_entries, n_logs, n_rows = _parse_header(lines[0] if lines else "")
        at = 1
        queries, items = _parse_entries(lines[at : at + n_entries], at + 1)
        if len(queries) < n_entries:
            raise DatasetParseError(len(lines) + 1, "file ends inside the entry table")
        at += n_entries
        log_lines = lines[at : at + n_logs]
        fast = _canonical_ids(log_lines, n_entries - 1)
        clicks = _logs_slow(log_lines, at + 1, n_entries) if fast is None else fast[0]
        if len(log_lines) < n_logs:
            raise DatasetParseError(len(lines) + 1, "file ends inside the log table")
        at += n_logs
        rows = lines[at : at + n_rows]
        cols = _rows_fast(rows, clicks.size)
        if cols is None:
            cols = _rows_slow(rows, at + 1, clicks.size)
        if len(rows) < n_rows:
            raise DatasetParseError(len(lines) + 1, f"file ends after {len(rows)} of its {n_rows} rows")
        if len(lines) > at + n_rows:
            raise DatasetParseError(at + n_rows + 1, f"more rows than the header's rows={n_rows}")
    ints = dict(zip(DATASET_COLUMNS, cols))
    qtext, itext = ints.pop("query_text"), ints.pop("item_text")
    # one str object per distinct text, shared by the rows and entries
    texts = list(dict.fromkeys(itertools.chain(qtext, itext, queries, items)))
    text_id = dict(zip(texts, range(len(texts))))

    def ids(strings):
        return np.fromiter(map(text_id.__getitem__, strings), dtype=np.int64, count=len(strings))

    return Dataset(texts=texts, query_text_id=ids(qtext), item_text_id=ids(itext),
                   entry_query=ids(queries), entry_item=ids(items), clicks=clicks,
                   **{name: np.asarray(col, dtype=np.int64).reshape(-1) for name, col in ints.items()})


def write_sidecar(samples: list[Sample], path: str) -> None:
    """Ground-truth manifest, one row per sample in dataset order; every
    sample is checked before the file is opened."""
    truths = [s.truth for s in samples]
    if any(t is None for t in truths):
        raise ValidationError("sample has no ground truth to write")
    columns = ([getattr(t, name) for t in truths] for name in SIDECAR_COLUMNS)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(SIDECAR_COLUMNS) + "\n")
        # %-formatting gives the digits of format(v, ".17g")
        fh.writelines(map("\t".join(["%.17g"] * len(SIDECAR_COLUMNS)).__add__("\n").__mod__,
                          zip(*columns)))
