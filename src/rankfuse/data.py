"""Seeded synthetic search-impression corpus with ground-truth relevance.

The generator builds a small e-commerce world (users with heterogeneous
relevance sensitivity, items with categories/descriptors/quality, queries
derived from items) and simulates click logs over it. True relevance, item
quality, user sensitivity and the click probability live in a sidecar
manifest that the model-visible dataset never contains.

Dataset files store each distinct click history once, in a history table
that rows refer to by id (see write_dataset); the per-row format before it
is refused with a message to re-run `rankfuse gen-data`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict

import numpy as np

from .autodiff import np_sigmoid
from .checkpoint import ZIP_MAGIC
from .encoder import PAIR_KEY_SEP, tokenize
from .errors import DatasetParseError, ValidationError

HISTORY_LIMIT = 50
DATASET_FORMAT = "rankfuse-dataset"
DATASET_VERSION = 2
# the columns of an impression row; history_id points into the history table
DATASET_COLUMNS = (
    "user_id",
    "query_text",
    "item_id",
    "item_text",
    "category_match",
    "contains_query",
    "rsl",
    "click",
    "history_id",
)
# the header of the first format, which wrote each row's whole history
_OLD_DATASET_COLUMNS = DATASET_COLUMNS[:-1] + ("history",)
SIDECAR_COLUMNS = ("relevance", "quality", "sensitivity", "true_click_prob")
# texts travel in tab-separated files read with universal newlines (so \r
# would end a line too), `rank` reads ^-paired history lines, and the
# embedding index joins a query and an item with PAIR_KEY_SEP; ; joined
# history entries in the first dataset format and stays forbidden, so both
# formats hold the same texts
FORBIDDEN_CHARS = ("\t", ";", "^", "\n", "\r", PAIR_KEY_SEP)
# what a reader can still find inside a tab-separated field
_FIELD_FORBIDDEN = (";", "^", PAIR_KEY_SEP)

_SYLLABLES = [c + v for c in "bdklmnprstvz" for v in "aeiou"]


@dataclass
class GeneratorConfig:
    seed: int = 0
    n_users: int = 200
    n_items: int = 1000
    n_queries: int = 300
    n_impressions: int = 20000
    n_categories: int = 12
    n_descriptors: int = 120
    w_quality: float = 3.0
    w_relevance: float = 3.0
    bias: float = -1.0
    rsl_thresholds: tuple[float, float, float] = (0.25, 0.5, 0.75)
    sensitivity_a: float = 2.0
    sensitivity_b: float = 2.0

    def __post_init__(self):
        for name in ("n_users", "n_items", "n_queries", "n_impressions", "n_categories", "n_descriptors"):
            if int(getattr(self, name)) <= 0:
                raise ValidationError(f"{name} must be positive")
        self.rsl_thresholds = tuple(float(t) for t in self.rsl_thresholds)
        ts = self.rsl_thresholds
        if len(ts) != 3 or not all(0.0 < a < 1.0 for a in ts) or not (ts[0] < ts[1] < ts[2]):
            raise ValidationError("rsl_thresholds must be strictly increasing within (0,1)")
        for name in ("w_quality", "w_relevance", "bias"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.sensitivity_a <= 0 or self.sensitivity_b <= 0:
            raise ValidationError("sensitivity beta parameters must be positive")


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


# ---------------------------------------------------------------------------
# relevance and click oracles


def ground_truth_relevance(query_text: str, item_text: str) -> float:
    """Weighted token overlap in [0,1]; 0.5 for category match, 0.5 scaled
    by descriptor-set Jaccard.

    The first token of each text is its category. When both descriptor sets
    are empty the Jaccard part follows the category (identical single-token
    texts are fully relevant, disjoint ones fully irrelevant). Any empty
    text scores 0.
    """
    qt = tokenize(query_text)
    it = tokenize(item_text)
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


def assign_rsl(relevance: float, thresholds: tuple[float, float, float] = (0.25, 0.5, 0.75)) -> int:
    """Bucket a [0,1] relevance into levels 1..4, lower-inclusive thresholds."""
    if not (0.0 <= relevance <= 1.0):
        raise ValidationError(f"relevance {relevance!r} outside [0,1]")
    level = 1
    for t in thresholds:
        if relevance >= t:
            level += 1
    return level


def simulate_click(
    sensitivity: float,
    quality: float,
    relevance: float,
    config: GeneratorConfig,
    rng: np.random.Generator,
) -> tuple[int, float]:
    """Draw a click; returns (click, true probability).

    p = sigmoid(w_quality*(quality-1/2) + w_relevance*sensitivity*(relevance-1/2) + bias),
    so insensitive users (s=0) click on quality alone.
    """
    for name, v in (("sensitivity", sensitivity), ("quality", quality), ("relevance", relevance)):
        if not (0.0 <= v <= 1.0):
            raise ValidationError(f"{name} {v!r} outside [0,1]")
    z = (
        config.w_quality * (quality - 0.5)
        + config.w_relevance * sensitivity * (relevance - 0.5)
        + config.bias
    )
    p = float(np_sigmoid(np.float64(z)))
    return int(rng.random() < p), p


def derive_flags(query_text: str, item_text: str) -> tuple[int, int]:
    """(category_match, contains_query) recomputed from the raw texts."""
    qt = tokenize(query_text)
    it = tokenize(item_text)
    if not qt or not it:
        return 0, 0
    category_match = int(qt[0] == it[0])
    contains_query = int(set(qt) <= set(it))
    return category_match, contains_query


# ---------------------------------------------------------------------------
# corpus generation


def _pseudo_words(rng: np.random.Generator, count: int, n_syllables: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < count:
        w = "".join(rng.choice(_SYLLABLES) for _ in range(n_syllables))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def generate_corpus(config: GeneratorConfig) -> tuple[list[Sample], dict]:
    """Simulate a click log; returns (samples, manifest).

    Impressions mix the query's source item, cross-category descriptor
    variants, same-category items and uniform draws so that all four
    relevance levels occur. Clicked impressions roll into that user's
    history (most recent first, capped at HISTORY_LIMIT) which each later
    sample snapshots as its prediction-time context.
    """
    rng = np.random.default_rng(config.seed)
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
            base = int(rng.integers(0, j))
            desc = list(item_desc[base])
            variants_of.setdefault(base, []).append(j)
        else:
            k = int(rng.integers(3, 9))
            desc = list(rng.choice(descriptors, size=k, replace=False))
        _add_item(int(rng.integers(0, config.n_categories)), desc)

    query_source = rng.integers(0, n_base, size=config.n_queries)
    query_text: list[str] = []
    query_desc: list[list[str]] = []
    for q in range(config.n_queries):
        src = int(query_source[q])
        d = min(int(rng.integers(0, 4)), len(item_desc[src]))
        picked = list(rng.choice(item_desc[src], size=d, replace=False)) if d else []
        query_text.append(" ".join([categories[item_cat[src]]] + picked))
        query_desc.append(picked)

    # weakly-relevant lookalikes: a different category but enough shared
    # descriptors that the weighted overlap lands in the second bucket
    rich = [q for q in range(config.n_queries) if query_desc[q]]
    for _ in range(config.n_items - n_base):
        if not rich or config.n_categories < 2:
            k = int(rng.integers(3, 9))
            _add_item(int(rng.integers(0, config.n_categories)), list(rng.choice(descriptors, size=k, replace=False)))
            continue
        q = int(rich[int(rng.integers(0, len(rich)))])
        src = int(query_source[q])
        d = len(query_desc[q])
        size = 2 if d == 1 else int(rng.integers(d + 1, 2 * d + 1))
        others = [w for w in descriptors if w not in set(query_desc[q])]
        pad = list(rng.choice(others, size=size - d, replace=False))
        cat = int(rng.integers(0, config.n_categories - 1))
        if cat >= int(item_cat[src]):
            cat += 1
        j = _add_item(cat, query_desc[q] + pad)
        variants_of.setdefault(src, []).append(j)

    item_quality = rng.uniform(0.0, 1.0, size=config.n_items)

    sensitivity = rng.beta(config.sensitivity_a, config.sensitivity_b, size=config.n_users)

    histories: list[list[tuple[str, str]]] = [[] for _ in range(config.n_users)]
    samples: list[Sample] = []
    rsl_counts = {1: 0, 2: 0, 3: 0, 4: 0}
    clicks = 0
    for _ in range(config.n_impressions):
        u = int(rng.integers(0, config.n_users))
        q = int(rng.integers(0, config.n_queries))
        src = int(query_source[q])
        mode = rng.random()
        if mode < 0.25:
            j = src
        elif mode < 0.5:
            pool = variants_of.get(src) or by_category[int(item_cat[src])]
            j = int(pool[int(rng.integers(0, len(pool)))])
        elif mode < 0.75:
            pool = by_category[int(item_cat[src])]
            j = int(pool[int(rng.integers(0, len(pool)))])
        else:
            j = int(rng.integers(0, config.n_items))

        r = ground_truth_relevance(query_text[q], item_text[j])
        rsl = assign_rsl(r, config.rsl_thresholds)
        category_match, contains_query = derive_flags(query_text[q], item_text[j])
        y, prob = simulate_click(float(sensitivity[u]), float(item_quality[j]), r, config, rng)
        samples.append(
            Sample(
                user_id=u,
                query_text=query_text[q],
                item_id=j,
                item_text=item_text[j],
                category_match=category_match,
                contains_query=contains_query,
                rsl=rsl,
                click=y,
                history=list(histories[u]),
                truth=GroundTruth(
                    relevance=r,
                    quality=float(item_quality[j]),
                    sensitivity=float(sensitivity[u]),
                    true_click_prob=prob,
                ),
            )
        )
        rsl_counts[rsl] += 1
        clicks += y
        if y:
            histories[u].insert(0, (query_text[q], item_text[j]))
            del histories[u][HISTORY_LIMIT:]

    manifest = {
        "config": asdict(config),
        "n_samples": len(samples),
        "click_rate": clicks / len(samples),
        "rsl_counts": rsl_counts,
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


def write_dataset(samples: list[Sample], path: str) -> None:
    """Write the model-visible records; truth fields are left out.

    Each distinct history is written once and rows refer to it by id:
    - line 1, the header: `rankfuse-dataset`, `version=2`, `entries=<E>` and
      `histories=<H>`, tab-separated;
    - E lines, the entry table: `<query>\t<item>`; entry ids count from 0;
    - H lines, the history table: entry ids joined by single spaces, newest
      first (an empty line is the empty history); history ids count from 0;
    - one row per sample: the DATASET_COLUMNS, tab-separated.
    Ids are given in order of first appearance, so the bytes depend only on
    `samples`. Every sample is checked before the file is opened.
    """
    entry_id: dict[tuple[str, str], int] = {}
    hist_id: dict[tuple, int] = {}
    hist_lines: list[str] = []
    rows: list[str] = []
    checked: set[str] = set()
    for s in samples:
        history = tuple(s.history)
        h = hist_id.get(history)
        if h is None:
            if len(history) > HISTORY_LIMIT:
                raise ValidationError(f"history longer than {HISTORY_LIMIT}")
            ids = []
            for entry in history:
                e = entry_id.get(entry)
                if e is None:
                    q, i = entry
                    if not q or not i:
                        raise ValidationError("history entries must be non-empty")
                    check_text(q, "history query")
                    check_text(i, "history item")
                    e = entry_id[entry] = len(entry_id)
                ids.append(str(e))
            h = hist_id[history] = len(hist_lines)
            hist_lines.append(" ".join(ids))
        for text, what in ((s.query_text, "query_text"), (s.item_text, "item_text")):
            if text not in checked:
                checked.add(check_text(text, what))
        rows.append(
            "\t".join((
                str(int(s.user_id)),
                s.query_text,
                str(int(s.item_id)),
                s.item_text,
                str(int(s.category_match)),
                str(int(s.contains_query)),
                str(int(s.rsl)),
                str(int(s.click)),
                str(h),
            ))
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{DATASET_FORMAT}\tversion={DATASET_VERSION}"
            f"\tentries={len(entry_id)}\thistories={len(hist_lines)}\n"
        )
        fh.writelines(f"{q}\t{i}\n" for q, i in entry_id)
        fh.writelines(line + "\n" for line in hist_lines)
        fh.writelines(row + "\n" for row in rows)


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


def _history_ids(line: str, line_no: int, n_entries: int) -> list[int]:
    """The entry ids of one history-table line, each in 0..n_entries-1."""
    try:
        ids = list(map(int, line.split(" "))) if line else []
    except ValueError:
        ids = None
    if ids is None or (ids and (min(ids) < 0 or max(ids) >= n_entries
                                or " ".join(map(str, ids)) != line)):
        # the slow path names the first bad id
        ids = [_parse_id(x, "entry id", line_no, n_entries) for x in line.split(" ")]
    return ids


def _check_field(text: str, what: str, line_no: int) -> None:
    if any(ch in text for ch in _FIELD_FORBIDDEN):
        raise DatasetParseError(line_no, f"{what} contains forbidden character")


def _parse_header(line: str) -> tuple[int, int]:
    """(entries, histories) from a dataset's first line."""
    parts = line.rstrip("\n").split("\t")
    if parts == list(_OLD_DATASET_COLUMNS):
        raise DatasetParseError(
            1, "old dataset format (a whole history in every row); "
            "re-run `rankfuse gen-data` to rewrite it"
        )
    if len(parts) != 4 or parts[0] != DATASET_FORMAT:
        raise DatasetParseError(1, "bad dataset header")
    if parts[1] != f"version={DATASET_VERSION}":
        raise DatasetParseError(1, f"unsupported dataset {parts[1]!r}")
    counts = []
    for part, key in zip(parts[2:], ("entries", "histories")):
        name, _, value = part.partition("=")
        if name != key:
            raise DatasetParseError(1, f"expected {key}=<count>, got {part!r}")
        n = parse_int(value, key, 1)
        if n < 0:
            raise DatasetParseError(1, f"negative {key} count {n}")
        counts.append(n)
    return counts[0], counts[1]


def _table_line(fh, line_no: int, table: str) -> str:
    line = fh.readline()
    if not line:
        raise DatasetParseError(line_no, f"file ends inside the {table} table")
    return line.rstrip("\n")


def read_dataset(path: str) -> list[Sample]:
    """Inverse of write_dataset; truth fields come back as None.

    Rows that share a history share one list object, and histories that
    share an entry share one tuple, so a sample's `history` is read-only.
    Every error names the file and its 1-based line.
    """
    samples = []
    with open_text(path) as fh:
        n_entries, n_histories = _parse_header(fh.readline())
        line_no = 1
        entries: list[tuple[str, str]] = []
        for _ in range(n_entries):
            line_no += 1
            line = _table_line(fh, line_no, "entry")
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise DatasetParseError(line_no, f"bad history entry {line!r}")
            for text, what in zip(parts, ("history query", "history item")):
                _check_field(text, what, line_no)
            entries.append((parts[0], parts[1]))
        histories: list[list[tuple[str, str]]] = []
        for _ in range(n_histories):
            line_no += 1
            line = _table_line(fh, line_no, "history")
            ids = _history_ids(line, line_no, n_entries)
            if len(ids) > HISTORY_LIMIT:
                raise DatasetParseError(line_no, f"history longer than {HISTORY_LIMIT}")
            histories.append([entries[e] for e in ids])

        # one str object per distinct text, checked once
        texts: dict[str, str] = {}
        for line_no, line in enumerate(fh, start=line_no + 1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(DATASET_COLUMNS):
                raise DatasetParseError(
                    line_no, f"expected {len(DATASET_COLUMNS)} columns, got {len(parts)}"
                )
            user_id, qtext, item_id, itext, cm, cq, rsl, click, hist = parts
            for text, what in ((qtext, "query_text"), (itext, "item_text")):
                if text not in texts:
                    _check_field(text, what, line_no)
                    texts[text] = text
            samples.append(
                Sample(
                    user_id=parse_int(user_id, "user_id", line_no),
                    query_text=texts[qtext],
                    item_id=parse_int(item_id, "item_id", line_no),
                    item_text=texts[itext],
                    category_match=parse_int(cm, "category_match", line_no, {0, 1}),
                    contains_query=parse_int(cq, "contains_query", line_no, {0, 1}),
                    rsl=parse_int(rsl, "rsl", line_no, {1, 2, 3, 4}),
                    click=parse_int(click, "click", line_no, {0, 1}),
                    history=histories[_parse_id(hist, "history_id", line_no, n_histories)],
                )
            )
    return samples


def write_sidecar(samples: list[Sample], path: str) -> None:
    """Ground-truth manifest, one row per sample in dataset order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(SIDECAR_COLUMNS) + "\n")
        for s in samples:
            if s.truth is None:
                raise ValidationError("sample has no ground truth to write")
            t = s.truth
            fh.write(
                "\t".join(
                    f"{v:.17g}" for v in (t.relevance, t.quality, t.sensitivity, t.true_click_prob)
                )
                + "\n"
            )


def read_sidecar(path: str) -> list[GroundTruth]:
    truths = []
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n")
        if header.split("\t") != list(SIDECAR_COLUMNS):
            raise DatasetParseError(1, "bad sidecar header")
        for line_no, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(SIDECAR_COLUMNS):
                raise DatasetParseError(
                    line_no, f"expected {len(SIDECAR_COLUMNS)} columns, got {len(parts)}"
                )
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                raise DatasetParseError(line_no, "bad float field") from None
            truths.append(GroundTruth(*vals))
    return truths


def attach_sidecar(samples: list[Sample], truths: list[GroundTruth]) -> list[Sample]:
    """Pairs truth rows back onto samples (dataset order)."""
    if len(samples) != len(truths):
        raise ValidationError(f"{len(samples)} samples but {len(truths)} truth rows")
    for s, t in zip(samples, truths):
        s.truth = t
    return samples
