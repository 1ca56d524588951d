import numpy as np
import pytest

from rankfuse import data as dt
from rankfuse import evaluation as ev
from rankfuse import model as md
from rankfuse.encoder import PAIR_KEY_SEP, EmbeddingIndex
from rankfuse.errors import DatasetParseError, UndefinedMetricError, ValidationError


def imp(uid, score, click, q="q", item=None):
    return ev.ScoredImpression(uid, q, item or f"it{score}", float(score), click)


def split(rows):
    """A Dataset of (user, query, item, score, click) rows, and its scores."""
    ds = dt.Dataset.from_samples(
        [dt.Sample(u, q, 0, item, 0, 0, 1, click, []) for u, q, item, _, click in rows])
    return ds, np.array([r[3] for r in rows], dtype=np.float64)


def make_index(samples, d, seed=11):
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


# ---------------------------------------------------------------------------
# AUC


def test_auc_trivial_cases():
    assert ev.auc_scores(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
    assert ev.auc_scores(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0])) == 0.0
    assert ev.auc_scores(np.full(6, 0.4), np.array([1, 0, 1, 0, 1, 0])) == 0.5


def test_auc_fast_equals_brute_force_exactly():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 401))
        # coarse grid forces plenty of exact ties
        scores = rng.integers(0, 12, size=n) / 7.0
        clicks = rng.integers(0, 2, size=n)
        if clicks.min() == clicks.max():
            clicks[0] = 1 - clicks[0]
        fast = ev.auc_scores(scores, clicks)
        brute = ev.auc_scores_brute_force(scores, clicks)
        assert fast == brute
    # one big instance near the documented bound
    n = 2000
    scores = rng.normal(size=n)
    clicks = rng.integers(0, 2, size=n)
    assert ev.auc_scores(scores, clicks) == ev.auc_scores_brute_force(scores, clicks)


def test_auc_negation_antisymmetry():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 200))
        scores = rng.integers(0, 9, size=n) / 4.0
        clicks = rng.integers(0, 2, size=n)
        if clicks.min() == clicks.max():
            clicks[0] = 1 - clicks[0]
        a = ev.auc_scores(scores, clicks)
        b = ev.auc_scores(-scores, clicks)
        assert abs(a - (1.0 - b)) < 1e-12


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 200))
        scores = np.round(rng.normal(size=n), 3)
        clicks = rng.integers(0, 2, size=n)
        if clicks.min() == clicks.max():
            clicks[0] = 1 - clicks[0]
        base = ev.auc_scores(scores, clicks)
        assert ev.auc_scores(2.0 * scores + 3.0, clicks) == base
        assert ev.auc_scores(np.exp(scores), clicks) == base


def test_auc_single_class_rejected():
    with pytest.raises(UndefinedMetricError):
        ev.auc_scores(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(UndefinedMetricError):
        ev.auc_scores(np.array([0.1, 0.2]), np.array([0, 0]))
    with pytest.raises(UndefinedMetricError):
        ev.auc_scores_brute_force(np.array([0.1, 0.2]), np.array([0, 0]))


def test_auc_input_validation():
    with pytest.raises(ValidationError):
        ev.auc_scores(np.array([0.1, np.inf]), np.array([1, 0]))
    with pytest.raises(ValidationError):
        ev.auc_scores(np.array([0.1, 0.2, 0.3]), np.array([1, 0]))


def test_scored_impression_validation():
    # the list forms and the columns refuse a non-finite score, a click
    # outside {0, 1}, and a score count that is not the row count
    for bad in (imp(1, float("nan"), 0), imp(1, 0.5, 2), imp(1, 0.5, 0.5)):
        rows = [bad, imp(1, 0.1, 0, item="a"), imp(1, 0.9, 1, item="b")]
        for metric in (ev.auc, ev.gauc):
            with pytest.raises(ValidationError):
                metric(rows)
    ds, scores = split([(1, "q", "a", 0.1, 0), (1, "q", "b", 0.9, 1), (2, "q", "c", 0.5, 1)])
    for bad in (np.r_[scores[:2], np.nan], scores[:2]):
        with pytest.raises(ValidationError):
            ev.evaluate_scores(ds, bad)
    ds.click[2] = 2
    with pytest.raises(ValidationError):
        ev.evaluate_scores(ds, scores)
    with pytest.raises(ValidationError):
        ev.auc_scores(np.array([0.1, 0.2]), np.array([1, 2]))


# ---------------------------------------------------------------------------
# GAUC


def test_gauc_hand_value():
    rows = []
    # user 1: 10 impressions, perfectly separated
    for k in range(5):
        rows.append(imp(1, 0.9 + k / 100, 1, item=f"a{k}"))
        rows.append(imp(1, 0.1 + k / 100, 0, item=f"b{k}"))
    # user 2: 30 impressions, all tied
    for k in range(15):
        rows.append(imp(2, 0.5, 1, item=f"c{k}"))
        rows.append(imp(2, 0.5, 0, item=f"d{k}"))
    assert ev.gauc(rows) == 0.625


def test_gauc_single_user_equals_auc():
    rng = np.random.default_rng(3)
    rows = [imp(7, float(rng.normal()), int(rng.integers(0, 2)), item=f"i{k}") for k in range(50)]
    if all(r.click == 0 for r in rows) or all(r.click == 1 for r in rows):
        rows[0].click = 1 - rows[0].click
    assert ev.gauc(rows) == ev.auc(rows)


def test_gauc_excludes_single_class_users():
    rows = []
    for k in range(4):
        rows.append(imp(1, 0.8 - k / 10, 1 if k < 2 else 0, item=f"a{k}"))
    base = ev.gauc(rows)
    # a user with only positives changes nothing
    rows_plus = rows + [imp(9, 0.99, 1, item=f"p{k}") for k in range(5)]
    assert ev.gauc(rows_plus) == base


def test_gauc_no_eligible_user():
    rows = [imp(1, 0.5, 1), imp(2, 0.5, 0, item="other")]
    with pytest.raises(UndefinedMetricError):
        ev.gauc(rows)


# ---------------------------------------------------------------------------
# RelaImpr


def test_rela_impr_reference_rows():
    # lift-over-random ratios reported for the public ad corpus
    assert abs(ev.rela_impr(0.6835, 0.7527) - (-27.36)) < 0.05
    assert abs(ev.rela_impr(0.7546, 0.7527) - 0.76) < 0.05
    assert abs(ev.rela_impr(0.7548, 0.7527) - 0.82) < 0.05
    assert abs(ev.rela_impr(0.6882, 0.6845) - 1.99) < 0.05


def test_rela_impr_identity_and_error():
    assert ev.rela_impr(0.777, 0.777) == 0.0
    with pytest.raises(UndefinedMetricError):
        ev.rela_impr(0.7, 0.5)


# ---------------------------------------------------------------------------
# relevance score


def unit_index(vectors: dict[str, np.ndarray], d: int) -> EmbeddingIndex:
    idx = EmbeddingIndex(dim=d, checkpoint_id="fixture")
    idx.text.update({k: np.asarray(v, dtype=np.float64) for k, v in vectors.items()})
    return idx


def test_relevance_score_identical_and_orthogonal():
    e = np.array([1.0, 0.0])
    idx = unit_index({"q": e, "same": e, "orth": np.array([0.0, 1.0])}, 2)
    assert ev.relevance_score(*split([(1, "q", "same", 0.9, 1)]), idx) == 1.0
    assert ev.relevance_score(*split([(1, "q", "orth", 0.9, 1)]), idx) == 0.0


def test_relevance_score_hand_instance():
    idx = unit_index(
        {"q": np.array([1.0, 0.0]), "a": np.array([1.0, 0.0]), "b": np.array([0.6, 0.8])}, 2
    )
    got = ev.relevance_score(*split([(1, "q", "a", 0.9, 1), (1, "q", "b", 0.1, 0)]), idx)
    assert abs(got - 0.8) < 1e-12  # mean of cos 1.0 and cos 0.6


def test_relevance_score_top_10_interception():
    # 15 candidates: ranks 0..14 by score; only the 10 best count
    d = 2
    vectors = {"q": np.array([1.0, 0.0])}
    rows = []
    for k in range(15):
        cos = 1.0 if k < 10 else 0.0  # high-ranked items aligned, tail orthogonal
        vectors[f"i{k:02d}"] = np.array([cos, 1.0 - cos])
        rows.append((1, "q", f"i{k:02d}", 15 - k, int(k == 0)))
    idx = unit_index(vectors, d)
    assert ev.relevance_score(*split(rows), idx) == 1.0


def test_relevance_score_short_list_denominator():
    # 3-item list: denominator is 3, not 10
    idx = unit_index(
        {
            "q": np.array([1.0, 0.0]),
            "a": np.array([1.0, 0.0]),
            "b": np.array([0.0, 1.0]),
            "c": np.array([0.0, 1.0]),
        },
        2,
    )
    rows = [(1, "q", "a", 0.9, 1), (1, "q", "b", 0.5, 0), (1, "q", "c", 0.1, 0)]
    assert abs(ev.relevance_score(*split(rows), idx) - 1.0 / 3.0) < 1e-12


def test_relevance_score_tiebreak_is_item_text():
    # ten rows tie behind "mmm" for the last nine places of the top 10; item
    # text decides, so "zzz", listed first, is the one left out
    e, orth = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    idx = unit_index({"q": e, "mmm": e, "zzz": orth, **{f"a{k}": e for k in range(9)}}, 2)
    rows = [(1, "q", "zzz", 0.5, 0)] + [(1, "q", f"a{k}", 0.5, 0) for k in range(9)]
    assert ev.relevance_score(*split(rows + [(1, "q", "mmm", 0.9, 1)]), idx) == 1.0


def test_relevance_score_empty_rejected():
    idx = unit_index({}, 2)
    with pytest.raises(UndefinedMetricError):
        ev.relevance_score(*split([]), idx)


def test_relevance_score_merges_users_per_query():
    # one list per query text, whichever user saw it: user 2's ten rows rank
    # behind user 1's in "q" and fall out of its top 10
    e, orth = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    vectors = {"q": e, "other": e, "c": orth, **{f"a{k}": e for k in range(10)},
               **{f"b{k}": orth for k in range(10)}}
    rows = ([(1, "q", f"a{k}", 0.9, 1) for k in range(10)]
            + [(2, "q", f"b{k}", 0.1, 0) for k in range(10)] + [(3, "other", "c", 0.5, 0)])
    assert ev.relevance_score(*split(rows), unit_index(vectors, 2)) == 10 / 11


# ---------------------------------------------------------------------------
# report and comparison


def test_evaluate_scores_report_consistency():
    rng = np.random.default_rng(21)
    rows = [(uid, f"q{k % 3}", f"i{k}", float(rng.normal()), int(rng.random() < 0.3))
            for uid in range(6) for k in range(20)]
    ds, scores = split(rows)
    report = ev.evaluate_scores(ds, scores)
    impressions = [ev.ScoredImpression(*r) for r in rows]
    assert report.auc == ev.auc_scores(scores, ds.click) == ev.auc(impressions)
    assert report.gauc == ev.gauc(impressions)
    assert report.relevance_score is None


@pytest.mark.parametrize("seed", range(5))
def test_metrics_equal_per_user_and_sorted_references(seed):
    # heavy ties, many users, and (query, item) pairs shown to several users
    rng = np.random.default_rng(seed)
    n = 600
    users = rng.integers(0, 40, size=n)
    queries = [f"q{k}" for k in rng.integers(0, 6, size=n)]
    items = [f"i{k}" for k in rng.integers(0, 15, size=n)]
    rows = list(zip(users.tolist(), queries, items, (rng.integers(0, 6, size=n) / 5.0).tolist(),
                    rng.integers(0, 2, size=n).tolist()))
    ds, scores = split(rows)
    clicks = ds.click
    seen_by = {}
    for u, q, i, _, _ in rows:
        seen_by.setdefault((q, i), set()).add(u)
    assert max(map(len, seen_by.values())) > 1
    index = make_index(ds, 8, seed=seed)
    report = ev.evaluate_scores(ds, scores, index)

    # GAUC: brute-force AUC per user, weighted by count, summed in user order
    table = []
    for u in sorted(set(users.tolist())):
        m = users == u
        if 0 < clicks[m].sum() < m.sum():
            table.append((ev.auc_scores_brute_force(scores[m], clicks[m]), int(m.sum())))
    assert len(table) > 1
    assert report.gauc == sum(a * w for a, w in table) / sum(w for _, w in table)
    assert report.auc == ev.auc_scores_brute_force(scores, clicks)

    # relevance: each query text's rows sorted by (-score, item text), top 10
    total, count = 0.0, 0
    for q in sorted(set(queries)):
        ranked = sorted((r for r in rows if r[1] == q), key=lambda r: (-r[3], r[2]))
        assert len(ranked) > ev.TOP_K
        for _, _, item, _, _ in ranked[: ev.TOP_K]:
            a, b = index.lookup_text(q), index.lookup_text(item)
            norms = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
            total += float(a @ b) / max(norms, ev.COSINE_FLOOR)
            count += 1
    assert report.relevance_score == total / count


def small_corpus(n=300, seed=9):
    cfg = dt.GeneratorConfig(seed=seed, n_users=30, n_items=80, n_queries=40, n_impressions=n)
    samples, _ = dt.generate_corpus(cfg)
    return samples


def test_run_comparison_self_and_layout(tmp_path):
    samples = small_corpus()
    mcfg = md.ModelConfig(
        d=8,
        field_dim=4,
        user_buckets=64,
        item_buckets=128,
        category_buckets=16,
        token_buckets=128,
        base_hidden=(8,),
        rsl_hidden=(8,),
        incentive_hidden=(4,),
        seed=5,
    )
    index = make_index(samples, 8)
    params = md.build_model(mcfg)
    ckpt = tmp_path / "full.ckpt"
    md.save_model(params, ckpt)

    rows = ev.run_comparison([("full", str(ckpt)), ("again", str(ckpt))], samples, index)
    assert len(rows) == 2
    assert rows[0]["variant"] == "full"
    assert rows[0]["rela_impr"] == 0.0
    assert rows[1]["auc"] == rows[0]["auc"]
    assert rows[1]["gauc"] == rows[0]["gauc"]
    assert rows[1]["rela_impr"] == 0.0

    table = ev.format_comparison(rows)
    lines = table.splitlines()
    assert lines[0].split("\t") == list(ev.COMPARISON_COLUMNS)
    assert len(lines) == 3

    mlines = ev.metric_lines(rows)
    assert len(mlines) == 8
    for line in mlines:
        name, value = line.split("\t")
        float(value)  # parses
        assert name.split(".")[0] in ("full", "again")


def test_read_metrics_file_errors_name_the_file(tmp_path):
    good = tmp_path / "metrics.txt"
    good.write_text("full.auc\t0.75\n\nfull.gauc\t0.5\n", encoding="utf-8")
    assert ev.read_metrics_file(good) == {"full.auc": 0.75, "full.gauc": 0.5}
    cases = (
        (b"x\xff", None, "not UTF-8"),
        (b"full.auc\t0.75\nfull.gauc\n", 2, "expected name"),
        (b"full.auc\tlow\n", 1, "bad metric value"),
    )
    for n, (content, line, words) in enumerate(cases):
        path = tmp_path / f"bad{n}.txt"
        path.write_bytes(content)
        with pytest.raises(DatasetParseError) as err:
            ev.read_metrics_file(path)
        assert err.value.path == path and err.value.line_no == line
        assert words in str(err.value)


def test_run_comparison_empty_variants():
    with pytest.raises(ValidationError):
        ev.run_comparison([], [], None)
