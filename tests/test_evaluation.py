import numpy as np
import pytest

from rankfuse import data as dt
from rankfuse import evaluation as ev
from rankfuse import model as md
from rankfuse.encoder import PAIR_KEY_SEP, EmbeddingIndex
from rankfuse.errors import DatasetParseError, UndefinedMetricError, ValidationError


def imp(uid, score, click, q="q", item=None):
    return ev.ScoredImpression(uid, q, item or f"it{score}", float(score), click)


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
    with pytest.raises(ValidationError):
        ev.ScoredImpression(1, "q", "i", float("nan"), 0)
    with pytest.raises(ValidationError):
        ev.ScoredImpression(1, "q", "i", 0.5, 2)


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
    same = [imp(1, 0.9, 1, q="q", item="same")]
    orth = [imp(1, 0.9, 1, q="q", item="orth")]
    assert ev.relevance_score(same, idx) == 1.0
    assert ev.relevance_score(orth, idx) == 0.0


def test_relevance_score_hand_instance():
    idx = unit_index(
        {"q": np.array([1.0, 0.0]), "a": np.array([1.0, 0.0]), "b": np.array([0.6, 0.8])}, 2
    )
    rows = [imp(1, 0.9, 1, q="q", item="a"), imp(1, 0.1, 0, q="q", item="b")]
    got = ev.relevance_score(rows, idx)
    assert abs(got - 0.8) < 1e-12  # mean of cos 1.0 and cos 0.6


def test_relevance_score_top_10_interception():
    # 15 candidates: ranks 0..14 by score; only the 10 best count
    d = 2
    vectors = {"q": np.array([1.0, 0.0])}
    rows = []
    for k in range(15):
        cos = 1.0 if k < 10 else 0.0  # high-ranked items aligned, tail orthogonal
        vectors[f"i{k:02d}"] = np.array([cos, 1.0 - cos])
        rows.append(imp(1, 15 - k, int(k == 0), q="q", item=f"i{k:02d}"))
    idx = unit_index(vectors, d)
    assert ev.relevance_score(rows, idx) == 1.0


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
    rows = [
        imp(1, 0.9, 1, q="q", item="a"),
        imp(1, 0.5, 0, q="q", item="b"),
        imp(1, 0.1, 0, q="q", item="c"),
    ]
    assert abs(ev.relevance_score(rows, idx) - 1.0 / 3.0) < 1e-12


def test_top_ranked_tiebreak_is_item_text():
    rows = [
        imp(1, 0.5, 0, q="q", item="zzz"),
        imp(1, 0.5, 0, q="q", item="aaa"),
        imp(1, 0.9, 1, q="q", item="mmm"),
    ]
    ranked = ev.top_ranked(rows, k=2)
    picked = [im.item_text for im in ranked["q"]]
    assert picked == ["mmm", "aaa"]


def test_relevance_score_empty_rejected():
    idx = unit_index({}, 2)
    with pytest.raises(UndefinedMetricError):
        ev.relevance_score([], idx)


def test_top_ranked_merges_users_per_query():
    # candidates shown to different users still rank within one query list
    rows = [imp(1, 0.9, 1, q="q", item="a"), imp(2, 0.3, 0, q="q", item="b"),
            imp(3, 0.5, 0, q="other", item="c")]
    ranked = ev.top_ranked(rows)
    assert set(ranked) == {"q", "other"}
    assert [im.item_text for im in ranked["q"]] == ["a", "b"]


# ---------------------------------------------------------------------------
# report and comparison


def test_evaluate_scores_report_consistency():
    rng = np.random.default_rng(21)
    rows = []
    for uid in range(6):
        for k in range(20):
            rows.append(
                imp(uid, float(rng.normal()), int(rng.random() < 0.3), q=f"q{k % 3}", item=f"i{k}")
            )
    report = ev.evaluate_scores(rows)
    assert 0.0 <= report.auc <= 1.0
    assert 0.0 <= report.gauc <= 1.0
    assert report.relevance_score is None
    assert report.n_impressions == len(rows)
    num = sum(a * w for a, w in report.per_user.values())
    den = sum(w for _, w in report.per_user.values())
    assert abs(report.gauc - num / den) < 1e-15


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
