import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankfuse import data as dt
from rankfuse import model as md
from rankfuse.encoder import EmbeddingIndex, pair_key, tokenize
from rankfuse.errors import DatasetParseError, ValidationError


def small_corpus(**kw):
    defaults = dict(seed=0, n_users=60, n_items=300, n_queries=90, n_impressions=4000)
    defaults.update(kw)
    return dt.generate_corpus(dt.GeneratorConfig(**defaults))


# ---------------------------------------------------------------------------
# relevance oracle


def relevance(query_text, item_text):
    return dt.ground_truth_relevance(tokenize(query_text), tokenize(item_text))


def test_relevance_identical_and_disjoint():
    assert relevance("cat red shoe", "cat red shoe") == 1.0
    assert relevance("cat red shoe", "dog blue sock") == 0.0
    # single-token texts carry only the category signal
    assert relevance("cat", "cat") == 1.0
    assert relevance("cat", "dog") == 0.0


def test_relevance_half_jaccard_is_three_quarters():
    # same category, descriptor jaccard |{a}|/|{a,b}| = 1/2
    assert relevance("cat a b", "cat a") == 0.75


def test_relevance_empty_text_is_zero():
    assert relevance("", "cat a") == 0.0
    assert relevance("cat a", "") == 0.0
    assert relevance("", "") == 0.0


def test_relevance_category_only_mismatch():
    # shared descriptors but different category: jaccard half only
    assert relevance("cat a b", "dog a b") == 0.5


def test_assign_rsl_boundaries():
    assert dt.assign_rsl(0.0) == 1
    assert dt.assign_rsl(0.2499) == 1
    assert dt.assign_rsl(0.25) == 2
    assert dt.assign_rsl(0.4999) == 2
    assert dt.assign_rsl(0.5) == 3
    assert dt.assign_rsl(0.75) == 4
    assert dt.assign_rsl(1.0) == 4
    for bad in (-0.01, 1.01):
        with pytest.raises(ValidationError):
            dt.assign_rsl(bad)


# ---------------------------------------------------------------------------
# click model


def test_click_probability_neutral_point():
    cfg = dt.GeneratorConfig()
    p = dt.click_probability(0.7, 0.5, 0.5, cfg)
    assert abs(p - 0.2689414213699951) < 1e-12


def test_click_probability_independences():
    no_rel = dt.GeneratorConfig(w_relevance=0.0)
    ps = {dt.click_probability(0.9, 0.4, r, no_rel) for r in (0.0, 0.3, 1.0)}
    assert len(ps) == 1

    cfg = dt.GeneratorConfig()
    ps = {dt.click_probability(0.0, 0.4, r, cfg) for r in (0.0, 0.3, 1.0)}
    assert len(ps) == 1

    # sensitive user: probability strictly increasing in relevance
    vals = [dt.click_probability(0.9, 0.4, r, cfg) for r in (0.0, 0.5, 1.0)]
    assert vals[0] < vals[1] < vals[2]


def test_click_probability_validates_range():
    cfg = dt.GeneratorConfig()
    with pytest.raises(ValidationError):
        dt.click_probability(1.2, 0.5, 0.5, cfg)
    with pytest.raises(ValidationError):
        dt.click_probability(0.5, -0.1, 0.5, cfg)
    with pytest.raises(ValidationError):
        dt.click_probability(0.5, 0.5, 1.1, cfg)


_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_UNIT, _UNIT, _UNIT), min_size=1, max_size=40),
       w=st.tuples(st.floats(-8, 8), st.floats(-8, 8), st.floats(-8, 8)))
def test_array_oracles_equal_their_scalar_calls(rows, w):
    cfg = dt.GeneratorConfig(w_quality=w[0], w_relevance=w[1], bias=w[2])
    s, q, r = (np.array(col) for col in zip(*rows))
    p = dt.click_probability(s, q, r, cfg)
    assert p.shape == s.shape
    assert p.tobytes() == np.array([dt.click_probability(*row, cfg) for row in rows]).tobytes()
    levels = dt.assign_rsl(r, cfg.rsl_thresholds)
    assert levels.tolist() == [dt.assign_rsl(v, cfg.rsl_thresholds) for v in r.tolist()]


@pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
def test_array_oracles_refuse_any_value_outside_unit_interval(bad):
    cfg = dt.GeneratorConfig()
    ok = np.array([0.0, 0.5, 1.0, 0.25])
    mixed = np.array([0.0, 0.5, bad, 0.25])
    with pytest.raises(ValidationError, match="relevance"):
        dt.assign_rsl(mixed)
    for k, name in enumerate(("sensitivity", "quality", "relevance")):
        args = [ok, ok, ok]
        args[k] = mixed
        with pytest.raises(ValidationError, match=name):
            dt.click_probability(*args, cfg)


def test_generator_config_validation():
    with pytest.raises(ValidationError):
        dt.GeneratorConfig(n_items=0)
    with pytest.raises(ValidationError):
        dt.GeneratorConfig(rsl_thresholds=(0.5, 0.25, 0.75))
    with pytest.raises(ValidationError):
        dt.GeneratorConfig(rsl_thresholds=(0.0, 0.5, 0.75))
    with pytest.raises(ValidationError):
        dt.GeneratorConfig(sensitivity_a=0.0)


# ---------------------------------------------------------------------------
# generator


def test_generate_corpus_deterministic(tmp_path):
    s1, m1 = small_corpus()
    s2, m2 = small_corpus()
    assert s1 == s2
    assert m1 == m2
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    dt.write_dataset(s1, str(a))
    dt.write_dataset(s2, str(b))
    assert a.read_bytes() == b.read_bytes()
    sa, sb = tmp_path / "sa.tsv", tmp_path / "sb.tsv"
    dt.write_sidecar(s1, str(sa))
    dt.write_sidecar(s2, str(sb))
    assert sa.read_bytes() == sb.read_bytes()


def test_generated_labels_consistent():
    samples, _ = small_corpus()
    cfg = dt.GeneratorConfig()
    for s in samples:
        r = relevance(s.query_text, s.item_text)
        assert s.rsl == dt.assign_rsl(r, cfg.rsl_thresholds)
        assert (s.category_match, s.contains_query) == dt.derive_flags(s.query_text, s.item_text)
        assert s.truth is not None and s.truth.relevance == r


def test_generated_histories_roll_forward():
    samples, _ = small_corpus()
    expect = {}
    for s in samples:
        assert len(s.history) <= dt.HISTORY_LIMIT
        assert s.history == expect.get(s.user_id, [])
        if s.click:
            rolled = [(s.query_text, s.item_text)] + expect.get(s.user_id, [])
            expect[s.user_id] = rolled[: dt.HISTORY_LIMIT]


def test_all_rsl_levels_populated():
    samples, manifest = dt.generate_corpus(dt.GeneratorConfig(seed=0, n_impressions=20000))
    counts = manifest["rsl_counts"]
    for level in (1, 2, 3, 4):
        assert counts[level] > 0.01 * len(samples), counts


def test_click_rate_monotone_in_rsl_for_sensitive_users():
    samples, _ = dt.generate_corpus(dt.GeneratorConfig(seed=0, n_impressions=20000))
    by_level = {1: [], 2: [], 3: [], 4: []}
    for s in samples:
        if s.truth.sensitivity > 0.5:
            by_level[s.rsl].append(s.click)
    rates = [float(np.mean(by_level[k])) for k in (1, 2, 3, 4)]
    for a, b in zip(rates, rates[1:]):
        assert b >= a, rates
    assert rates[3] > rates[0] + 0.1


# ---------------------------------------------------------------------------
# serialization


def test_dataset_roundtrip(tmp_path):
    samples, _ = small_corpus()
    path = tmp_path / "data.tsv"
    dt.write_dataset(samples, str(path))
    back = dt.read_dataset(str(path))
    assert back == samples  # truth is excluded from equality
    assert any(s.history for s in back)


def test_full_history_record_roundtrips(tmp_path):
    history = [(f"cat q{i}", f"cat item {i}") for i in range(dt.HISTORY_LIMIT)]
    s = dt.Sample(1, "cat a", 2, "cat a b", 1, 1, 4, 1, history)
    path = tmp_path / "one.tsv"
    dt.write_dataset([s], str(path))
    back = dt.read_dataset(str(path))
    assert back[0].history == history
    too_long = dt.Sample(1, "cat a", 2, "cat a b", 1, 1, 4, 1, history + [("q", "i")])
    with pytest.raises(ValidationError):
        dt.write_dataset([too_long], str(path))


def test_empty_dataset_is_header_only(tmp_path):
    path = tmp_path / "empty.tsv"
    dt.write_dataset([], str(path))
    assert path.read_text().count("\n") == 1
    assert dt.read_dataset(str(path)) == []


def test_malformed_line_reports_number(tmp_path):
    samples, _ = small_corpus(n_impressions=5)
    path = tmp_path / "data.tsv"
    dt.write_dataset(samples, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    bad_line = len(lines)
    path.write_text("\n".join(lines[:-1] + ["not\tenough\tcolumns"]) + "\n", encoding="utf-8")
    with pytest.raises(DatasetParseError) as err:
        dt.read_dataset(str(path))
    assert err.value.line_no == bad_line
    assert str(err.value).startswith(f"{path}: line {bad_line}: expected 10 columns")

    bad = tmp_path / "bad.tsv"
    bad.write_text("wrong header\n")
    with pytest.raises(DatasetParseError) as err:
        dt.read_dataset(str(bad))
    assert err.value.line_no == 1 and err.value.path == str(bad)


def test_bad_field_values_rejected(tmp_path):
    samples, _ = small_corpus(n_impressions=3)
    path = tmp_path / "data.tsv"
    dt.write_dataset(samples, str(path))
    lines = path.read_text().splitlines()
    last = len(lines) - 1  # the last impression row
    bad = [("rsl.tsv", 6, "7"),  # rsl outside 1..4
           ("caret.tsv", 3, "has^caret")]
    # an int read back must be in the writer's own form
    for n, (user, click) in enumerate(zip(("+7", "07", "1_0", " 7", "7 ", "\uff17", "-0"),
                                          ("+1", "01", "0_1", " 1", "1 ", "\uff11", "-0"))):
        bad += [(f"user{n}.tsv", 0, user), (f"click{n}.tsv", 7, click)]
    for name, col, value in bad:
        parts = lines[last].split("\t")
        parts[col] = value
        (tmp_path / name).write_text("\n".join(lines[:last] + ["\t".join(parts)]) + "\n",
                                     encoding="utf-8")
        with pytest.raises(DatasetParseError) as err:
            dt.read_dataset(str(tmp_path / name))
        assert err.value.line_no == last + 1


def test_rows_share_history_objects(tmp_path):
    samples, _ = small_corpus(n_impressions=400, n_users=5)
    path = tmp_path / "data.tsv"
    dt.write_dataset(samples, str(path))
    back = dt.read_dataset(str(path))
    assert back == samples
    by_value = {}
    for s in back:
        assert by_value.setdefault(tuple(s.history), s.history) is s.history
    entries = {}
    for history in by_value:
        for entry in history:
            assert entries.setdefault(entry, entry) is entry
    # the file holds one click log per user who clicked
    head = path.read_text(encoding="utf-8").splitlines()[0]
    logs = len({s.user_id for s in samples if s.history})
    assert head == (f"rankfuse-dataset\tversion=3\tentries={len(entries)}\tlogs={logs}"
                    f"\trows={len(samples)}")


def replayed_clicks(rows):
    """The clicks a split holds as one log per user: each user's first
    history, plus one click per later history, which must be a one-click
    shift of the user's previous one."""
    count, previous = 0, {}
    for s in rows:
        prev = previous.get(s.user_id)
        if prev is None:
            count += len(s.history)
        elif s.history != prev:
            assert s.history == ([s.history[0]] + prev)[: dt.HISTORY_LIMIT]
            count += 1
        previous[s.user_id] = s.history
    return count


def test_generated_split_stores_each_click_once(tmp_path):
    # the benchmark's longhist shape: 15 users, so nearly every row has a long history
    samples, _ = dt.generate_corpus(dt.GeneratorConfig(seed=1, n_users=15, n_impressions=6000,
                                                       n_items=2000))
    for n, split in enumerate(dt.split_corpus(samples)):
        path = tmp_path / f"{n}.tsv"
        dt.write_dataset(split, str(path))
        ds = dt.read_dataset(str(path))
        assert ds == split and ds.clicks.size == replayed_clicks(split)
        if n == 0:
            # one stored copy per distinct history held 45,825 entry ids
            distinct = {tuple(s.history) for s in split}
            assert sum(map(len, distinct)) == 45825 and 30 * ds.clicks.size <= 45825


# any text the writer accepts, non-ASCII included
_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="".join(dt.FORBIDDEN_CHARS)),
    min_size=1, max_size=6,
)


@st.composite
def sample_lists(draw):
    """Samples whose histories repeat, share entries, are empty or full."""
    entries = draw(st.lists(st.tuples(_TEXT, _TEXT), min_size=1, max_size=8))
    entry = st.sampled_from(entries)
    histories = draw(st.lists(st.one_of(
        st.just([]),
        st.lists(entry, max_size=dt.HISTORY_LIMIT),
        st.lists(entry, min_size=dt.HISTORY_LIMIT, max_size=dt.HISTORY_LIMIT),
    ), min_size=1, max_size=5))
    ints = st.integers(-(2**40), 2**40)
    bit = st.integers(0, 1)
    rows = draw(st.lists(st.tuples(
        ints, _TEXT, ints, _TEXT, bit, bit, st.integers(1, 4), bit,
        st.integers(0, len(histories) - 1),
    ), max_size=12))
    # rows equal in value but not in identity, as the generator makes them
    return [dt.Sample(*row[:8], history=list(histories[row[8]])) for row in rows]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(samples=sample_lists())
def test_dataset_roundtrip_property(tmp_path, samples):
    first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
    dt.write_dataset(samples, str(first))
    assert dt.read_dataset(str(first)) == samples
    dt.write_dataset([dt.Sample(**s.__dict__) for s in samples], str(second))
    assert first.read_bytes() == second.read_bytes()


# a canonical file: write_dataset gives these bytes back
SMALL_FILE = (
    "rankfuse-dataset\tversion=3\tentries=2\tlogs=2\trows=2\n"
    "cat c\tcat c d\n"
    "cat a\tcat a b\n"
    "0 1\n"
    "0\n"
    "3\tcat a\t7\tcat a b\t1\t1\t4\t1\t0\t2\n"
    "4\tcat c\t8\tcat c d\t1\t1\t4\t0\t2\t1\n"
)
SMALL_A = dt.Sample(3, "cat a", 7, "cat a b", 1, 1, 4, 1, [("cat c", "cat c d"), ("cat a", "cat a b")])
SMALL_B = dt.Sample(4, "cat c", 8, "cat c d", 1, 1, 4, 0, [("cat c", "cat c d")])


def test_small_file_reads_and_rewrites(tmp_path):
    path = tmp_path / "small.tsv"
    path.write_text(SMALL_FILE, encoding="utf-8")
    a, b = dt.read_dataset(str(path))
    assert a == SMALL_A and b == SMALL_B
    dt.write_dataset([a, b], str(tmp_path / "again.tsv"))
    assert (tmp_path / "again.tsv").read_text(encoding="utf-8") == SMALL_FILE


@pytest.mark.parametrize("old, new, line, words", [
    ("version=3", "version=4", 1, "unsupported"),
    ("version=3", "version=2", 1, "re-run `rankfuse gen-data`"),
    ("\trows=2", "", 1, "bad dataset header"),
    ("entries=2", "entries=-1", 1, "negative"),
    ("cat c\tcat c d\n", "cat c\t\n", 2, "bad history entry"),
    ("cat a\tcat a b\n", "cat^a\tcat a b\n", 3, "forbidden"),
    ("0 1\n", "0 2\n", 4, "entry id 2 outside 0..1"),
    ("0 1\n", "x 1\n", 4, "bad entry id"),
    ("\t1\t0\t2\n", "\t1\t0\t51\n", 6, "history_len 51 outside 0..50"),
    ("\t1\t0\t2\n", "\t1\t2\t2\n", 6, "ends past the 3 clicks"),
    ("\t0\t2\t1\n", "\t0\t4\t1\n", 7, "history_start 4 outside 0..3"),
    ("\t4\t1\t0\t2\n", "\t5\t1\t0\t2\n", 6, "rsl 5 outside"),
    ("\t1\t0\t2\n", "\t1\t0\n", 6, "expected 10 columns"),
    # the header counts the rows: a file cut at a line boundary is refused
    ("rows=2", "rows=3", 8, "file ends after 2 of its 3 rows"),
    ("rows=2", "rows=1", 7, "more rows than the header's rows=1"),
    # ints in any form but the writer's own
    ("entries=2", "entries=02", 1, "bad entries '02'"),
    ("0 1\n", "0 01\n", 4, "bad entry id '01'"),
    ("0 1\n", "+0 1\n", 4, "bad entry id '+0'"),
])
def test_table_errors_name_the_line(tmp_path, old, new, line, words):
    assert old in SMALL_FILE
    path = tmp_path / "bad.tsv"
    path.write_text(SMALL_FILE.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(DatasetParseError) as err:
        dt.read_dataset(str(path))
    assert err.value.line_no == line and err.value.path == str(path)
    assert words in str(err.value)


def test_file_ending_inside_a_table_names_the_line(tmp_path):
    path = tmp_path / "short.tsv"
    cut = SMALL_FILE.replace("logs=2", "logs=4").split("\n3\t")[0] + "\n"
    path.write_text(cut, encoding="utf-8")
    with pytest.raises(DatasetParseError) as err:
        dt.read_dataset(str(path))
    assert err.value.line_no == 6 and "ends inside the log table" in str(err.value)


@pytest.mark.parametrize("faults, line, words", [
    # a later column of an earlier row comes before an earlier column of a later row
    ((("\t4\t1\t0\t2\n", "\t4\t2\t0\t2\n"), ("4\tcat c\t8", "x\tcat c\t8")), 6, "click 2 outside"),
    ((("3\tcat a\t7", "3\tcat^a\t7"), ("\t4\t1\t0\t2\n", "\t7\t1\t0\t2\n")), 6, "query_text contains forbidden"),
    # two faults in one row: the earlier column
    ((("3\tcat a\t7", "+3\tcat a\t7"), ("\t4\t1\t0\t2\n", "\t9\t1\t0\t2\n")), 6, "bad user_id '+3'"),
    # a fault in the log table comes before one in the rows
    ((("0 1\n", "0  1\n"), ("4\tcat c\t8", "4\tcat c\t08")), 4, "bad entry id ''"),
    # a window past the click table before a line with a bad id
    ((("\t1\t0\t2\n", "\t1\t2\t2\n"), ("4\tcat c\t8", "4\tcat c\t08")), 6, "ends past"),
    # a faulty row comes before a row count that does not match
    ((("rows=2", "rows=1"), ("\t4\t1\t0\t2\n", "\t5\t1\t0\t2\n")), 6, "rsl 5 outside"),
    ((("rows=2", "rows=3"), ("4\tcat c\t8", "x\tcat c\t8")), 7, "bad user_id 'x'"),
])
def test_first_of_two_faults_is_reported(tmp_path, faults, line, words):
    text = SMALL_FILE
    for old, new in faults:
        assert old in text
        text = text.replace(old, new, 1)
    path = tmp_path / "two.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DatasetParseError) as err:
        dt.read_dataset(str(path))
    assert err.value.line_no == line and words in str(err.value)


# fields near what the writer writes: its own ints, ints in other forms,
# texts, and the characters that a reader must refuse
_FIELD = st.one_of(
    st.integers(-3, 60).map(str),
    st.sampled_from(["", "01", "+1", " 1", "1 ", "1_0", "\uff11", "99999999999999999999"]),
    _TEXT,
    st.sampled_from(["cat^a", "cat;a", "a b", "a  b"]),
)
_INT64 = st.integers(-(2**63), 2**63 - 1).map(str)
_BIT = st.sampled_from(["0", "1"])
# per column, a value the writer could write or any field
_ROW = st.tuples(*(st.one_of(valid, _FIELD) for valid in (
    _INT64, _TEXT, _INT64, _TEXT, _BIT, _BIT, st.sampled_from("1234"), _BIT,
    st.integers(0, 12).map(str), st.integers(0, 4).map(str),
)))
_LOG = st.lists(st.one_of(st.integers(0, 12).map(str), st.sampled_from(["", "01", "+1", "x"])),
                max_size=6)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_ROW.map("\t".join), max_size=3), logs=st.lists(_LOG.map(" ".join), max_size=4),
       n_clicks=st.integers(0, 12))
def test_fast_paths_agree_with_the_line_by_line_paths(rows, logs, n_clicks):
    # whatever the whole-table checks accept, the line-by-line reader accepts
    # too, with equal columns
    fast = dt._rows_fast(rows, n_clicks)
    if fast is not None:
        slow = dt._rows_slow(rows, 1, n_clicks)
        assert [list(col) for col in fast] == [list(col) for col in slow]
    fast = dt._canonical_ids(logs, n_clicks - 1)
    if fast is not None:
        assert fast[0].tolist() == dt._logs_slow(logs, 1, n_clicks).tolist()


def test_dataset_is_a_read_only_sequence_of_samples(tmp_path):
    path = tmp_path / "small.tsv"
    path.write_text(SMALL_FILE, encoding="utf-8")
    ds = dt.read_dataset(str(path))
    a, b = SMALL_A, SMALL_B
    assert not isinstance(ds, list) and len(ds) == 2
    assert ds[0] == a and ds[-1] == b and ds[1:] == [b]
    assert ds == [a, b] and [a, b] == ds and ds == (a, b) and ds != [b, a]
    assert ds + [a] == [a, b, a] and [b] + ds == [b, a, b] and ds + ds == [a, b, a, b]
    with pytest.raises(IndexError):
        ds[2]
    # a changed Sample is a copy; the columns do not move
    ds[0].click = 0
    assert ds[0].click == 1 and ds.click.tolist() == [1, 0]
    assert ds.labeled_pairs("rsl") == [("cat a", "cat a b", 4), ("cat c", "cat c d", 4)]
    assert sorted(ds.pairs()) == [("cat a", "cat a b"), ("cat c", "cat c d")]
    assert dt.Dataset.from_samples(ds) is ds
    assert dt.Dataset.from_samples([a, b]) == ds


def test_from_samples_hashes_a_shared_history_once():
    class CountingTuple(tuple):
        hashed = 0

        def __hash__(self):
            CountingTuple.hashed += 1
            return super().__hash__()

    shared = [CountingTuple(("cat q", "cat i")), CountingTuple(("cat q2", "cat i"))]
    samples = [dt.Sample(k, "cat q", k, f"cat i{k}", 1, 0, 2, 0, shared) for k in range(20)]
    dt.Dataset.from_samples(samples[:1])
    one_row, CountingTuple.hashed = CountingTuple.hashed, 0
    ds = dt.Dataset.from_samples(samples)
    assert CountingTuple.hashed == one_row
    assert ds.history_start.tolist() == [0] * 20 and ds.history_len.tolist() == [2] * 20
    assert ds.clicks.size == 2 and ds == samples


# ---------------------------------------------------------------------------
# the cache built from a file's columns equals the one built from Samples


def _index_for(samples, d):
    """An index holding a vector for every text and pair of the samples."""
    ds = dt.Dataset.from_samples(samples)
    rng = np.random.default_rng(0)
    idx = EmbeddingIndex(dim=d, checkpoint_id="fixture")
    idx.text.update((t, rng.normal(size=d)) for t in ds.texts)
    idx.pair.update((pair_key(q, i), rng.normal(size=d)) for q, i in ds.pairs())
    return idx


CFG = md.ModelConfig(d=4, field_dim=2, user_buckets=8, item_buckets=8, category_buckets=4,
                     token_buckets=8, base_hidden=(4,), rsl_hidden=(4,), incentive_hidden=(2,))


def _assert_same_cache(path, samples, row_sets, same_layout=True):
    """The cache of the file and that of the samples give equal batches; with
    same_layout (the file holds the samples' own click table), every cache
    array is equal too."""
    idx = _index_for(dt.read_dataset(str(path)), CFG.d)
    from_file = md.TrainingCache(dt.read_dataset(str(path)), idx, CFG)
    from_list = md.TrainingCache(list(samples), idx, CFG)
    arrays = {k for k, v in vars(from_list).items() if isinstance(v, np.ndarray)}
    assert arrays == {k for k, v in vars(from_file).items() if isinstance(v, np.ndarray)}
    for k in arrays if same_layout else ():
        a, b = getattr(from_file, k), getattr(from_list, k)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), k
    for rows in row_sets:
        x, y = from_file.batch(rows), from_list.batch(rows)
        for k in ("hist_q_emb", "hist_r_emb", *vars(y)):
            a, b = getattr(x, k), getattr(y, k)
            if k == "hist_slots" and not same_layout:
                continue  # positions in two different click tables
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), k
            elif k != "cache":
                assert a == b, k


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(samples=sample_lists().filter(bool), data=st.data())
def test_cache_from_file_equals_cache_from_samples(tmp_path, samples, data):
    path = tmp_path / "a.tsv"
    dt.write_dataset(samples, str(path))
    rows = st.lists(st.integers(0, len(samples) - 1), min_size=1, max_size=2 * len(samples))
    row_sets = [np.array(data.draw(rows), dtype=np.int64) for _ in range(3)]
    _assert_same_cache(path, samples, row_sets)


def test_cache_from_hand_written_file_with_unused_tables(tmp_path):
    # entry 2 and log 1 are not read by any row; logs 0 and 2 are equal but
    # written twice, entries 0 and 3 hold the same pair, and the last row
    # reads a window inside log 0
    text = (
        "rankfuse-dataset\tversion=3\tentries=4\tlogs=3\trows=4\n"
        "cat c\tcat c d\n"
        "cat a\tcat a b\n"
        "cät ü\tcät ü x\n"
        "cat c\tcat c d\n"
        "0 1\n"
        "2\n"
        "3 1\n"
        "3\tcat a\t7\tcat a b\t1\t1\t4\t1\t0\t0\n"
        "4\tcat c\t8\tcat c d\t1\t1\t4\t0\t3\t2\n"
        "3\tcat c\t9\tcat c e\t1\t0\t2\t0\t0\t2\n"
        "5\tcat a\t7\tcat a b\t1\t1\t4\t1\t1\t1\n"
    )
    path = tmp_path / "hand.tsv"
    path.write_text(text, encoding="utf-8")
    samples = list(dt.read_dataset(str(path)))
    assert samples[1].history == samples[2].history == [("cat c", "cat c d"), ("cat a", "cat a b")]
    assert samples[0].history == [] and samples[3].history == [("cat a", "cat a b")]
    _assert_same_cache(path, samples, [np.arange(4), np.array([3, 1, 1, 0])], same_layout=False)


def test_forbidden_characters_rejected_on_write(tmp_path):
    s = dt.Sample(1, "cat a;b", 2, "cat a", 1, 1, 3, 0, [])
    with pytest.raises(ValidationError):
        dt.write_dataset([s], str(tmp_path / "x.tsv"))
    s2 = dt.Sample(1, "cat a", 2, "cat a", 1, 1, 3, 0, [("", "cat a")])
    with pytest.raises(ValidationError):
        dt.write_dataset([s2], str(tmp_path / "y.tsv"))


def test_first_faulty_sample_raises_on_write(tmp_path):
    long_history = [(f"cat q{k}", "cat i") for k in range(dt.HISTORY_LIMIT + 1)]
    bad_text = dt.Sample(1, "cat a;b", 2, "cat a", 1, 1, 3, 0, [])
    too_long = dt.Sample(1, "cat a", 2, "cat a", 1, 1, 3, 0, long_history)
    empty_entry = dt.Sample(1, "cat a", 2, "cat a", 1, 1, 3, 0, [("cat q", "")])
    good = dt.Sample(1, "cat a", 2, "cat a", 1, 1, 3, 0, [])
    path = tmp_path / "x.tsv"
    for samples, words in (([good, bad_text, too_long], "query_text contains"),
                           ([good, too_long, bad_text], "history longer than 50"),
                           ([empty_entry, bad_text], "history entries must be non-empty")):
        with pytest.raises(ValidationError, match=words):
            dt.write_dataset(samples, str(path))
        assert not path.exists()


def test_dataset_read_from_a_file_is_written_by_first_use(tmp_path):
    # logs listed out of first-use order, one unused, one written twice
    hand = tmp_path / "hand.tsv"
    hand.write_text(
        "rankfuse-dataset\tversion=3\tentries=2\tlogs=4\trows=3\n"
        "cat c\tcat c d\n"
        "cat a\tcat a b\n"
        "0\n"
        "1\n"
        "1 0\n"
        "1 0\n"
        "3\tcat a\t7\tcat a b\t1\t1\t4\t1\t4\t2\n"
        "4\tcat c\t8\tcat c d\t1\t1\t4\t0\t2\t2\n"
        "5\tcat c\t8\tcat c d\t1\t1\t4\t0\t1\t1\n",
        encoding="utf-8")
    ds = dt.read_dataset(str(hand))
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    dt.write_dataset(ds, str(a))
    dt.write_dataset(list(ds), str(b))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text(encoding="utf-8").splitlines()[:6] == [
        "rankfuse-dataset\tversion=3\tentries=2\tlogs=2\trows=3", "cat a\tcat a b",
        "cat c\tcat c d", "0 1", "0", "3\tcat a\t7\tcat a b\t1\t1\t4\t1\t0\t2"]


def test_pair_key_separator_is_forbidden(tmp_path):
    from rankfuse.encoder import PAIR_KEY_SEP

    assert PAIR_KEY_SEP in dt.FORBIDDEN_CHARS
    for s in (dt.Sample(1, "a" + PAIR_KEY_SEP + "b", 2, "c", 1, 1, 3, 0, []),
              dt.Sample(1, "a", 2, "c", 1, 1, 3, 0, [("a", "b" + PAIR_KEY_SEP + "c")])):
        with pytest.raises(ValidationError):
            dt.write_dataset([s], str(tmp_path / "x.tsv"))


def test_sidecar_roundtrip_exact(tmp_path):
    samples, _ = small_corpus(n_impressions=50)
    path = tmp_path / "ground_truth.tsv"
    dt.write_sidecar(samples, str(path))
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header.split("\t") == list(dt.SIDECAR_COLUMNS)
    truths = [dt.GroundTruth(*map(float, row.split("\t"))) for row in rows]
    assert truths == [s.truth for s in samples]


def test_text_readers_refuse_non_utf8_naming_the_file(tmp_path):
    samples, _ = small_corpus(n_impressions=5)
    path = tmp_path / "data.tsv"
    dt.write_dataset(samples, str(path))
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    with pytest.raises(DatasetParseError) as err:
        dt.read_dataset(str(path))
    assert str(path) in str(err.value) and "UTF-8" in str(err.value)

    path.write_text("wrong header\n")
    with pytest.raises(DatasetParseError) as err:
        dt.read_dataset(str(path))
    assert str(err.value).startswith(f"{path}: line 1: ")


def test_sidecar_requires_truth(tmp_path):
    s = dt.Sample(1, "cat a", 2, "cat a", 1, 1, 3, 0, [])
    with pytest.raises(ValidationError):
        dt.write_sidecar([s], str(tmp_path / "t.tsv"))


def test_split_sizes():
    samples, _ = small_corpus(n_impressions=1000)
    train, val, test = dt.split_corpus(samples)
    assert (len(train), len(val), len(test)) == (780, 110, 110)
    assert train + val + test == samples
    t2, v2, s2 = dt.split_corpus(samples[:97])
    assert (len(t2), len(v2), len(s2)) == (75, 10, 12)
