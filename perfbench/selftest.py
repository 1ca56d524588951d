"""Self-tests of the benchmark's output checks.

Each check must pass on a correct input and fail on a hand-corrupted one.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from rankfuse import data as dt  # noqa: E402
from rankfuse import evaluation as ev  # noqa: E402


def corpus():
    samples, _ = dt.generate_corpus(dt.GeneratorConfig(seed=3, n_users=4, n_impressions=400))
    return samples


class CorpusCheck(unittest.TestCase):
    def setUp(self):
        self.rows = corpus()
        self.assertEqual(checks.check_corpus(self.rows), [])
        self.row = next(n for n, s in enumerate(self.rows) if len(s.history) >= 2)

    def corrupted(self, **fields):
        rows = copy.deepcopy(self.rows)
        for k, v in fields.items():
            setattr(rows[self.row], k, v(rows[self.row]) if callable(v) else v)
        return checks.check_corpus(rows)

    def test_rsl(self):
        self.assertTrue(self.corrupted(rsl=lambda s: s.rsl % 4 + 1))

    def test_category_match(self):
        self.assertTrue(self.corrupted(category_match=lambda s: 1 - s.category_match))

    def test_contains_query(self):
        self.assertTrue(self.corrupted(contains_query=lambda s: 1 - s.contains_query))

    def test_history_order(self):
        self.assertTrue(self.corrupted(history=lambda s: list(reversed(s.history))))

    def test_history_entry_missing(self):
        self.assertTrue(self.corrupted(history=lambda s: s.history[1:]))

    def test_history_of_another_user(self):
        other = next(s for s in self.rows if s.history and s.user_id != self.rows[self.row].user_id)
        self.assertTrue(self.corrupted(history=list(other.history)))

    def test_history_longer_than_limit(self):
        rows = [SimpleNamespace(user_id=0, query_text="cat a", item_text="cat a", rsl=4,
                                category_match=1, contains_query=1, click=1, history=[])
                for _ in range(checks.HISTORY_LIMIT + 2)]
        for n, s in enumerate(rows):
            s.history = [("cat a", "cat a")] * min(n, checks.HISTORY_LIMIT)
        self.assertEqual(checks.check_corpus(rows), [])
        rows[-1].history = [("cat a", "cat a")] * (checks.HISTORY_LIMIT + 1)
        self.assertTrue(checks.check_corpus(rows))


class IndexCheck(unittest.TestCase):
    def test_unit_norm(self):
        v = np.array([0.6, 0.8])
        self.assertEqual(checks.check_unit_norms([("a", v)]), [])
        self.assertTrue(checks.check_unit_norms([("a", v * (1 + 1e-9))]))

    def test_missing_entry(self):
        self.assertTrue(checks.check_unit_norms([("a", None)]))


class EvalCheck(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(0)
        self.clicks = rng.integers(0, 2, size=300)
        self.users = rng.integers(0, 12, size=300)
        # ties on purpose: the pairwise definition counts them half
        self.scores = {"full": np.round(rng.random(300), 2)}
        imps = [ev.ScoredImpression(int(u), "q", "i", float(s), int(c))
                for u, s, c in zip(self.users, self.scores["full"], self.clicks)]
        self.reported = {"full.auc": ev.auc(imps), "full.gauc": ev.gauc(imps)}

    def test_agrees_with_program(self):
        self.assertEqual(checks.check_eval(self.reported, self.scores, self.clicks, self.users), [])

    def test_auc(self):
        bad = dict(self.reported, **{"full.auc": self.reported["full.auc"] + 1e-9})
        self.assertTrue(checks.check_eval(bad, self.scores, self.clicks, self.users))

    def test_gauc(self):
        bad = dict(self.reported, **{"full.gauc": self.reported["full.gauc"] - 1e-9})
        self.assertTrue(checks.check_eval(bad, self.scores, self.clicks, self.users))

    def test_missing_metric(self):
        bad = {"full.auc": self.reported["full.auc"]}
        self.assertTrue(checks.check_eval(bad, self.scores, self.clicks, self.users))


class TrainingLogCheck(unittest.TestCase):
    def setUp(self):
        self.expected = checks.expected_steps(5, 2, 1, 2, True)
        self.lines = [f"{e}\t{st}\t{b}\t0.5\t0.1\t0.6" for st, e, b in self.expected]

    def test_steps(self):
        # 5 rows in batches of 2: stage 2 skips the one-row batch
        self.assertEqual(len(self.expected), 3 + 2 * 2)
        self.assertEqual(checks.check_training_log(self.lines, self.expected), [])

    def test_other_lines_are_ignored(self):
        lines = self.lines + ["epoch 0\tgrad_norm base=1.0"]
        self.assertEqual(checks.check_training_log(lines, self.expected), [])

    def test_non_finite_loss(self):
        lines = list(self.lines)
        lines[2] = lines[2].replace("0.6", "nan")
        self.assertTrue(checks.check_training_log(lines, self.expected))

    def test_missing_step(self):
        self.assertTrue(checks.check_training_log(self.lines[:-1], self.expected))

    def test_extra_step(self):
        self.assertTrue(checks.check_training_log(self.lines + self.lines[-1:], self.expected))


class RankCheck(unittest.TestCase):
    def setUp(self):
        self.candidates = [(3, "c"), (1, "a"), (2, "b")]
        rows = []
        for n, (i, t) in enumerate(self.candidates):
            rsl = [0.1, 0.2, 0.3, 0.4]
            base = [0.2 + 0.1 * n, 0.3, 0.4, 0.5]
            fused = sum(b * r for b, r in zip(base, rsl))
            rows.append((i, t, 1.0, fused, rsl, base))
        self.rows = rows

    def render(self, rows, tau=None):
        out = []
        for i, t, row_tau, fused, rsl, base in rows:
            row_tau = row_tau if tau is None else tau
            final = min(max(row_tau * fused, checks.SCORE_EPS), 1 - checks.SCORE_EPS)
            out.append((i, t, final, fused, row_tau, rsl, base))
        out.sort(key=lambda r: (-r[2], r[0]))
        ranking = "".join(f"{i}\t{t}\t{f!r}\n" for i, t, f, *_ in out)
        explain = "".join(
            f"{f!r}\t{fu!r}\t{ta!r}\t{','.join(map(repr, r))}\t{','.join(map(repr, b))}\n"
            for _, _, f, fu, ta, r, b in out)
        return ranking, explain

    def problems(self, ranking, explain, empty=True, reference=None):
        ranked, parts = checks.parse_rank_output(ranking, explain)
        if reference is None:
            reference = {(i, t): s for i, t, s in checks.parse_rank_output(*self.render(self.rows))[0]}
        return checks.check_ranking(ranked, parts, self.candidates, empty, reference)

    def test_correct(self):
        self.assertEqual(self.problems(*self.render(self.rows)), [])

    def test_not_a_permutation(self):
        ranking, explain = self.render(self.rows)
        lines = ranking.splitlines()
        ranking = "\n".join(lines[:-1] + [lines[0]]) + "\n"
        self.assertTrue(self.problems(ranking, explain))

    def test_not_descending(self):
        ranking, explain = self.render(self.rows)
        r, e = ranking.splitlines(), explain.splitlines()
        self.assertTrue(self.problems("\n".join(r[::-1]), "\n".join(e[::-1])))

    def test_score_outside_unit_interval(self):
        ranking, explain = self.render(self.rows)
        r = ranking.splitlines()
        i, t, _ = r[0].split("\t")
        r[0] = f"{i}\t{t}\t1.0"
        self.assertTrue(self.problems("\n".join(r), explain))

    def test_final_is_not_clamped_product(self):
        ranking, explain = self.render(self.rows)
        e = explain.splitlines()
        f = e[0].split("\t")
        f[2] = repr(float(f[2]) * 1.01)  # tau
        self.assertTrue(self.problems(ranking, "\n".join(["\t".join(f)] + e[1:]), empty=False))

    def test_fused_is_not_expectation(self):
        rows = copy.deepcopy(self.rows)
        i, t, tau, fused, rsl, base = rows[0]
        rows[0] = (i, t, tau, fused + 1e-6, rsl, base)
        ranking, explain = self.render(rows)
        ref = {(i, t): s for i, t, s in checks.parse_rank_output(ranking, explain)[0]}
        self.assertTrue(self.problems(ranking, explain, reference=ref))

    def test_tau_not_one_on_empty_history(self):
        ranking, explain = self.render(self.rows, tau=1.0 + 1e-15)
        ref = {(i, t): s for i, t, s in checks.parse_rank_output(ranking, explain)[0]}
        self.assertEqual(self.problems(ranking, explain, empty=False, reference=ref), [])
        self.assertTrue(self.problems(ranking, explain, empty=True, reference=ref))

    def test_score_differs_from_score_dataset(self):
        ranking, explain = self.render(self.rows)
        ref = {(i, t): s + 1e-10 for i, t, s in checks.parse_rank_output(ranking, explain)[0]}
        self.assertTrue(self.problems(ranking, explain, reference=ref))


if __name__ == "__main__":
    unittest.main()
