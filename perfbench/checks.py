"""Output checks, each made apart from the program.

The pure checkers take parsed values and return a list of problems (empty
when the check holds), so that `selftest.py` can feed them hand-corrupted
inputs. `check_run` loads one run's artifacts through the program's own
loaders and applies every checker.

Relevance, flags, histories, AUC and GAUC are recomputed here from their
definitions; nothing is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

HISTORY_LIMIT = 50
# gen-data's default relevance-level thresholds
RSL_THRESHOLDS = (0.25, 0.5, 0.75)
# the final score is clamped to [SCORE_EPS, 1 - SCORE_EPS]
SCORE_EPS = 1e-7
TOL = 1e-12
MAX_REPORTED = 5


def _report(problems: list[str], what: str) -> list[str]:
    if len(problems) > MAX_REPORTED:
        return problems[:MAX_REPORTED] + [f"{what}: {len(problems) - MAX_REPORTED} more problems"]
    return problems


# ---------------------------------------------------------------------------
# data


def relevance(query: str, item: str) -> float:
    """Half for a category (first token) match, half the descriptor Jaccard."""
    q, i = query.lower().split(), item.lower().split()
    if not q or not i:
        return 0.0
    cat = 1.0 if q[0] == i[0] else 0.0
    qd, idd = set(q[1:]), set(i[1:])
    jac = cat if not qd and not idd else len(qd & idd) / len(qd | idd)
    return 0.5 * cat + 0.5 * jac


def relevance_level(r: float) -> int:
    return 1 + sum(r >= t for t in RSL_THRESHOLDS)


def text_flags(query: str, item: str) -> tuple[int, int]:
    """(category_match, contains_query) from the two texts."""
    q, i = query.lower().split(), item.lower().split()
    if not q or not i:
        return 0, 0
    return int(q[0] == i[0]), int(set(q) <= set(i))


def check_corpus(rows) -> list[str]:
    """Labels equal a recomputation from the texts; each history is the
    user's earlier clicked pairs in corpus order, newest first, at most 50."""
    problems = []
    clicked: dict[int, list[tuple[str, str]]] = {}
    for n, s in enumerate(rows):
        level = relevance_level(relevance(s.query_text, s.item_text))
        if s.rsl != level:
            problems.append(f"row {n}: rsl {s.rsl} != recomputed {level}")
        flags = text_flags(s.query_text, s.item_text)
        if (s.category_match, s.contains_query) != flags:
            problems.append(f"row {n}: flags {(s.category_match, s.contains_query)} != {flags}")
        expected = clicked.get(s.user_id, [])
        if [tuple(h) for h in s.history] != expected:
            problems.append(f"row {n}: history of user {s.user_id} differs from earlier clicks")
        if s.click:
            clicked[s.user_id] = ([(s.query_text, s.item_text)] + expected)[:HISTORY_LIMIT]
    return _report(problems, "corpus")


# ---------------------------------------------------------------------------
# encoder


def check_unit_norms(vectors) -> list[str]:
    """`vectors` yields (key, vector or None when the key is not indexed)."""
    problems = []
    for key, vec in vectors:
        if vec is None:
            problems.append(f"index has no entry for {key!r}")
            continue
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > TOL:
            problems.append(f"index vector {key!r} has norm {norm!r}")
    return _report(problems, "index")


def index_vectors(index, rows):
    """Every text and (query, item) pair of the corpus, looked up in the index."""
    texts, pairs = set(), set()
    for s in rows:
        texts.update((s.query_text, s.item_text))
        pairs.add((s.query_text, s.item_text))
        for q, i in s.history:
            texts.update((q, i))
            pairs.add((q, i))
    for t in sorted(texts):
        yield t, _lookup(index.lookup_text, t)
    for q, i in sorted(pairs):
        yield (q, i), _lookup(index.lookup_pair, q, i)


def _lookup(fn, *key):
    try:
        return fn(*key)
    except LookupError:
        return None


# ---------------------------------------------------------------------------
# evaluation


def pairwise_auc(scores: np.ndarray, clicks: np.ndarray) -> float:
    """Mean over (positive, negative) pairs of 1[s_p > s_n] + 1/2 1[s_p == s_n]."""
    pos, neg = scores[clicks == 1], scores[clicks == 0]
    wins = float((pos[:, None] > neg[None, :]).sum())
    ties = float((pos[:, None] == neg[None, :]).sum())
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def pairwise_gauc(scores: np.ndarray, clicks: np.ndarray, users: np.ndarray) -> float:
    """Per-user pairwise AUC weighted by the user's impressions; users whose
    impressions are all one class are left out."""
    num = den = 0.0
    for u in np.unique(users):
        m = users == u
        if clicks[m].min() == clicks[m].max():
            continue
        num += pairwise_auc(scores[m], clicks[m]) * m.sum()
        den += m.sum()
    return num / den


def check_eval(reported: dict[str, float], scores: dict[str, np.ndarray],
               clicks: np.ndarray, users: np.ndarray) -> list[str]:
    problems = []
    for name, s in scores.items():
        for metric, value in (("auc", pairwise_auc(s, clicks)),
                              ("gauc", pairwise_gauc(s, clicks, users))):
            got = reported.get(f"{name}.{metric}")
            if got is None or not abs(got - value) <= TOL:
                problems.append(f"eval {name}.{metric} {got!r} != recomputed {value!r}")
    return problems


# ---------------------------------------------------------------------------
# training


def expected_steps(n_rows: int, batch_size: int, stage1_epochs: int, stage2_epochs: int,
                   has_stage1: bool) -> list[tuple[str, int, int]]:
    """(stage, epoch, batch) of every step; stage 2 skips one-row batches."""
    batches = range(math.ceil(n_rows / batch_size))
    steps = []
    if has_stage1:
        steps += [("stage1", e, b) for e in range(stage1_epochs) for b in batches]
    steps += [("stage2", e, b) for e in range(stage2_epochs) for b in batches
              if min(batch_size, n_rows - b * batch_size) >= 2]
    return steps


def check_training_log(lines: list[str], expected: list[tuple[str, int, int]]) -> list[str]:
    """One line per step, in step order, with finite losses. Lines of any
    other shape (per-epoch diagnostics, say) are not step lines."""
    problems, steps = [], []
    for line in lines:
        f = line.split("\t")
        if len(f) != 6 or f[1] not in ("stage1", "stage2"):
            continue
        try:
            steps.append((f[1], int(f[0]), int(f[2])))
            losses = [float(v) for v in f[3:]]
        except ValueError:
            problems.append(f"training.log: unparsable line {line!r}")
            continue
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"training.log: non-finite loss in {line!r}")
    if steps != expected:
        problems.append(f"training.log: {len(steps)} step lines, expected {len(expected)} in order")
    return _report(problems, "training.log")


# ---------------------------------------------------------------------------
# rank


def parse_rank_output(ranking: str, explain: str):
    """[(item_id, item_text, final)] and [(final, fused, tau, rsl[4], base[4])]."""
    ranked = []
    for line in ranking.splitlines():
        i, text, score = line.split("\t")
        ranked.append((int(i), text, float(score)))
    parts = []
    for line in explain.splitlines():
        final, fused, tau, rsl, base = line.split("\t")
        parts.append((float(final), float(fused), float(tau),
                      [float(v) for v in rsl.split(",")], [float(v) for v in base.split(",")]))
    return ranked, parts


def check_ranking(ranked, parts, candidates, empty_history: bool, reference) -> list[str]:
    """`reference` maps (item_id, item_text) to the row's score through
    `model.score_dataset`."""
    problems = []
    if sorted((i, t) for i, t, _ in ranked) != sorted(candidates):
        problems.append("ranking is not a permutation of the candidates")
    scores = [s for _, _, s in ranked]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("ranking is not in descending score order")
    if not all(0.0 < s < 1.0 for s in scores):
        problems.append("a score lies outside (0, 1)")
    if len(parts) != len(ranked):
        problems.append(f"explain has {len(parts)} rows for {len(ranked)} candidates")
    for (i, t, score), (final, fused, tau, rsl, base) in zip(ranked, parts):
        clamped = min(max(tau * fused, SCORE_EPS), 1.0 - SCORE_EPS)
        if final != score or abs(final - clamped) > TOL:
            problems.append(f"item {i}: final {final!r} != clamp(tau*fused) {clamped!r}")
        if abs(fused - sum(b * r for b, r in zip(base, rsl))) > TOL or len(base) != len(rsl):
            problems.append(f"item {i}: fused {fused!r} != sum(base*rsl)")
        if empty_history and tau != 1.0:
            problems.append(f"item {i}: tau {tau!r} != 1 with an empty history")
        ref = reference.get((i, t))
        if ref is None or abs(score - ref) > TOL:
            problems.append(f"item {i}: score {score!r} != score_dataset {ref!r}")
    return _report(problems, "rank")


# ---------------------------------------------------------------------------
# one run


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest_digests(pass_result) -> dict[tuple[str, str], str]:
    out = {}
    for stage, d in pass_result.dirs.items():
        manifest = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
        for path, digest in manifest["outputs"].items():
            out[(stage, Path(path).name)] = digest
    return out


def check_run(result) -> list[str]:
    """Every check on one run's artifacts; returns the problems found."""
    from rankfuse import data as dt
    from rankfuse import encoder as enc
    from rankfuse import evaluation as ev
    from rankfuse import model as md

    from workloads import BATCH_SIZE, STAGE1_EPOCHS, STAGE2_EPOCHS

    problems: list[str] = []
    first = result.passes[0]
    splits = first.artifacts["gen-data"]
    parts = {name: dt.read_dataset(splits[name]) for name in ("train", "validation", "test")}
    corpus = parts["train"] + parts["validation"] + parts["test"]
    problems += check_corpus(corpus)

    index = enc.load_index(first.artifacts["build-index"]["index"])
    problems += check_unit_norms(index_vectors(index, corpus))

    test = parts["test"]
    scores = {}
    for name in ("base", "full"):
        params, _ = md.load_model(first.artifacts[f"train-{name}"]["model"])
        scores[name] = md.score_dataset(params, test, index)
    reported = ev.read_metrics_file(first.artifacts["eval"]["metrics"])
    problems += check_eval(reported, scores, np.array([s.click for s in test]),
                           np.array([s.user_id for s in test]))

    digests = _manifest_digests(first)
    for p in result.passes:
        for variant, has_stage1 in (("train-full", True), ("train-base", False)):
            log = p.artifacts[variant]["training.log"]
            steps = expected_steps(len(parts["train"]), BATCH_SIZE, STAGE1_EPOCHS, STAGE2_EPOCHS,
                                   has_stage1)
            problems += check_training_log(log.read_text(encoding="utf-8").splitlines(), steps)
        if p is not first and _manifest_digests(p) != digests:
            problems.append(f"pass {p.no} artifacts differ from pass 1 on the same inputs")

    problems += _check_rank_ops(result)
    failed = [op for op in result.ops if op.rc != 0]
    if failed:
        problems.append(f"{len(failed)} operations failed")
    return problems


def _check_rank_ops(result) -> list[str]:
    """The first request of each kind is checked in full; every repeat of it
    must give the same bytes."""
    from rankfuse import data as dt
    from rankfuse import encoder as enc
    from rankfuse import model as md

    from workloads import manifest_outputs

    problems = []
    inputs = result.inputs
    seen: dict[tuple, tuple[str, str]] = {}
    loaded: dict[str, tuple] = {}
    for op in result.ops:
        if op.stage != "rank" or op.rc != 0:
            continue
        files = manifest_outputs(op.out_dir)
        out = (files["ranking"].read_text(encoding="utf-8"), files["explain"].read_text(encoding="utf-8"))
        model_path = op.model_pass.artifacts["train-full"]["model"]
        key = (op.size, op.history, _sha256(model_path))
        if key in seen:
            if seen[key] != out:
                problems.append(f"rank size {op.size}: output differs between identical requests")
            continue
        seen[key] = out
        if model_path not in loaded:
            arts = op.model_pass.artifacts
            params, _ = md.load_model(model_path)
            index = enc.load_index(arts["build-index"]["index"])
            index.attach_encoder(enc.load_encoder(arts["finetune"]["encoder"]))
            loaded[model_path] = (params, index)
        params, index = loaded[model_path]
        cands = inputs.candidates[op.size]
        history = inputs.history if op.history == "full" else []
        samples = []
        for i, t in cands:
            cm, cq = text_flags(inputs.query, t)
            samples.append(dt.Sample(user_id=inputs.user_id, query_text=inputs.query, item_id=i,
                                     item_text=t, category_match=cm, contains_query=cq,
                                     rsl=1, click=0, history=list(history)))
        ref = dict(zip(cands, md.score_dataset(params, samples, index)))
        ranked, parts = parse_rank_output(*out)
        problems += check_ranking(ranked, parts, cands, op.history == "empty", ref)
    return problems
