"""Guard against the training loop forking again.

Every training stage (encoder pretrain and finetune, model stages 1 and 2)
runs through `autodiff.sgd_loop`, the one place that draws a batch order,
checks that the loss is finite and steps the parameters. A second
`.permutation(...)` or `sgd_step(...)` call under `src/rankfuse` is a second
loop, free to drift from the first.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rankfuse"


def _call_sites() -> dict[str, list[str]]:
    """`file:line` of each call, as `f(...)` or `x.f(...)`, by the name called."""
    sites = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                sites[name].append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return sites


def test_src_has_one_training_loop():
    sites = _call_sites()
    for name in ("sgd_step", "permutation"):
        assert len(sites[name]) == 1, f"{name}(...) called at {sites[name]}"
