"""rankfuse: desk-scale learning-to-rank engine fusing relevance-level
prediction with CTR prediction, plus a synthetic corpus generator, a frozen
text-encoder surrogate, and an evaluation/ablation harness."""

__version__ = "0.1.0"

from .autodiff import Parameter, Tape, Tensor  # noqa: F401
