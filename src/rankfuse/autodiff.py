"""Reverse-mode automatic differentiation over an explicit operation tape.

Everything is float64. A ``Tape`` records every primitive applied to tracked
tensors in forward order; ``Tape.backward`` replays the records in exact
reverse order, accumulating gradients. Replay order is fixed and every
primitive is a deterministic numpy computation, so two backward passes
over the same tape produce bit-identical gradients.

The loss graph changes shape across ablation variants (regularizer off,
personalization off, fusion bypassed), which is exactly why gradients come
from the tape instead of hand-derived per-variant formulas.

``sgd_loop`` is the one training loop, run by every stage of the encoder and
the model; ``sgd_step`` is its plain SGD step per learning-rate group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernels
from .errors import (
    DegenerateDistributionError,
    DimensionError,
    GraphError,
    TrainingError,
    ValidationError,
)

LOG_FLOOR = 1e-12
NORM_FLOOR = 1e-9
LR_GROUPS = ("stage1", "base", "rsl-finetune", "prim")

_TAPES: list["Tape"] = []
_NO_ROWS = np.zeros(0, dtype=np.int64)


def _active_tape():
    return _TAPES[-1] if _TAPES else None


class Tensor:
    """A float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self, axis=None):
        return tmean(self, axis=axis)

    def reshape(self, shape):
        return reshape(self, shape)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ValidationError("tensor/tensor division is not a primitive; use mul")
        return mul(self, 1.0 / float(other))

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


class Parameter(Tensor):
    """A named, trainable tensor assigned to a learning-rate group.

    The gradient buffer always exists and accumulates across backward passes
    until ``zero_grad``; the optimizer relies on that.

    ``rows`` says which rows of the buffer may be nonzero. None means any
    row: a fresh parameter, or one that a dense backward reached since the
    last ``zero_grad``, or whose row scatters (the backwards of
    ``embedding``, ``embedding_bag_mean`` and ``select_rows``) wrote more
    than an eighth of its rows. Otherwise it holds the sorted distinct rows
    that those scatters wrote since then. ``zero_grad`` and ``sgd_step``
    touch only those rows, so after ``zero_grad`` gradients are written
    only through tape ops: a hand-written ``grad`` is seen only on a fresh
    parameter.
    """

    __slots__ = ("name", "group", "rows")

    def __init__(self, name: str, data, group: str):
        if group not in LR_GROUPS:
            raise ValidationError(
                f"learning-rate group {group!r} not in {LR_GROUPS}"
            )
        super().__init__(data, requires_grad=True)
        if not np.all(np.isfinite(self.data)):
            raise ValidationError(f"parameter {name!r} has non-finite entries")
        self.name = name
        self.group = group
        self.grad = np.zeros_like(self.data)
        self.rows: np.ndarray | None = None

    def zero_grad(self):
        if self.rows is None:
            self.grad[...] = 0.0
        else:
            self.grad[self.rows] = 0.0
        self.rows = _NO_ROWS

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape}, group={self.group!r})"


class Tape:
    """Ordered record of primitive operations, used as a context manager.

    Ops recorded while the tape is active are replayed in exact reverse order
    by ``backward``. Tensors produced outside any tape are plain values.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._produced: set[int] = set()

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self
        return False

    def _record(self, out: Tensor, fn: Callable[[np.ndarray], None]):
        self._entries.append((out, fn))
        self._produced.add(id(out))

    def __len__(self):
        return len(self._entries)

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(param) into every reachable parameter's grad."""
        if not isinstance(loss, Tensor) or id(loss) not in self._produced:
            raise GraphError("backward: loss was not produced on this tape")
        if loss.data.size != 1:
            raise DimensionError("backward: loss must be a scalar")
        # Reset intermediate grads so repeated backward calls replay cleanly.
        # Parameters are leaves, never tape outputs, so their buffers survive.
        for out, _ in self._entries:
            out.grad = None
        loss.grad = np.ones_like(loss.data)
        for out, fn in reversed(self._entries):
            if out.grad is not None:
                fn(out.grad)


def zero_grad(params: Iterable[Parameter]):
    for p in params:
        p.zero_grad()


def sgd_step(params: Iterable[Parameter], rates: dict[str, float]) -> None:
    """Plain SGD per learning-rate group; groups without a rate stay frozen.
    Only the rows whose gradient may be nonzero move: any other row would
    get x - lr*0, which is x."""
    for p in params:
        lr = rates.get(p.group)
        if lr is None:
            continue
        if p.rows is None:
            p.data -= lr * p.grad
        else:
            p.data[p.rows] -= lr * p.grad[p.rows]


# a diverging run's overflow warnings would only repeat the non-finite-loss error
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def sgd_loop(n: int, batch_size: int, epochs: int, rng: np.random.Generator,
             params: list[Parameter], rates: dict[str, float], stage: str,
             make_batch: Callable, loss: Callable, min_batch: int = 1) -> list:
    """The one training loop. Per epoch one ``rng.permutation(n)``, sliced
    into batches of ``batch_size`` rows; a batch of fewer than ``min_batch``
    rows is skipped and keeps its number. Per batch: ``make_batch(rows)``,
    ``zero_grad``, ``loss(batch, rows, epoch, batch_no)`` -> (loss, record)
    under a tape, a finite check, backward, ``sgd_step``. Returns the records."""
    records = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        for batch_no, lo in enumerate(range(0, n, batch_size)):
            rows = order[lo : lo + batch_size]
            if rows.size < min_batch:
                continue
            batch = make_batch(rows)
            zero_grad(params)
            with Tape() as tape:
                value, record = loss(batch, rows, epoch, batch_no)
            if not np.isfinite(value.item()):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} {stage} batch {batch_no}: "
                    f"loss={value.item()!r}; batch rows {rows[:8].tolist()}"
                    f"{'...' if rows.size > 8 else ''}"
                )
            tape.backward(value)
            sgd_step(params, rates)
            records.append(record)
    return records


# ---------------------------------------------------------------------------
# recording helpers


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(out_data, parents: Sequence[Tensor], fn) -> Tensor:
    tape = _active_tape()
    requires = tape is not None and any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=requires)
    if requires:
        tape._record(out, fn)
    return out


def _accum(t: Tensor, g: np.ndarray):
    # a primitive with two or more operands tests requires_grad itself before
    # computing g, so that a constant operand costs no gradient work
    if not t.requires_grad:
        return
    if t.grad is None:
        # a copy, since g may be a view of another tensor's buffer
        t.grad = np.array(np.broadcast_to(g, t.data.shape), dtype=np.float64)
    else:
        t.grad += g
    if isinstance(t, Parameter):
        t.rows = None


def _grad_buf(t: Tensor) -> np.ndarray:
    # direct-write variant of _accum, for a backward that may write any entry
    if isinstance(t, Parameter):
        t.rows = None
    return _row_buf(t)


def _row_buf(t: Tensor) -> np.ndarray:
    # the buffer a row scatter writes into; the scatter reports its rows
    # through _wrote_rows
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _wrote_rows(t: Tensor, rows: np.ndarray) -> None:
    # widen a parameter's record (Parameter.rows) by the distinct rows just
    # written. Past an eighth of the table the whole buffer counts: a step
    # through that many rows by index costs about what a dense one does, and
    # on small tables it costs more.
    if isinstance(t, Parameter) and t.rows is not None:
        if t.rows.size:
            rows = kernels.distinct(np.concatenate((t.rows, rows)))[0]
        t.rows = rows if 8 * rows.size <= t.data.shape[0] else None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and structural primitives


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def fn(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def fn(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), fn)


def matmul(a, b) -> Tensor:
    """Matrix product of 2D operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul supports 2D operands only")
    try:
        out_data = a.data @ b.data
    except ValueError as e:
        raise DimensionError(str(e)) from None

    def fn(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _make(out_data, (a, b), fn)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out_data = np.maximum(x.data, 0.0)

    def fn(g):
        _accum(x, g * (x.data > 0.0))

    return _make(out_data, (x,), fn)


def _np_sigmoid(z: np.ndarray) -> np.ndarray:
    # exp argument is always <= 0, so this never overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def np_sigmoid(z):
    """Plain-numpy logistic function, stable for any magnitude of z."""
    return _np_sigmoid(np.asarray(z, dtype=np.float64))


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    s = _np_sigmoid(x.data)

    def fn(g):
        _accum(x, g * s * (1.0 - s))

    return _make(s, (x,), fn)


def log(x) -> Tensor:
    """Natural log with the input clamped to >= LOG_FLOOR."""
    x = _as_tensor(x)
    safe = np.maximum(x.data, LOG_FLOOR)
    out_data = np.log(safe)

    def fn(g):
        _accum(x, g * (x.data > LOG_FLOOR) / safe)

    return _make(out_data, (x,), fn)


def clamp(x, lo: float, hi: float) -> Tensor:
    x = _as_tensor(x)
    out_data = np.clip(x.data, lo, hi)

    def fn(g):
        _accum(x, g * ((x.data > lo) & (x.data < hi)))

    return _make(out_data, (x,), fn)


def tsum(x, axis=None) -> Tensor:
    x = _as_tensor(x)
    out_data = x.data.sum(axis=axis)

    def fn(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.data.shape))
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape))

    return _make(out_data, (x,), fn)


def tmean(x, axis=None) -> Tensor:
    x = _as_tensor(x)
    if x.data.size == 0:
        raise DimensionError("mean of empty tensor")
    out_data = x.data.mean(axis=axis)
    count = x.data.size if axis is None else x.data.shape[axis]

    def fn(g):
        if axis is None:
            _accum(x, np.broadcast_to(g / count, x.data.shape))
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g / count, axis), x.data.shape))

    return _make(out_data, (x,), fn)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out_data = x.data.reshape(shape)

    def fn(g):
        _accum(x, g.reshape(x.data.shape))

    return _make(out_data, (x,), fn)


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise DimensionError("concat of empty sequence")
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def fn(g):
        for t, piece in zip(ts, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                _accum(t, piece)

    return _make(out_data, ts, fn)


# ---------------------------------------------------------------------------
# normalizers


def softmax(x, mask=None) -> Tensor:
    """Softmax over the last axis; max-subtracted for stability.

    mask (optional) is boolean, broadcastable to x, True for valid slots.
    Masked slots get probability exactly 0. A row with no valid slot is an
    error rather than a NaN factory.
    """
    x = _as_tensor(x)
    if x.data.size == 0 or x.data.shape[-1] == 0:
        raise DimensionError("softmax of empty input")
    if mask is None:
        shifted = x.data - x.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
    else:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), x.data.shape)
        if not m.any(axis=-1).all():
            raise ValidationError("softmax: a row has no valid entries under mask")
        neg = np.where(m, x.data, -np.inf)
        # -inf survives the shift, exp maps it to an exact 0
        e = np.exp(neg - neg.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def fn(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        _accum(x, s * (g - inner))

    return _make(s, (x,), fn)


def np_softmax(v, axis=-1):
    """Plain-numpy softmax, same max-subtraction as the tape op."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0 or v.shape[axis] == 0:
        raise DimensionError("softmax of empty input")
    e = np.exp(v - v.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x) -> Tensor:
    """log(softmax(x)) over the last axis, computed without the intermediate."""
    x = _as_tensor(x)
    if x.data.size == 0 or x.data.shape[-1] == 0:
        raise DimensionError("log_softmax of empty input")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - lse
    s = np.exp(out_data)

    def fn(g):
        _accum(x, g - s * g.sum(axis=-1, keepdims=True))

    return _make(out_data, (x,), fn)


def l2_normalize(x, axis: int = -1) -> Tensor:
    """x / max(||x||, NORM_FLOOR) along axis."""
    x = _as_tensor(x)
    norm = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True))
    denom = np.maximum(norm, NORM_FLOOR)
    out_data = x.data / denom

    def fn(g):
        # where the norm is floored the denominator is constant
        live = norm > NORM_FLOOR
        dot = (g * x.data).sum(axis=axis, keepdims=True)
        _accum(x, g / denom - np.where(live, x.data * dot / denom**3, 0.0))

    return _make(out_data, (x,), fn)


def kl_divergence(p, q) -> Tensor:
    """KL(p || q) in nats for two rank-1 distributions.

    Convention: p_i == 0 contributes exactly 0. q_i == 0 where p_i > 0 is a
    degenerate-distribution error. Gradients flow into whichever arguments are
    tracked tensors (in training only q, the score side, ever is).
    """
    p, q = _as_tensor(p), _as_tensor(q)
    pd, qd = p.data, q.data
    if pd.ndim != 1 or qd.ndim != 1:
        raise DimensionError("kl_divergence expects rank-1 distributions")
    if pd.shape != qd.shape:
        raise DimensionError(f"kl_divergence length mismatch: {pd.shape} vs {qd.shape}")
    if not (np.isfinite(pd).all() and np.isfinite(qd).all()):
        raise ValidationError("kl_divergence: non-finite probability mass")
    if (pd < 0).any() or (qd < 0).any():
        raise ValidationError("kl_divergence: negative probability mass")
    if abs(pd.sum() - 1.0) > 1e-6 or abs(qd.sum() - 1.0) > 1e-6:
        raise ValidationError("kl_divergence: inputs must each sum to 1 within 1e-6")
    support = pd > 0.0
    if (support & (qd == 0.0)).any():
        raise DegenerateDistributionError(
            "kl_divergence: q has zero mass on the support of p"
        )
    ps = np.maximum(pd, LOG_FLOOR)
    qs = np.maximum(qd, LOG_FLOOR)
    out_data = np.where(support, pd * (np.log(ps) - np.log(qs)), 0.0).sum()

    def fn(g):
        if q.requires_grad:
            _accum(q, g * np.where(support, -pd / qs, 0.0))
        if p.requires_grad:
            _accum(p, g * np.where(support, np.log(ps) - np.log(qs) + 1.0, 0.0))

    return _make(out_data, (p, q), fn)


# ---------------------------------------------------------------------------
# embedding-table primitives (kernel-backed)


def _check_ids(ids: np.ndarray, table_rows: int):
    if ids.size and (ids.min() < 0 or ids.max() >= table_rows):
        raise IndexError(
            f"embedding id out of range [0, {table_rows}): "
            f"min={ids.min() if ids.size else None} max={ids.max() if ids.size else None}"
        )


def embedding(table, ids) -> Tensor:
    """Gather rows: out[...] = table[ids[...]]; backward scatter-adds."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    _check_ids(ids, table.data.shape[0])
    out_data = table.data[ids]

    def fn(g):
        _wrote_rows(table, kernels.scatter_add_rows(
            _row_buf(table), ids.reshape(-1), g.reshape(-1, table.data.shape[1])))

    return _make(out_data, (table,), fn)


def embedding_bag_mean(table, flat_ids, offsets) -> Tensor:
    """Mean-pool table rows per bag; an empty bag yields a zero vector.

    flat_ids concatenates all bags' ids; offsets (len m+1) delimits bags.
    """
    table = _as_tensor(table)
    flat_ids = np.asarray(flat_ids, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size < 1:
        raise DimensionError("offsets must be a 1D array of length m+1")
    if offsets[0] != 0 or offsets[-1] != flat_ids.size or (np.diff(offsets) < 0).any():
        raise ValidationError("offsets must be nondecreasing, spanning flat_ids")
    _check_ids(flat_ids, table.data.shape[0])
    out_data = kernels.segment_mean(table.data, flat_ids, offsets)

    def fn(g):
        _wrote_rows(table, kernels.segment_mean_grad(_row_buf(table), flat_ids, offsets, g))

    return _make(out_data, (table,), fn)


def select_rows(x, idx) -> Tensor:
    """out = x[idx] for a 1D index array; backward scatter-adds by row."""
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    _check_ids(idx, x.data.shape[0])
    out_data = x.data[idx]

    def fn(g):
        _wrote_rows(x, kernels.scatter_add_rows(_row_buf(x), idx, g))

    return _make(out_data, (x,), fn)


def select_columns(x, cols) -> Tensor:
    """out[i] = x[i, cols[i]] for a 2D x; one entry per row, so backward
    writes each (row, col) once."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError("select_columns expects a 2D tensor")
    cols = np.asarray(cols, dtype=np.int64)
    if cols.shape != (x.data.shape[0],):
        raise DimensionError("cols must have one entry per row")
    if cols.size and (cols.min() < 0 or cols.max() >= x.data.shape[1]):
        raise IndexError("column index out of range")
    rows = np.arange(x.data.shape[0])
    out_data = x.data[rows, cols]

    def fn(g):
        _grad_buf(x)[rows, cols] += g

    return _make(out_data, (x,), fn)


def row_scatter(values, idx, size: int, fill: float) -> Tensor:
    """A length-`size` vector equal to `fill` except out[idx] = values.

    idx must not repeat. The fill slots are constants; gradients flow only
    into `values`.
    """
    values = _as_tensor(values)
    idx = np.asarray(idx, dtype=np.int64)
    if values.data.ndim != 1 or idx.shape != values.data.shape:
        raise DimensionError("row_scatter: values and idx must be matching 1D")
    out_data = np.full(size, fill, dtype=np.float64)
    out_data[idx] = values.data

    def fn(g):
        _accum(values, g[idx])

    return _make(out_data, (values,), fn)


# ---------------------------------------------------------------------------
# attention primitives


def matmul_t(x, w) -> Tensor:
    """x @ w.T for 2D x[b,e] and w[d,e], giving [b,d]: one op that reads w
    in place, where a transpose op and matmul would be two."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise DimensionError(f"matmul_t expects x[b,e], w[d,e]: {x.data.shape} vs {w.data.shape}")
    out_data = x.data @ w.data.T

    def fn(g):
        if x.requires_grad:
            _accum(x, g @ w.data)
        if w.requires_grad:
            _accum(w, g.T @ x.data)

    return _make(out_data, (x, w), fn)


def attn_scores(q, k) -> Tensor:
    """scores[b,l] = sum_e q[b,e] * k[b,l,e]."""
    q, k = _as_tensor(q), _as_tensor(k)
    if q.data.ndim != 2 or k.data.ndim != 3:
        raise DimensionError("attn_scores expects q[b,e], k[b,l,e]")
    if q.data.shape[0] != k.data.shape[0] or q.data.shape[1] != k.data.shape[2]:
        raise DimensionError(
            f"attn_scores shape mismatch: {q.data.shape} vs {k.data.shape}"
        )
    out_data = np.einsum("be,ble->bl", q.data, k.data)

    def fn(g):
        if q.requires_grad:
            _accum(q, np.einsum("bl,ble->be", g, k.data))
        if k.requires_grad:
            _accum(k, np.einsum("bl,be->ble", g, q.data))

    return _make(out_data, (q, k), fn)


def attn_mix(w, v) -> Tensor:
    """out[b,e] = sum_l w[b,l] * v[b,l,e]."""
    w, v = _as_tensor(w), _as_tensor(v)
    if w.data.ndim != 2 or v.data.ndim != 3:
        raise DimensionError("attn_mix expects w[b,l], v[b,l,e]")
    if w.data.shape != v.data.shape[:2]:
        raise DimensionError(f"attn_mix shape mismatch: {w.data.shape} vs {v.data.shape}")
    out_data = np.einsum("bl,ble->be", w.data, v.data)

    def fn(g):
        if w.requires_grad:
            _accum(w, np.einsum("be,ble->bl", g, v.data))
        if v.requires_grad:
            _accum(v, np.einsum("bl,be->ble", w.data, g))

    return _make(out_data, (w, v), fn)


# ---------------------------------------------------------------------------
# dense layers


@dataclass
class DenseLayer:
    """One affine layer W[in,out], b[out] with a named activation."""

    W: Parameter
    b: Parameter
    activation: str = "linear"

    _ACTIVATIONS = ("linear", "relu")

    def __post_init__(self):
        if self.activation not in self._ACTIVATIONS:
            raise ValidationError(
                f"unknown activation {self.activation!r}, expected {self._ACTIVATIONS}"
            )

    def params(self) -> list[Parameter]:
        return [self.W, self.b]


def affine(x, W, b) -> Tensor:
    """x @ W + b for a batch x[b,in] and W[in,out]."""
    return add(matmul(x, W), b)


def mlp_apply(layers: Sequence[DenseLayer], x) -> Tensor:
    """Apply dense layers in order: affine then the layer's activation."""
    out = _as_tensor(x)
    for layer in layers:
        out = affine(out, layer.W, layer.b)
        if layer.activation == "relu":
            out = relu(out)
    return out


class NoDraws:
    """Stands in for the np.random.Generator of a parameter builder when only
    the shapes are wanted, as a loader that overwrites every value wants
    them: normal() gives zeros and draws nothing."""

    @staticmethod
    def normal(loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return np.zeros(size)


def dense_layer(
    rng: np.random.Generator,
    fan_in: int,
    fan_out: int,
    activation: str,
    name: str,
    group: str,
) -> DenseLayer:
    """He-style init for relu layers, 1/sqrt(fan_in) otherwise; zero bias."""
    scale = np.sqrt((2.0 if activation == "relu" else 1.0) / fan_in)
    W = Parameter(f"{name}.W", rng.normal(0.0, scale, size=(fan_in, fan_out)), group)
    b = Parameter(f"{name}.b", np.zeros(fan_out), group)
    return DenseLayer(W, b, activation)


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def finite_difference_check(
    loss_fn: Callable[[], Tensor],
    params: Iterable[Parameter],
    epsilon: float = 1e-5,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    loss_fn must be a pure, deterministic function of the given parameters,
    returning a scalar Tensor. It is invoked once under a fresh tape for the
    analytic pass and twice per parameter coordinate for the differences.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    params = list(params)
    zero_grad(params)
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        an_flat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            lp = loss_fn().item()
            flat[i] = orig - epsilon
            lm = loss_fn().item()
            flat[i] = orig
            fd = (lp - lm) / (2.0 * epsilon)
            err = abs(fd - an_flat[i]) / max(abs(fd), abs(an_flat[i]), 1e-6)
            worst = max(worst, err)
    return worst
