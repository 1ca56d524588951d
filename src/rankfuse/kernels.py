"""Embedding-bag kernels: segment means and their gradient, row
scatter-adds, history padding, the helpers that build bags and find
segments by start and length, and the one sort-based dedupe.

Bags are offset-delimited: ``ids`` is a flat row-index array and ``offsets``
(length m+1) delimits the m segments. Every sum here has the bits of a
sequential ``out[bin[i]] += w[i]`` loop from a zero buffer:
- ``segment_mean`` adds position by position: the first row of every bag,
  then the second row of every bag still that long, and so on, into zeros.
  A bag's rows thus arrive in its own order, and each step is one
  contiguous add, with no padding row gathered or added.
- the scatters run on ``np.bincount``, which adds its weights into each bin
  in input order, starting from zero. A scatter-add sums the rows of each
  distinct id first, then adds the sums into ``out``; into a zero buffer
  that is the loop's result exactly, into a non-zero one it may round the
  last bit differently. Each scatter returns the distinct ids it wrote,
  which is how a gradient buffer learns the rows a backward touched.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ValidationError


# columns per np.bincount call: see _bincount_rows
_BLOCK = 16


def _bincount_rows(bins: np.ndarray, rows: np.ndarray, n_bins: int) -> np.ndarray:
    """Sum the (k, d) rows into n_bins rows by bin, in input order.

    One bincount per block of _BLOCK columns: each (bin, column) sum is its
    own, so the blocks change no bit, and they keep the flat index and the
    weights of a call at k * _BLOCK entries, where one call over all d
    columns would make two k * d temporaries that fault in fresh pages on
    every step.
    """
    d = rows.shape[1]
    width = min(d, _BLOCK)
    flat = (bins[:, None] * width + np.arange(width)).reshape(-1)
    sums = np.empty((n_bins, d))
    for lo in range(0, d, _BLOCK):
        block = rows[:, lo : lo + width]
        w = block.shape[1]
        idx = flat if w == width else (bins[:, None] * w + np.arange(w)).reshape(-1)
        # with no input at all, bincount returns int64 zeros even given weights
        sums[:, lo : lo + w] = np.bincount(idx, weights=block.reshape(-1),
                                           minlength=n_bins * w).reshape(n_bins, w)
    return sums


def _segments(offsets: np.ndarray):
    lengths = np.diff(np.asarray(offsets, dtype=np.int64))
    return lengths, np.repeat(np.arange(lengths.shape[0]), lengths)


def _scatter_add(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    uniq, inv = np.unique(ids, return_inverse=True)
    d = int(np.prod(out.shape[1:]))
    sums = _bincount_rows(inv, rows.reshape(ids.shape[0], d), uniq.shape[0])
    out[uniq] += sums.reshape((-1,) + out.shape[1:])
    return uniq


def scatter_add_rows(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out[ids[i]] += rows[i], in order of i. Duplicate ids accumulate.
    Returns the distinct ids, sorted: the rows of `out` that were written."""
    return _scatter_add(out, np.asarray(ids, dtype=np.int64), rows)


def segment_mean(table: np.ndarray, ids: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Mean of table rows per segment; empty segments yield zero rows."""
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    # longest bags first, so the bags that reach position p are a prefix
    order = np.argsort(-lengths, kind="stable")
    reach = np.bincount(lengths, minlength=1)[::-1].cumsum()[::-1][1:]
    starts = np.zeros(reach.size + 1, dtype=np.int64)
    np.cumsum(reach, out=starts[1:])
    # the rows in position-major order: position p of every bag that reaches it
    nth = np.arange(starts[-1]) - np.repeat(starts[:-1], reach)
    position = np.repeat(np.arange(reach.size), reach)
    rows = table[np.asarray(ids, dtype=np.int64)[offsets[:-1][order][nth] + position]]
    sums = np.zeros((lengths.shape[0], table.shape[1]))
    for p in range(reach.size):
        sums[: reach[p]] += rows[starts[p] : starts[p + 1]]
    out = np.empty_like(sums)
    out[order] = sums
    nonempty = lengths > 0
    out[nonempty] /= lengths[nonempty, None]
    return out


def segment_mean_grad(grad_table: np.ndarray, ids: np.ndarray, offsets: np.ndarray,
                      grad_out: np.ndarray) -> np.ndarray:
    """Backward of segment_mean: grad_table[ids[t]] += grad_out[s]/count_s.
    Returns the distinct ids, sorted: the rows of `grad_table` written."""
    lengths, seg = _segments(offsets)
    scaled = grad_out / np.maximum(lengths, 1)[:, None]
    # the private helper, so that a traced run counts this as one kernel call
    return _scatter_add(grad_table, np.asarray(ids, dtype=np.int64), scaled[seg])


def distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct keys, sorted; per key, its index among them), as
    np.unique(keys, return_inverse=True) gives them, by one sort. A plain
    np.unique imports numpy.ma on its first call, which costs a fresh CLI
    process more than the keys do. Equal keys get equal numbers, so the
    sort need not be stable."""
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.ones(ordered.size, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(ordered.size, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def pad_segments(ids: np.ndarray, offsets: np.ndarray, width: int):
    """Pack variable-length segments into a (m, width) id matrix plus mask.

    Padding slots hold id 0 and mask False; every segment must fit in width.
    """
    lengths = np.diff(np.asarray(offsets, dtype=np.int64))
    if lengths.size and int(lengths.max()) > width:
        raise ValidationError(
            f"segment of length {int(lengths.max())} exceeds pad width {width}"
        )
    padded = np.zeros((lengths.shape[0], width), dtype=np.int64)
    mask = np.arange(width)[None, :] < lengths[:, None]
    padded[mask] = ids
    return padded, mask


def ragged(lists) -> tuple[np.ndarray, np.ndarray]:
    """Int lists as CSR: (flat ids, offsets of length len(lists) + 1)."""
    lengths = [len(ids) for ids in lists]
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    flat = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64, count=int(offsets[-1]))
    return flat, offsets


def segment_positions(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the segments that start at `starts` with `lengths`, in a
    flat array: (the positions, concatenated in order; their offsets)."""
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    # entry t of the k-th segment sits at starts[k] + t
    return np.repeat(starts - out[:-1], lengths) + np.arange(out[-1]), out


def gather_segments(flat: np.ndarray, offsets: np.ndarray, segments: np.ndarray):
    """The chosen segments of the CSR (flat, offsets), as a CSR of their own."""
    starts = offsets[segments]
    positions, out = segment_positions(starts, offsets[segments + 1] - starts)
    return flat[positions], out
