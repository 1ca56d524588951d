"""The kernels against sequential oracles, bit for bit.

`np.add.at` is unbuffered and adds in index order, so the oracles below are
the plain `out[ids[i]] += rows[i]` loop the kernels must reproduce exactly
whenever they scatter into a zero buffer, which is every scatter of one
backward pass over a fresh gradient.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfuse import autodiff as ad
from rankfuse import kernels
from rankfuse.errors import ValidationError


def oracle_segment_mean(table, ids, offsets):
    lengths = offsets[1:] - offsets[:-1]
    out = np.zeros((lengths.size, table.shape[1]))
    np.add.at(out, np.repeat(np.arange(lengths.size), lengths), table[ids])
    nonempty = lengths > 0
    out[nonempty] /= lengths[nonempty, None].astype(np.float64)
    return out


def oracle_segment_mean_grad(grad_table, ids, offsets, grad_out):
    lengths = offsets[1:] - offsets[:-1]
    scaled = grad_out / np.maximum(lengths, 1.0)[:, None]
    np.add.at(grad_table, ids, scaled[np.repeat(np.arange(lengths.size), lengths)])


def oracle_pad_segments(ids, offsets, width):
    padded = np.zeros((offsets.size - 1, width), dtype=np.int64)
    mask = np.zeros(padded.shape, dtype=bool)
    for s in range(offsets.size - 1):
        for t in range(offsets[s], offsets[s + 1]):
            padded[s, t - offsets[s]] = ids[t]
            mask[s, t - offsets[s]] = True
    return padded, mask


def assert_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def check_against_oracles(table, ids, offsets, rng):
    assert_bits(kernels.segment_mean(table, ids, offsets), oracle_segment_mean(table, ids, offsets))

    g = rng.normal(size=(offsets.size - 1, table.shape[1]))
    got, want = np.zeros_like(table), np.zeros_like(table)
    kernels.segment_mean_grad(got, ids, offsets, g)
    oracle_segment_mean_grad(want, ids, offsets, g)
    assert_bits(got, want)

    rows = rng.normal(size=(ids.size, table.shape[1]))
    got, want = np.zeros_like(table), np.zeros_like(table)
    kernels.scatter_add_rows(got, ids, rows)
    np.add.at(want, ids, rows)
    assert_bits(got, want)

    width = int((offsets[1:] - offsets[:-1]).max(initial=0))
    for got, want in zip(kernels.pad_segments(ids, offsets, width),
                         oracle_pad_segments(ids, offsets, width)):
        assert_bits(got, want)


@st.composite
def bags(draw):
    """Bags over a table of 1..40 rows: few rows make heavy duplicates; bags
    and the whole id list may be empty, empty bags may lead or trail, one bag
    may be far longer than the rest, and the table may hold signed zeros."""
    rows = draw(st.integers(1, 40))
    # 40 columns take two full bincount blocks and a partial one
    d = draw(st.sampled_from((1, 2, 7, 40)))
    lengths = draw(st.lists(st.integers(0, 12), max_size=10))
    if draw(st.booleans()):
        lengths.insert(draw(st.integers(0, len(lengths))), draw(st.integers(40, 120)))
    lengths = [0] * draw(st.integers(0, 2)) + lengths + [0] * draw(st.integers(0, 2))
    if draw(st.integers(0, 7)) == 0:
        lengths = [0] * len(lengths)
    n = sum(lengths)
    ids = draw(st.lists(st.integers(0, rows - 1), min_size=n, max_size=n))
    offsets = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)]).astype(np.int64)
    zero_share = draw(st.sampled_from((0.0, 0.5, 1.0)))
    return rows, d, np.array(ids, dtype=np.int64), offsets, zero_share, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(bags())
def test_kernels_match_oracles_bit_for_bit(bag):
    rows, d, ids, offsets, zero_share, seed = bag
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(rows, d))
    zeros = rng.random(table.shape) < zero_share
    table[zeros] = np.where(rng.random(table.shape) < 0.5, 0.0, -0.0)[zeros]
    check_against_oracles(table, ids, offsets, rng)


def test_kernels_match_oracles_on_batch_shapes():
    # encoder-like: 512 bags of up to 12 tokens over a 4096-row table, at the
    # model's width and the encoder's
    rng = np.random.default_rng(11)
    lengths = rng.integers(0, 13, size=512)
    ids = rng.integers(0, 4096, size=int(lengths.sum()))
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    for d in (16, 64):
        check_against_oracles(rng.normal(size=(4096, d)), ids, offsets, rng)


def test_scatter_add_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rows_n = int(rng.integers(1, 200))
        table_rows = int(rng.integers(1, 40))
        d = int(rng.integers(1, 9))
        ids = rng.integers(0, table_rows, size=rows_n, dtype=np.int64)
        rows = rng.normal(size=(rows_n, d))
        out = np.zeros((table_rows, d))
        kernels.scatter_add_rows(out, ids, rows)
        # oracle: one-hot matrix product
        onehot = np.zeros((table_rows, rows_n))
        onehot[ids, np.arange(rows_n)] = 1.0
        assert np.allclose(out, onehot @ rows, atol=1e-12)


def test_scatter_add_into_non_zero_buffer_accumulates():
    # sums per id are added to what the buffer holds; the last bit may round
    # differently from a sequential loop, the value may not
    rng = np.random.default_rng(5)
    start = rng.normal(size=(6, 3))
    ids = rng.integers(0, 6, size=50)
    rows = rng.normal(size=(50, 3))
    got, want = start.copy(), start.copy()
    kernels.scatter_add_rows(got, ids, rows)
    np.add.at(want, ids, rows)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_two_embeddings_of_one_table_sum_their_gradients():
    # backward scatters the second op into the buffer the first one filled
    rng = np.random.default_rng(3)
    # 32 rows, so that the four the scatters write stay within an eighth
    table = ad.Parameter("t", rng.normal(size=(32, 3)), "base")
    a, b = np.array([0, 2, 2, 4]), np.array([[2, 1], [0, 2]])
    pa, pb = rng.normal(size=(4, 3)), rng.normal(size=(2, 2, 3))

    def loss():
        return (ad.embedding(table, a) * pa).sum() + (ad.embedding(table, b) * pb).sum()

    assert ad.finite_difference_check(loss, [table]) < 1e-7
    want = np.zeros_like(table.data)
    np.add.at(want, a, pa)
    np.add.at(want, b.reshape(-1), pb.reshape(-1, 3))
    assert np.allclose(table.grad, want, rtol=0, atol=1e-12)
    # the table records the union of the rows the two scatters wrote
    assert np.array_equal(table.rows, np.union1d(a, b))


def test_select_backwards_match_add_at():
    rng = np.random.default_rng(9)
    x = ad.Parameter("x", rng.normal(size=(6, 4)), "base")
    idx, cols = np.array([5, 0, 5, 2, 5]), np.array([3, 0, 1, 1, 2, 0])
    g_rows, g_cols = rng.normal(size=(5, 4)), rng.normal(size=6)
    for op, arg, g, where in ((ad.select_rows, idx, g_rows, idx),
                              (ad.select_columns, cols, g_cols, (np.arange(6), cols))):
        x.zero_grad()
        with ad.Tape() as tape:
            loss = (op(x, arg) * g).sum()
        tape.backward(loss)
        want = np.zeros_like(x.data)
        np.add.at(want, where, g)
        assert_bits(x.grad, want)


def test_segment_mean_empty_segment_is_zero():
    table = np.arange(12.0).reshape(4, 3)
    flat = np.array([1, 2], dtype=np.int64)
    offsets = np.array([0, 0, 2, 2], dtype=np.int64)
    out = kernels.segment_mean(table, flat, offsets)
    assert (out[0] == 0).all() and (out[2] == 0).all()
    assert np.allclose(out[1], table[[1, 2]].mean(axis=0))


def test_segment_mean_single_row_is_exact_copy():
    table = np.random.default_rng(0).normal(size=(5, 4))
    out = kernels.segment_mean(table, np.array([3]), np.array([0, 1]))
    assert (out[0] == table[3]).all()


def test_pad_segments_shapes_and_mask():
    flat = np.array([5, 6, 7, 8, 9], dtype=np.int64)
    offsets = np.array([0, 2, 2, 5], dtype=np.int64)
    padded, mask = kernels.pad_segments(flat, offsets, 4)
    assert padded.shape == (3, 4) and mask.shape == (3, 4)
    assert padded[0, :2].tolist() == [5, 6] and mask[0].tolist() == [True, True, False, False]
    assert not mask[1].any()
    assert padded[2, :3].tolist() == [7, 8, 9]


def test_pad_segments_rejects_overflow():
    with pytest.raises(ValidationError):
        kernels.pad_segments(np.arange(5), np.array([0, 5]), 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([-(2**63), -1, 0, 1, 7, 2**62, 2**63 - 1])
                | st.integers(-(2**63), 2**63 - 1), max_size=200))
def test_distinct_matches_np_unique(keys):
    keys = np.array(keys, dtype=np.int64)
    uniq, inverse = np.unique(keys, return_inverse=True)
    got_uniq, got_inverse = kernels.distinct(keys)
    assert np.array_equal(got_uniq, uniq) and np.array_equal(got_inverse, inverse)
