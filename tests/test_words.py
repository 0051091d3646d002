"""The packed row kernel of `sic.words` against the byte kernel it replaced
(`helpers.byte_hits`): the same flags, word for word, padding bits zero."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import byte_columns, byte_hits
from sic.words import (
    at_least,
    first_repeat,
    identity,
    interleave,
    overlap,
    pack,
    pack_columns,
    word_count,
)

ROWS = [0, 1, 63, 64, 65, 130]  # no word, one, one full, and two or three words


def padding(words: np.ndarray, n: int) -> np.ndarray:
    """The bits of each row of packed words past its first n flags."""
    return np.unpackbits(words.view(np.uint8), axis=-1)[..., n:]


@st.composite
def kernel_inputs(draw):
    """An (N, t) 0/1 matrix, a batch of index rows into its columns with -1
    anywhere in them (lex rows pad at the end, the kernel takes any), and k."""
    N = draw(st.sampled_from(ROWS))
    t = draw(st.integers(1, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = (rng.random((N, t)) < draw(st.sampled_from([0.1, 0.5, 0.9]))).astype(np.uint8)
    m, width = draw(st.integers(0, 20)), draw(st.integers(0, 6))
    batch = rng.integers(-1, t, size=(m, width)).astype(np.intp)
    if draw(st.booleans()):  # lex-style rows: distinct columns, sorted, -1 after them
        for row in batch:
            size = int(rng.integers(0, min(width, t) + 1))
            row[:] = -1
            row[:size] = np.sort(rng.choice(t, size, replace=False))
    return bits, batch, draw(st.integers(1, 4))


class TestRowKernel:
    @settings(deadline=None)
    @given(kernel_inputs())
    def test_planes_match_byte_kernel(self, inputs):
        bits, batch, k = inputs
        N = bits.shape[0]
        planes = at_least(pack_columns(bits), batch, k, N)
        hits = byte_hits(byte_columns(bits), batch)
        assert planes.shape == (k + 1, len(batch), word_count(N)) and planes.dtype == np.uint64
        for i in range(k + 1):
            assert np.array_equal(planes[i], pack(hits >= i))
        assert not padding(planes, N).any()
        for i in range(k):  # the flags the checkers read: fewer than i + 1 hits, exactly i
            assert np.array_equal(planes[0] ^ planes[i + 1], pack(hits <= i))
            assert np.array_equal(planes[i] ^ planes[i + 1], pack(hits == i))

    def test_columns_and_identity(self):
        for N, t in [(0, 1), (1, 3), (64, 64), (65, 130), (130, 70)]:
            bits = (np.random.default_rng(N + t).random((N, t)) < 0.5).astype(np.uint8)
            cols = pack_columns(bits)
            assert np.array_equal(cols[:t], pack(bits.T.astype(bool)))
            assert not cols[t].any()
            members = at_least(identity(t), np.array([[0, t - 1, -1]]), 1, t)[1]
            assert np.array_equal(members, pack(np.isin(np.arange(t), [0, t - 1])[None]))
        assert not identity(5).flags.writeable

    @given(N=st.sampled_from([1, 7, 8, 63, 64, 65, 200]), t=st.integers(1, 20),
           dtype=st.sampled_from([bool, np.uint8, np.int64, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_columns_are_the_packed_transpose(self, N, t, dtype, seed):
        # packed in one pass into a zeroed buffer: the words of pack(bits.T),
        # padding bits zero, and a zero row for index -1
        bits = (np.random.default_rng(seed).random((N, t)) < 0.5).astype(dtype)
        cols = pack_columns(bits)
        assert cols.shape == (t + 1, word_count(N)) and cols.dtype == np.uint64
        assert np.array_equal(cols[:t], pack(bits.T))
        assert not cols[t].any() and not padding(cols, N).any()

    @settings(deadline=None)
    @given(st.integers(1, 1000))
    def test_identity_is_the_packed_eye(self, t):
        # set bit by bit, not packed from t x t flags, in pack's bit order
        assert np.array_equal(identity(t), pack_columns(np.eye(t, dtype=bool)))


@st.composite
def label_planes(draw):
    """m rows of N labels in range(2^b), b = 1..3 bits, from a small set of
    label vectors, so that rows repeat."""
    N, b = draw(st.sampled_from(ROWS)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.integers(0, 2**b, size=(draw(st.integers(1, 4)), N))
    return vectors[rng.integers(0, len(vectors), size=draw(st.integers(0, 12)))], b


class TestInterleave:
    @settings(deadline=None)
    @given(label_planes())
    def test_keys_as_packed_label_bits(self, inputs):
        # the key layout of check_design: flag r * b + c is bit c of row r's label
        labels, b = inputs
        m, N = labels.shape
        flags = (labels[:, :, None] >> np.arange(b) & 1).astype(bool)  # (m, N, b)
        planes = np.stack([pack(flags[:, :, c]) for c in range(b)])
        keys = interleave(planes, N)
        assert np.array_equal(keys, pack(flags.reshape(m, N * b)))
        assert keys.shape == (m, word_count(N * b))
        assert not padding(keys, N * b).any()
        # so keys are equal exactly where the label vectors are
        same_keys = (keys[:, None] == keys[None]).all(axis=2)
        assert np.array_equal(same_keys, (labels[:, None] == labels[None]).all(axis=2))

    def test_keys_read_only_the_first_n_flags(self):
        # a threshold map's key is a plane itself, so equal outcomes give
        # equal keys only as its padding bits are zero (TestRowKernel);
        # interleave reads the first n flags of each plane, so bits past
        # them do not split the keys of equal labels
        flags = np.ones((2, 65), dtype=bool)
        planes = pack(flags)[None].copy()
        planes[0, 1, 1] |= np.uint64(1)  # a bit past flag 64 of the second row
        assert not np.array_equal(planes[0, 0], planes[0, 1])
        assert np.array_equal(interleave(planes, 65), pack(flags))


@st.composite
def flag_rows(draw, rows=st.integers(0, 12)):
    """Rows of 1-190 flags (one to three words), as a bool matrix."""
    m = draw(st.integers(1, 190))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((draw(rows), m)) < draw(st.sampled_from([0.02, 0.1, 0.5]))


class TestOverlap:
    @settings(deadline=None)
    @given(flag_rows(), st.data())
    def test_shared_bits_are_shared_flags(self, A, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        B = rng.random((data.draw(st.integers(0, 12)), A.shape[1])) < 0.1
        got = overlap(pack(A), pack(B).T)
        assert got.shape == (len(A), len(B)) and got.dtype == bool
        assert np.array_equal(got, (A.astype(int) @ B.T.astype(int)) > 0)


def first_repeat_by_dict(flags: np.ndarray):
    """(p, n) of the first row n equal to an earlier row p, by a dict scan."""
    seen = {}
    for n, row in enumerate(map(tuple, flags)):
        if row in seen:
            return seen[row], n
        seen[row] = n
    return None


class TestFirstRepeat:
    @settings(deadline=None)
    @given(flag_rows(), st.integers(0, 4))
    def test_matches_a_dict_scan(self, flags, pool):
        # rows drawn from `pool` rows repeat often; pool 0 keeps them as drawn
        if pool and len(flags):
            flags = flags[np.random.default_rng(pool).integers(0, min(pool, len(flags)), len(flags))]
        assert first_repeat(pack(flags)) == first_repeat_by_dict(flags)

    @settings(deadline=None)
    @given(flag_rows(rows=st.integers(1, 12)))
    def test_no_repeat_all_equal_and_no_rows(self, flags):
        _, first = np.unique(flags, axis=0, return_index=True)
        assert first_repeat(pack(flags[np.sort(first)])) is None
        equal = np.repeat(flags[:1], len(flags), axis=0)
        assert first_repeat(pack(equal)) == first_repeat_by_dict(equal) == \
            (None if len(flags) == 1 else (0, 1))
        assert first_repeat(pack(flags[:0])) is None
