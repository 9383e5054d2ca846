"""Unit tests for the chunk-offset compressed sparse format."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import aggregate
from repro.arrays.chunking import BlockPartition
from repro.arrays.sparse import BlockChunk, SparseArray, SparseChunk


def make_dense(shape, seed=0, density=0.4):
    rng = np.random.default_rng(seed)
    data = rng.uniform(1.0, 2.0, size=shape)
    mask = rng.uniform(size=shape) < density
    return np.where(mask, data, 0.0)


class TestSparseChunk:
    def test_local_coords_roundtrip(self):
        dense = make_dense((4, 5), seed=1)
        arr = SparseArray.from_dense(dense)
        chunk = arr.chunks[0]
        coords = chunk.local_coords()
        rebuilt = np.zeros((4, 5))
        rebuilt[coords[:, 0], coords[:, 1]] = chunk.values
        assert np.array_equal(rebuilt, dense)

    def test_global_coords_add_origin(self):
        dense = make_dense((6, 4), seed=2)
        arr = SparseArray.from_dense(dense, chunk_shape=(3, 2))
        for chunk in arr.chunks:
            g = chunk.global_coords()
            loc = chunk.local_coords()
            assert np.array_equal(g, loc + np.asarray(chunk.origin))

    def test_to_dense(self):
        dense = make_dense((3, 3), seed=3)
        arr = SparseArray.from_dense(dense)
        assert np.array_equal(arr.chunks[0].to_dense(), dense)

    def test_nbytes_counts_offsets_and_values(self):
        chunk = SparseChunk(
            (0,), (10,), np.array([1, 5], dtype=np.int64), np.array([1.0, 2.0])
        )
        assert chunk.nbytes == 2 * 8 + 2 * 8

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SparseChunk((0,), (10,), np.array([1], dtype=np.int64), np.array([1.0, 2.0]))


class TestFromDense:
    def test_roundtrip_single_chunk(self):
        dense = make_dense((5, 6, 3), seed=4)
        arr = SparseArray.from_dense(dense)
        assert np.array_equal(arr.to_dense(), dense)

    def test_roundtrip_chunked(self):
        dense = make_dense((8, 6), seed=5)
        arr = SparseArray.from_dense(dense, chunk_shape=(3, 2))
        assert np.array_equal(arr.to_dense(), dense)
        assert len(arr.chunks) == 3 * 3

    def test_nnz(self):
        dense = np.zeros((4, 4))
        dense[0, 0] = 1.0
        dense[3, 2] = 2.0
        arr = SparseArray.from_dense(dense, chunk_shape=(2, 2))
        assert arr.nnz == 2

    def test_sparsity(self):
        dense = np.zeros((2, 5))
        dense[0, :] = 1.0
        arr = SparseArray.from_dense(dense)
        assert arr.sparsity == 0.5

    def test_all_zero(self):
        arr = SparseArray.from_dense(np.zeros((3, 3)))
        assert arr.nnz == 0
        assert np.array_equal(arr.to_dense(), np.zeros((3, 3)))


class TestFromCoords:
    def test_basic(self):
        arr = SparseArray.from_coords(
            (4, 4), np.array([[0, 1], [2, 3]]), np.array([1.5, 2.5])
        )
        dense = arr.to_dense()
        assert dense[0, 1] == 1.5 and dense[2, 3] == 2.5
        assert arr.nnz == 2

    def test_duplicates_summed(self):
        arr = SparseArray.from_coords(
            (3, 3), np.array([[1, 1], [1, 1], [0, 0]]), np.array([1.0, 2.0, 5.0])
        )
        assert arr.to_dense()[1, 1] == 3.0
        assert arr.nnz == 2

    def test_chunked_placement(self):
        coords = np.array([[0, 0], [7, 7], [3, 4]])
        arr = SparseArray.from_coords((8, 8), coords, np.ones(3), chunk_shape=(4, 4))
        assert len(arr.chunks) == 4
        assert arr.nnz == 3
        dense = arr.to_dense()
        assert dense[0, 0] == dense[7, 7] == dense[3, 4] == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseArray.from_coords((2, 2), np.array([[2, 0]]), np.array([1.0]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SparseArray.from_coords((2, 2), np.array([[0, 0, 0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            SparseArray.from_coords((2, 2), np.array([[0, 0]]), np.array([1.0, 2.0]))

    def test_empty(self):
        arr = SparseArray.from_coords(
            (3, 3), np.empty((0, 2), dtype=np.int64), np.empty(0)
        )
        assert arr.nnz == 0


class TestAllCoordsValues:
    def test_matches_dense(self):
        dense = make_dense((6, 5), seed=6)
        arr = SparseArray.from_dense(dense, chunk_shape=(2, 5))
        coords, values = arr.all_coords_values()
        rebuilt = np.zeros((6, 5))
        rebuilt[coords[:, 0], coords[:, 1]] = values
        assert np.array_equal(rebuilt, dense)

    def test_empty_array(self):
        arr = SparseArray((3, 3), [])
        coords, values = arr.all_coords_values()
        assert coords.shape == (0, 2)
        assert values.shape == (0,)


class TestExtractBlock:
    def test_matches_dense_slice(self):
        dense = make_dense((8, 7, 5), seed=7)
        arr = SparseArray.from_dense(dense, chunk_shape=(4, 4, 4))
        sl = (slice(2, 6), slice(0, 7), slice(1, 4))
        sub = arr.extract_block(sl)
        assert np.array_equal(sub.to_dense(), dense[sl])

    def test_empty_block(self):
        dense = np.zeros((4, 4))
        dense[0, 0] = 1.0
        arr = SparseArray.from_dense(dense)
        sub = arr.extract_block((slice(2, 4), slice(2, 4)))
        assert sub.nnz == 0
        assert sub.shape == (2, 2)

    def test_full_block_is_identity(self):
        dense = make_dense((5, 5), seed=8)
        arr = SparseArray.from_dense(dense)
        sub = arr.extract_block((slice(0, 5), slice(0, 5)))
        assert np.array_equal(sub.to_dense(), dense)

    def test_rejects_stepped_slice(self):
        arr = SparseArray.from_dense(np.ones((4, 4)))
        with pytest.raises(ValueError):
            arr.extract_block((slice(0, 4, 2), slice(0, 4)))

    def test_rejects_out_of_bounds(self):
        arr = SparseArray.from_dense(np.ones((4, 4)))
        with pytest.raises(ValueError):
            arr.extract_block((slice(0, 5), slice(0, 4)))

    def test_blocks_partition_nnz(self):
        dense = make_dense((9, 6), seed=9)
        arr = SparseArray.from_dense(dense, chunk_shape=(3, 3))
        total = 0
        for lo, hi in ((0, 3), (3, 9)):
            sub = arr.extract_block((slice(lo, hi), slice(0, 6)))
            total += sub.nnz
        assert total == arr.nnz


class TestFromCoordsIntegerCoordinates:
    def test_rejects_fractional_coordinates(self):
        with pytest.raises(ValueError, match="coordinates must be integers"):
            SparseArray.from_coords((2, 2), np.array([[0.9, 1.2]]), np.array([1.0]))
        with pytest.raises(ValueError, match="coordinates must be integers"):
            SparseArray.from_coords((2, 2), [[0, np.nan]], [1.0])

    def test_accepts_whole_valued_and_empty_float_coordinates(self):
        arr = SparseArray.from_coords((2, 3), np.array([[1.0, 2.0]]), np.array([4.0]))
        assert arr.to_dense()[1, 2] == 4.0
        assert arr.chunks[0].offsets.dtype == np.int64
        assert SparseArray.from_coords((2, 3), np.empty((0, 2)), np.empty(0)).nnz == 0


@st.composite
def fact_tables(draw, max_dim=4, max_extent=7, max_facts=40):
    """(shape, chunk_shape, coords, values): shuffled facts with duplicates,
    non-integer values and chunk shapes that need not divide the shape."""
    n = draw(st.integers(1, max_dim))
    shape = tuple(draw(st.integers(1, max_extent)) for _ in range(n))
    chunk_shape = tuple(draw(st.integers(1, s)) for s in shape)
    nnz = draw(st.integers(0, max_facts))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = np.stack([rng.integers(0, s, nnz) for s in shape], axis=1)
    if nnz and draw(st.booleans()):
        coords[rng.integers(0, nnz, nnz // 2)] = coords[0]  # pile up duplicates
    values = rng.uniform(-1.0, 1.0, nnz)
    return shape, chunk_shape, coords, values


def assert_sorted_chunk(chunk):
    assert chunk.offsets.dtype == np.int64 and chunk.values.dtype == np.float64
    assert (np.diff(chunk.offsets) > 0).all()
    assert chunk.nnz == 0 or 0 <= chunk.offsets[0] and chunk.offsets[-1] < chunk.size


class TestFromCoordsProperties:
    @given(table=fact_tables())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_input_order_dense_sum(self, table):
        shape, chunk_shape, coords, values = table
        oracle = np.zeros(shape)
        np.add.at(oracle, tuple(coords.T), values)  # sequential, input order
        arr = SparseArray.from_coords(shape, coords, values, chunk_shape=chunk_shape)
        assert arr.to_dense().tobytes() == oracle.tobytes()
        assert arr.nnz == len({tuple(c) for c in coords.tolist()})

    @given(table=fact_tables())
    @settings(max_examples=100, deadline=None)
    def test_one_sorted_chunk_per_grid_block(self, table):
        shape, chunk_shape, coords, values = table
        arr = SparseArray.from_coords(shape, coords, values, chunk_shape=chunk_shape)
        grid = BlockPartition(shape, tuple(-(-s // c) for s, c in zip(shape, chunk_shape)))
        blocks = list(grid.iter_blocks())
        assert len(arr.chunks) == len(blocks)  # empty chunks are kept
        for chunk, block in zip(arr.chunks, blocks):
            assert chunk.origin == tuple(sl.start for sl in grid.slices(block))
            assert chunk.shape == grid.local_shape(block)
            assert_sorted_chunk(chunk)

    def test_does_not_alias_the_callers_arrays(self):
        for coords, values in (
            ([[0, 0], [0, 1], [1, 1]], [1.0, 2.0, 3.0]),  # sorted: returned as is
            ([[1, 1], [0, 0], [0, 1]], [3.0, 1.0, 2.0]),  # gathered by the sort
        ):
            coords, values = np.array(coords), np.array(values)
            arr = SparseArray.from_coords((2, 2), coords, values, chunk_shape=(1, 2))
            assert not any(np.shares_memory(c.values, values) for c in arr.chunks)
            values[:] = -1.0
            coords[:] = 0
            assert arr.to_dense().tolist() == [[1.0, 2.0], [0.0, 3.0]]

    def test_chunk_values_are_views_of_one_array(self):
        coords = np.array([[3, 3], [0, 0], [3, 0], [0, 3], [0, 0]])
        arr = SparseArray.from_coords((4, 4), coords, np.ones(5), chunk_shape=(2, 2))
        (base,) = {id(c.values.base) for c in arr.chunks}
        assert base != id(None)


def _sort_calls(monkeypatch):
    """Record ``(name, kind)`` of each ``np.sort`` / ``np.argsort`` call while
    the test runs."""
    calls = []
    for name in ("sort", "argsort"):
        real = getattr(np, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append((_name, kwargs.get("kind")))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    return calls


class TestFromCoordsSortPaths:
    """Keys are sorted packed with their positions into one word; keys too
    wide for that take a stable argsort.  Both give the same chunks."""

    @pytest.mark.parametrize(
        "extent, argsorts", [(2**20, ["stable"]), (2**19, [])]
    )
    def test_wide_keys_fall_back_to_a_stable_argsort(self, monkeypatch, extent, argsorts):
        # 64 facts pack their positions into 6 bits: a single chunk of
        # 2**60 cells leaves too few, one of 2**57 cells just fits.
        rng = np.random.default_rng(17)
        coords = rng.integers(0, extent, size=(64, 3))
        coords[rng.integers(0, 64, 24)] = coords[:24]  # duplicates
        values = rng.uniform(-1.0, 1.0, 64)
        calls = _sort_calls(monkeypatch)
        arr = SparseArray.from_coords((extent,) * 3, coords, values)
        assert calls == [("argsort", kind) for kind in argsorts]
        (chunk,) = arr.chunks
        assert_sorted_chunk(chunk)
        want: dict[tuple[int, ...], float] = {}
        for cell, value in zip(map(tuple, coords.tolist()), values.tolist()):
            want[cell] = want.get(cell, 0.0) + value  # input order
        got_coords, got_values = arr.all_coords_values()
        cells = list(map(tuple, got_coords.tolist()))
        assert cells == sorted(want)
        assert got_values.tobytes() == np.array([want[c] for c in cells]).tobytes()

    def test_wide_shift_with_heavy_duplicates_matches_add_at(self, monkeypatch):
        # 2**17 facts need a 17-bit position field: wider than any table the
        # property tests draw.
        rng = np.random.default_rng(19)
        shape = (16, 12, 10)
        coords = np.stack([rng.integers(0, s, 2**17) for s in shape], axis=1)
        values = rng.standard_normal(2**17) * 1e3
        calls = _sort_calls(monkeypatch)
        arr = SparseArray.from_coords(shape, coords, values, chunk_shape=(5, 12, 4))
        assert calls == []
        oracle = np.zeros(shape)
        np.add.at(oracle, tuple(coords.T), values)
        assert arr.to_dense().tobytes() == oracle.tobytes()
        for chunk in arr.chunks:
            assert_sorted_chunk(chunk)

    @pytest.mark.parametrize("facts, limit", [("distinct", 24), ("zipf", 48)])
    def test_ingest_transients_are_bounded(self, facts, limit):
        # Bytes allocated above what the result keeps, per raw fact.
        rng = np.random.default_rng(23)
        shape, n = (32,) * 4, 2**18
        if facts == "distinct":
            cells = rng.choice(32**4, n, replace=False)
            coords = np.stack(np.unravel_index(cells, shape), axis=1)
        else:
            coords = np.minimum(rng.zipf(1.2, size=(n, 4)) - 1, 31)
        coords = coords.astype(np.int64)
        values = rng.uniform(1.0, 2.0, n)
        tracemalloc.start()
        arr = SparseArray.from_coords(shape, coords, values, chunk_shape=(16,) * 4)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert arr.nnz <= n
        assert (peak - kept) / n <= limit, ((peak - kept) / n, kept)


class TestFromCoordsValidation:
    SHAPE = (4, 3, 5)

    @pytest.mark.parametrize("chunk_shape", [(0, 3, 5), (2, 3), (-2, 3, 5)])
    def test_rejects_bad_chunk_shapes(self, chunk_shape):
        with pytest.raises(ValueError, match="chunk_shape"):
            SparseArray.from_coords(
                self.SHAPE, np.zeros((1, 3), dtype=np.int64), [1.0], chunk_shape
            )
        with pytest.raises(ValueError, match="chunk_shape"):
            SparseArray.from_dense(np.ones(self.SHAPE), chunk_shape)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("bad", ["-1", "extent", "uint64", "inf", "-inf"])
    def test_rejects_out_of_range_coordinates(self, axis, bad):
        coords = np.array([[0, 0, 0], [3, 2, 4]], dtype=np.int64)
        if bad == "uint64":
            coords = coords.astype(np.uint64)
            coords[1, axis] = 2**63
        elif bad in ("inf", "-inf"):
            coords = coords.astype(np.float64)
            coords[1, axis] = float(bad)
        else:
            coords[1, axis] = -1 if bad == "-1" else self.SHAPE[axis]
        with pytest.raises(ValueError, match="coordinates out of range"):
            SparseArray.from_coords(self.SHAPE, coords, [1.0, 2.0], (2, 2, 2))


def assert_block_of(arr, slices, block):
    """The ``extract_block`` contract: the dense slice bit for bit, as one
    chunk whose offsets are unique and in range, each source chunk's facts
    contiguous, in ``arr.chunks`` order and increasing within the chunk."""
    lows = np.array([sl.start for sl in slices])
    assert block.to_dense().tobytes() == arr.to_dense()[tuple(slices)].tobytes()
    (chunk,) = block.chunks
    chunk = chunk.materialized()
    assert chunk.origin == (0,) * arr.ndim and chunk.shape == block.shape
    assert chunk.offsets.dtype == np.int64 and chunk.values.dtype == np.float64
    assert np.unique(chunk.offsets).size == chunk.nnz
    assert chunk.nnz == 0 or 0 <= chunk.offsets.min() and chunk.offsets.max() < chunk.size
    coords = chunk.local_coords() + lows
    source = np.full(chunk.nnz, -1)
    for i, c in enumerate(arr.chunks):
        lo, hi = np.array(c.origin), np.array(c.origin) + c.shape
        source[((coords >= lo) & (coords < hi)).all(axis=1)] = i
    assert (source >= 0).all()
    assert (np.diff(source) >= 0).all()  # contiguous, in chunks order
    within = np.diff(source) == 0
    assert (np.diff(chunk.offsets)[within] > 0).all()
    return source


def draw_slices(data, shape):
    """A non-empty block of ``shape``, drawn from hypothesis ``data``."""
    slices = []
    for s in shape:
        lo = data.draw(st.integers(0, s - 1))
        slices.append(slice(lo, data.draw(st.integers(lo + 1, s))))
    return slices


class TestExtractBlockProperties:
    @given(table=fact_tables(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_dense_slice_as_one_chunk(self, table, data):
        shape, chunk_shape, coords, values = table
        arr = SparseArray.from_coords(shape, coords, values, chunk_shape=chunk_shape)
        slices = draw_slices(data, shape)
        assert_block_of(arr, slices, arr.extract_block(slices))

    @pytest.mark.parametrize(
        "chunk_shape, parts",
        [
            ((4, 3), (2, 2)),  # aligned: every chunk lies inside one block
            ((8, 6), (2, 2)),  # one chunk split four ways
            ((3, 4), (2, 2)),  # chunks straddle block boundaries
            ((4, 3), (3, 4)),  # unbalanced blocks: 8 / 3 and 6 / 4
        ],
    )
    def test_blocks_of_a_processor_grid(self, chunk_shape, parts):
        dense = make_dense((8, 6), seed=11)
        dense[:3, :] = 0.0  # some blocks hold no facts at all
        arr = SparseArray.from_dense(dense, chunk_shape=chunk_shape)
        grid = BlockPartition(dense.shape, parts)
        total = 0
        for block in grid.iter_blocks():
            sl = grid.slices(block)
            sub = arr.extract_block(sl)
            assert_block_of(arr, sl, sub)
            total += sub.nnz
        assert total == arr.nnz

    def test_fig7_like_blocks_concatenate_chunks_unsorted(self, monkeypatch):
        # As Fig 7's grid: blocks split the outer axes, and each block is a
        # 2x2 tiling of chunks along its inner axes.
        arr = SparseArray.from_dense(make_dense((8,) * 4, seed=14), chunk_shape=(4,) * 4)
        grid = BlockPartition(arr.shape, (2, 2, 1, 1))
        calls = _sort_calls(monkeypatch)
        blocks = [(grid.slices(b), arr.extract_block(grid.slices(b))) for b in grid.iter_blocks()]
        assert calls == []
        monkeypatch.undo()
        for sl, block in blocks:
            assert len(set(assert_block_of(arr, sl, block).tolist())) == 4
            assert (np.diff(block.chunks[0].offsets) < 0).any()  # not re-sorted

    def test_block_equal_to_a_chunk_shares_its_values(self):
        arr = SparseArray.from_dense(make_dense((4, 6), seed=12), chunk_shape=(2, 3))
        chunk = arr.chunks[3]
        sl = tuple(slice(o, o + s) for o, s in zip(chunk.origin, chunk.shape))
        (block_chunk,) = arr.extract_block(sl).chunks
        assert block_chunk.values is chunk.values
        assert block_chunk.offsets is chunk.offsets

    @pytest.mark.parametrize(
        "chunk_shape, parts",
        [
            ((16, 16, 16), (2, 2, 1)),  # four chunks per block, as Fig 7's grid
            ((24, 20, 16), (2, 2, 1)),  # straddling chunks are masked
            ((16, 16, 16), (1, 1, 1)),  # one block of all 16 chunks
        ],
    )
    def test_partition_transients_are_bounded(self, chunk_shape, parts, monkeypatch):
        # A block of several kernel slabs is a recipe: extract_block
        # allocates no fact array.  It keeps a one-byte mask per fact of each
        # straddling chunk, and its transients are one straddling chunk's
        # index temporaries.  Copying the blocks' facts would cost 16 bytes
        # per fact.
        monkeypatch.setattr(aggregate, "_SLAB", 1024)
        dense = make_dense((64, 64, 16), seed=13, density=0.5)
        arr = SparseArray.from_dense(dense, chunk_shape=chunk_shape)
        grid = BlockPartition(dense.shape, parts)
        tracemalloc.start()
        blocks = [arr.extract_block(grid.slices(b)) for b in grid.iter_blocks()]
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert sum(b.nnz for b in blocks) == arr.nnz
        masks = [k.nbytes for b in blocks for _, _, k in b.chunks[0].parts if k is not None]
        assert bool(masks) == (chunk_shape == (24, 20, 16))
        slack = 16 * 1024  # the recipes themselves
        assert kept <= sum(masks) + slack, (kept, sum(masks))
        assert peak <= kept + 3 * 8 * max(masks, default=0) + slack, (peak, kept)
        assert 16 * arr.nnz > 8 * (sum(masks) + slack)


class TestStreamedBlock:
    """A rank block's facts are produced slab by slab, never stored whole."""

    @given(
        table=fact_tables(max_facts=80),
        data=st.data(),
        length=st.sampled_from([1, 2, 3, 5, 7, 11]),
    )
    @settings(max_examples=150, deadline=None)
    def test_slabs_concatenate_to_the_materialised_block(self, table, data, length):
        # Slabs cut across source chunks and straddle masks wherever the
        # concatenation does: every slab but the last holds ``length`` facts.
        shape, chunk_shape, coords, values = table
        arr = SparseArray.from_coords(shape, coords, values, chunk_shape=chunk_shape)
        with mock.patch.object(aggregate, "_SLAB", 1):  # stream every block of 2+ facts
            (chunk,) = arr.extract_block(draw_slices(data, shape)).chunks
        whole = chunk.materialized()
        # A yielded slab is valid until the next is requested: copy it.
        slabs = [(s.offsets.copy(), s.values.copy()) for s in chunk.slabs(length)]
        sizes = [o.size for o, _ in slabs]
        assert sum(sizes) == chunk.nnz == whole.nnz
        assert all(n == length for n in sizes[:-1]) and 0 < min(sizes, default=1) <= length
        for got, want in zip(zip(*slabs), (whole.offsets, whole.values)):
            assert np.concatenate(got or [want[:0]]).tobytes() == want.tobytes()

    @given(table=fact_tables(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_nested_block_equals_direct_extraction(self, table, data):
        # A block of a block materialises the outer one and filters it: the
        # same facts, in the same order, as extracting the inner one directly.
        shape, chunk_shape, coords, values = table
        arr = SparseArray.from_coords(shape, coords, values, chunk_shape=chunk_shape)
        outer = draw_slices(data, shape)
        inner = draw_slices(data, [sl.stop - sl.start for sl in outer])
        with mock.patch.object(aggregate, "_SLAB", 1):
            nested = arr.extract_block(outer).extract_block(inner)
            direct = arr.extract_block(
                [slice(o.start + i.start, o.start + i.stop) for o, i in zip(outer, inner)]
            )
        (got,), (want,) = nested.chunks, direct.chunks
        got, want = got.materialized(), want.materialized()
        assert got.offsets.tobytes() == want.offsets.tobytes()
        assert got.values.tobytes() == want.values.tobytes()

    def test_a_block_of_one_slab_is_filled_at_partition(self, monkeypatch):
        # Its one slab is the whole block, so the host fills it; a larger
        # block's arrays are materialised afresh on each read.
        arr = SparseArray.from_dense(make_dense((8, 6), seed=15), chunk_shape=(3, 4))
        sl = (slice(1, 7), slice(0, 5))
        (filled,) = arr.extract_block(sl).chunks
        monkeypatch.setattr(aggregate, "_SLAB", filled.nnz - 1)
        (chunk,) = arr.extract_block(sl).chunks
        assert isinstance(filled, SparseChunk) and isinstance(chunk, BlockChunk)
        assert chunk.nbytes == filled.nbytes == 16 * filled.nnz
        assert chunk.offsets.tobytes() == filled.offsets.tobytes()
        assert chunk.values.tobytes() == filled.values.tobytes()
        assert chunk.offsets is not chunk.offsets


class TestTranspose:
    def test_identity_returns_self(self):
        arr = SparseArray.from_dense(make_dense((3, 4), seed=13), chunk_shape=(2, 2))
        assert arr.transpose((0, 1)) is arr

    def test_rejects_non_permutation(self):
        arr = SparseArray.from_dense(np.ones((2, 2)))
        with pytest.raises(ValueError, match="permutation"):
            arr.transpose((0, 0))

    @given(table=fact_tables(), seed=st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_equals_ingest_in_the_permuted_order(self, table, seed):
        shape, chunk_shape, coords, values = table
        order = tuple(int(a) for a in np.random.default_rng(seed).permutation(len(shape)))
        arr = SparseArray.from_coords(shape, coords, values, chunk_shape=chunk_shape)
        got = arr.transpose(order)
        assert np.array_equal(got.to_dense(), np.transpose(arr.to_dense(), order))
        want = SparseArray.from_coords(
            tuple(shape[a] for a in order),
            coords[:, list(order)],
            values,
            chunk_shape=tuple(chunk_shape[a] for a in order),
        )
        assert len(got.chunks) == len(want.chunks)
        for g, w in zip(got.chunks, want.chunks):
            assert (g.origin, g.shape) == (w.origin, w.shape)
            assert np.array_equal(g.offsets, w.offsets)
            assert g.values.tobytes() == w.values.tobytes()
