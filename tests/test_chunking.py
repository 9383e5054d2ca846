"""Unit tests for block-partitioning geometry."""

import pytest

from repro.arrays.chunking import (
    BlockPartition,
    block_bounds,
    block_of_index,
    block_shape,
    block_slices,
    linear_offset,
    offset_to_coords,
    split_points,
)


class TestSplitPoints:
    def test_even_split(self):
        assert split_points(8, 4) == (0, 2, 4, 6, 8)

    def test_uneven_split(self):
        assert split_points(10, 4) == (0, 2, 5, 7, 10)

    def test_single_part(self):
        assert split_points(7, 1) == (0, 7)

    def test_parts_equal_size(self):
        assert split_points(5, 5) == (0, 1, 2, 3, 4, 5)

    def test_covers_whole_range(self):
        pts = split_points(17, 3)
        assert pts[0] == 0 and pts[-1] == 17

    def test_blocks_nonempty(self):
        for size in range(1, 30):
            for parts in range(1, size + 1):
                pts = split_points(size, parts)
                assert all(b > a for a, b in zip(pts, pts[1:]))

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            split_points(0, 1)

    def test_rejects_zero_parts(self):
        with pytest.raises(ValueError):
            split_points(5, 0)

    def test_rejects_too_many_parts(self):
        with pytest.raises(ValueError):
            split_points(3, 4)


class TestBlockBounds:
    def test_first_block(self):
        assert block_bounds(10, 4, 0) == (0, 2)

    def test_last_block(self):
        assert block_bounds(10, 4, 3) == (7, 10)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            block_bounds(10, 4, 4)
        with pytest.raises(ValueError):
            block_bounds(10, 4, -1)

    def test_consistent_with_split_points(self):
        pts = split_points(23, 5)
        for b in range(5):
            assert block_bounds(23, 5, b) == (pts[b], pts[b + 1])


class TestBlockOfIndex:
    def test_roundtrip_exhaustive(self):
        for size in (1, 2, 7, 16, 23):
            for parts in range(1, size + 1):
                for b in range(parts):
                    lo, hi = block_bounds(size, parts, b)
                    for i in range(lo, hi):
                        assert block_of_index(size, parts, i) == b

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            block_of_index(10, 2, 10)


class TestBlockShapeAndSlices:
    def test_shape(self):
        assert block_shape((10, 8), (4, 2), (0, 1)) == (2, 4)

    def test_slices(self):
        assert block_slices((10, 8), (4, 2), (3, 0)) == (slice(7, 10), slice(0, 4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            block_shape((10,), (4, 2), (0, 0))


class TestBlockPartition:
    def test_num_blocks(self):
        bp = BlockPartition((8, 6, 4), (2, 3, 1))
        assert bp.num_blocks == 6

    def test_iter_blocks_count_and_order(self):
        bp = BlockPartition((8, 6), (2, 2))
        blocks = list(bp.iter_blocks())
        assert blocks == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_blocks_tile_the_space(self):
        bp = BlockPartition((5, 7), (2, 3))
        seen = set()
        for blocks in bp.iter_blocks():
            sl = bp.slices(blocks)
            for i in range(sl[0].start, sl[0].stop):
                for j in range(sl[1].start, sl[1].stop):
                    assert (i, j) not in seen
                    seen.add((i, j))
        assert len(seen) == 35

    def test_owner_inverse_of_slices(self):
        bp = BlockPartition((9, 4), (3, 2))
        for blocks in bp.iter_blocks():
            sl = bp.slices(blocks)
            assert bp.owner((sl[0].start, sl[1].start)) == blocks
            assert bp.owner((sl[0].stop - 1, sl[1].stop - 1)) == blocks

    def test_project(self):
        bp = BlockPartition((8, 6, 4), (2, 3, 1))
        sub = bp.project((0, 2))
        assert sub.shape == (8, 4)
        assert sub.parts == (2, 1)

    def test_local_shape(self):
        bp = BlockPartition((10, 3), (4, 1))
        assert bp.local_shape((1, 0)) == (3, 3)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            BlockPartition((8, 6), (2,))

    def test_rejects_oversplit(self):
        with pytest.raises(ValueError):
            BlockPartition((2,), (4,))


class TestLinearOffset:
    def test_row_major(self):
        assert linear_offset((1, 2), (3, 4)) == 6

    def test_roundtrip(self):
        shape = (3, 4, 5)
        for off in range(60):
            coords = offset_to_coords(off, shape)
            assert linear_offset(coords, shape) == off

    def test_out_of_range_coord(self):
        with pytest.raises(ValueError):
            linear_offset((3, 0), (3, 4))

    def test_out_of_range_offset(self):
        with pytest.raises(ValueError):
            offset_to_coords(60, (3, 4, 5))


class TestSharedSplitArithmetic:
    """Regression pin: the shared helpers must reproduce the inline
    split-point arithmetic they replaced in the analyses and the shuffle
    scheduler, for every (size, parts) in range -- the model checker's
    bit-exact memory parity depends on all consumers agreeing."""

    def test_block_lengths_are_split_point_differences(self):
        from repro.arrays.chunking import block_lengths

        for size in range(1, 30):
            for parts in range(1, size + 1):
                pts = split_points(size, parts)
                expected = [pts[i + 1] - pts[i] for i in range(parts)]
                assert block_lengths(size, parts) == expected
                assert sum(expected) == size

    def test_grid_block_lengths_matches_per_dim_inline_form(self):
        from repro.arrays.chunking import block_lengths, grid_block_lengths

        shape, parts = (10, 3, 7), (4, 1, 2)
        grid = grid_block_lengths(shape, parts)
        assert grid == [block_lengths(s, m) for s, m in zip(shape, parts)]

    def test_portion_elements_matches_inline_product(self):
        from itertools import product

        from repro.arrays.chunking import grid_block_lengths, portion_elements

        shape, parts = (8, 6, 4), (2, 2, 1)
        lengths = grid_block_lengths(shape, parts)
        for label in product(*(range(m) for m in parts)):
            for dims in [(0,), (1,), (0, 1), (0, 2), (0, 1, 2), ()]:
                inline = 1
                for d in dims:
                    pts = split_points(shape[d], parts[d])
                    inline *= pts[label[d] + 1] - pts[label[d]]
                assert portion_elements(dims, label, lengths) == inline

    def test_verify_plan_and_scheduler_share_the_helpers(self):
        # The dedup is structural, not accidental: the recorder that
        # sizes verify_plan's input blocks and the shuffle scheduler both
        # import the shared helpers rather than re-deriving the arithmetic.
        import inspect

        import repro.analysis.model.record as record_mod
        import repro.sched.shuffle as shuffle_mod

        for mod in (record_mod, shuffle_mod):
            src = inspect.getsource(mod)
            assert "grid_block_lengths" in src or "portion_elements" in src
