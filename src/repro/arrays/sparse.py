"""Chunk-offset compressed sparse arrays (paper, section 6).

The initial multidimensional array is stored sparse: it is divided into
chunks, and within each chunk only the non-zero elements are kept, each as a
``(offset, value)`` pair where ``offset`` is the element's row-major linear
offset *within the chunk*.  This is exactly the "chunk-offset compression"
the paper adopts from Zhao et al.

After aggregation all resulting arrays are stored dense (see
:mod:`repro.arrays.dense`), so this module only needs decode paths (sparse ->
coordinates) plus construction from / conversion to dense for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.arrays.chunking import BlockPartition, grid_block_lengths, split_points

OFFSET_DTYPE = np.int64
VALUE_DTYPE = np.float64


@dataclass(frozen=True)
class SparseChunk:
    """One compressed chunk: non-zero offsets and values.

    ``origin`` is the global coordinate of the chunk's ``[0, 0, ..., 0]``
    corner; ``shape`` is the chunk's extent.  ``offsets`` are row-major
    linear offsets within the chunk, strictly increasing; ``values`` are the
    corresponding non-zero values.
    """

    origin: tuple[int, ...]
    shape: tuple[int, ...]
    offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.origin) != len(self.shape):
            raise ValueError("origin and shape rank mismatch")
        if self.offsets.shape != self.values.shape or self.offsets.ndim != 1:
            raise ValueError("offsets and values must be equal-length 1-d arrays")

    @property
    def nnz(self) -> int:
        return int(self.offsets.size)

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def nbytes(self) -> int:
        """Logical compressed size: offset + value storage."""
        return int(self.offsets.nbytes + self.values.nbytes)

    def local_coords(self) -> np.ndarray:
        """Decode offsets to an ``(nnz, ndim)`` array of in-chunk coords."""
        ndim = len(self.shape)
        coords = np.empty((self.nnz, ndim), dtype=OFFSET_DTYPE)
        rem = self.offsets.astype(OFFSET_DTYPE, copy=True)
        for axis in range(ndim - 1, -1, -1):
            coords[:, axis] = rem % self.shape[axis]
            rem //= self.shape[axis]
        return coords

    def global_coords(self) -> np.ndarray:
        """Decode offsets to global coordinates (origin added)."""
        coords = self.local_coords()
        coords += np.asarray(self.origin, dtype=OFFSET_DTYPE)
        return coords

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.size, dtype=self.values.dtype)
        out[self.offsets] = self.values
        return out.reshape(self.shape)


def _chunk_grid(shape: Sequence[int], chunk_shape: Sequence[int]) -> BlockPartition:
    """Chunk grid as a BlockPartition with ceil-division part counts.

    Note: chunks produced this way are *balanced*, not fixed-size; with
    ``chunk_shape`` dividing ``shape`` (the common case) they coincide.
    """
    chunk_shape = tuple(chunk_shape)
    if len(chunk_shape) != len(shape) or any(c < 1 for c in chunk_shape):
        raise ValueError(
            f"chunk_shape {chunk_shape} must hold one positive extent per "
            f"axis of shape {tuple(shape)}"
        )
    parts = tuple(-(-s // c) for s, c in zip(shape, chunk_shape))
    return BlockPartition(tuple(shape), parts)


def _row_major_strides(shape: Sequence[int]) -> list[int]:
    strides = [1] * len(shape)
    for axis in range(len(shape) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * shape[axis + 1]
    return strides


def _sorted_summed(
    keys: np.ndarray, values: np.ndarray, bound: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, values)`` with keys strictly increasing, equal keys summed.

    ``keys`` are non-negative and below ``bound`` (default: their maximum
    plus one); the caller hands them over, and they may be overwritten.
    Each key is packed with its input position into one word, ``key <<
    shift | position``, and the words are sorted with numpy's default
    (SIMD) sort.  The words are unique, so any sort puts them in the stable
    order of ``keys``; the positions read back give the values' order.
    Keys too wide to share a word with a position fall back to a stable
    argsort, which yields the same order.  The sum is sequential, so each
    duplicate group is accumulated in input order (bit-identical to
    ``np.add.at`` on zeros).  Input that is already strictly increasing is
    returned as is; otherwise the returned values are a fresh array.
    """
    n = keys.size
    if n < 2 or bool((keys[1:] > keys[:-1]).all()):
        return keys, values
    shift = (n - 1).bit_length()
    if bound is None:
        bound = int(keys.max()) + 1
    if bound - 1 < 1 << (63 - shift):
        keys <<= shift
        keys |= np.arange(n, dtype=keys.dtype)
        keys.sort()
        order = keys & ((1 << shift) - 1)
        keys >>= shift
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    values = values[order]
    del order
    first = np.ones(n, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if not first.all():
        group = np.cumsum(first)
        group -= 1
        values = np.bincount(group, weights=values)
        del group
        keys = keys[first]
    return keys, values


def _merge_runs(
    runs: list[np.ndarray], kept: list[tuple[np.ndarray, np.ndarray | None]]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted per-chunk offset runs and their values into one run.

    ``runs[i]`` is a chunk's re-based offsets, already masked by ``keep`` in
    ``kept[i] = (values, keep)`` (``None`` keeps every value), so masked
    values are gathered only when placed.  Each run is tagged in place with
    its index in the low bits; the runs are concatenated, released and
    sorted, and a stable argsort of the tags lists each run's sorted
    positions in run order.  The result is :func:`_sorted_summed` of the
    concatenated runs (equal offsets summed in run order) at half its
    transient memory.  Both lists are consumed.
    """
    if len(runs) < 2:
        values, keep = kept.pop() if kept else (np.empty(0, dtype=VALUE_DTYPE), None)
        offsets = runs.pop() if runs else np.empty(0, dtype=OFFSET_DTYPE)
        return _sorted_summed(offsets, values if keep is None else values[keep])
    bits = (len(runs) - 1).bit_length()
    bounds = np.cumsum([run.size for run in runs[:-1]])
    for i in range(len(runs)):
        runs[i] <<= bits
        runs[i] |= i
    keys = np.concatenate(runs)
    runs.clear()
    keys.sort(kind="stable")
    tags = (keys & ((1 << bits) - 1)).astype(np.min_scalar_type(len(kept) - 1))
    order = np.argsort(tags, kind="stable")
    del tags
    keys >>= bits
    merged = np.empty(keys.size, dtype=kept[0][0].dtype)
    for at, (values, keep) in zip(np.split(order, bounds), kept):
        merged[at] = values if keep is None else values[keep]
    kept.clear()
    del order, at
    return _sorted_summed(keys, merged)


def _quotient(chunk: SparseChunk, step: int) -> np.ndarray:
    return chunk.offsets if step == 1 else chunk.offsets // step


def _rebased_offsets(chunk: SparseChunk, strides: Sequence[int]) -> np.ndarray:
    """The chunk's offsets re-linearised for a frame with other strides.

    ``strides[a]`` is the target frame's stride along chunk axis ``a``; the
    result is relative to the chunk's own corner.  With ``q[a] = offsets //
    prod(shape[a+1:])`` the coordinate along ``a`` is ``q[a] - q[a-1] *
    shape[a]``, so ``sum(coord[a] * strides[a])`` regroups into one
    multiply-add per axis whose stride differs from the chunk-extended one
    (``shape[a+1] * strides[a+1]``) -- no coordinate matrix, no ``divmod``.
    """
    out = np.zeros(chunk.nnz, dtype=OFFSET_DTYPE)
    steps = _row_major_strides(chunk.shape)
    extended = 0
    for axis in range(len(steps) - 1, -1, -1):
        weight = strides[axis] - extended
        if weight:
            quotient = _quotient(chunk, steps[axis])
            out += quotient if weight == 1 else quotient * weight
        extended = chunk.shape[axis] * strides[axis]
    return out


def _inside(
    chunk: SparseChunk, window: Sequence[tuple[int, int]]
) -> np.ndarray | None:
    """Mask of cells whose in-chunk coordinates fall in ``window``.

    ``None`` when the window covers the whole chunk (nothing to drop).
    """
    keep = None
    steps = _row_major_strides(chunk.shape)
    for axis, (lo, hi) in enumerate(window):
        extent = chunk.shape[axis]
        if lo <= 0 and hi >= extent:
            continue
        coord = _quotient(chunk, steps[axis])
        if axis:
            coord = coord - _quotient(chunk, steps[axis] * extent) * extent
        ok = (coord >= lo) & (coord < hi)
        keep = ok if keep is None else keep & ok
    return keep


class SparseArray:
    """A chunk-offset compressed sparse n-dimensional array."""

    __slots__ = ("shape", "chunks")

    def __init__(self, shape: Sequence[int], chunks: Sequence[SparseChunk]):
        self.shape = tuple(shape)
        self.chunks = list(chunks)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_dense(
        cls, data: np.ndarray, chunk_shape: Sequence[int] | None = None
    ) -> "SparseArray":
        """Compress a dense array.  Default: one chunk per array."""
        data = np.asarray(data)
        if chunk_shape is None:
            chunk_shape = data.shape
        grid = _chunk_grid(data.shape, chunk_shape)
        chunks: list[SparseChunk] = []
        for blocks in grid.iter_blocks():
            sl = grid.slices(blocks)
            sub = np.ascontiguousarray(data[sl])
            flat = sub.reshape(-1)
            offsets = np.flatnonzero(flat).astype(OFFSET_DTYPE)
            values = flat[offsets].astype(VALUE_DTYPE)
            origin = tuple(s.start for s in sl)
            chunks.append(SparseChunk(origin, sub.shape, offsets, values))
        return cls(data.shape, chunks)

    @classmethod
    def from_coords(
        cls,
        shape: Sequence[int],
        coords: np.ndarray,
        values: np.ndarray,
        chunk_shape: Sequence[int] | None = None,
    ) -> "SparseArray":
        """Build from an ``(nnz, ndim)`` coordinate list.

        Duplicate coordinates are summed in input order.  Coordinates must
        be integers (any dtype holding whole numbers) and in range.  Every
        fact is encoded once: one linearised key ``chunk_id * max_chunk_size
        + in_chunk_offset`` per fact, one sort, one slice per chunk.  The
        result has one chunk per grid block, in ``iter_blocks`` order; the
        chunks' ``values`` are views of one array the result owns.
        """
        shape = tuple(shape)
        coords = np.asarray(coords)
        values = np.asarray(values, dtype=VALUE_DTYPE)
        if coords.ndim != 2 or coords.shape[1] != len(shape):
            raise ValueError("coords must be (nnz, ndim)")
        if coords.shape[0] != values.shape[0]:
            raise ValueError("coords/values length mismatch")
        if chunk_shape is None:
            chunk_shape = shape
        grid = _chunk_grid(shape, chunk_shape)
        if coords.dtype.kind == "f" and coords.size:
            if (coords != np.floor(coords)).any():
                raise ValueError("coordinates must be integers")
            # Bounded before the cast, so an infinite or huge float never
            # reaches int64; the per-axis lookups below check each extent.
            if coords.min() < 0 or coords.max() >= max(shape):
                raise ValueError("coordinates out of range")
        coords = coords.astype(OFFSET_DTYPE, copy=False)
        # Lower bound here (unsigned input past int64 wraps negative); an
        # index past an axis' extent fails that axis' table lookup below.
        if coords.size and coords.min() < 0:
            raise ValueError("coordinates out of range")
        # Keys order facts by chunk, then row-major inside a frame of the
        # largest chunk extents (balanced chunks differ by at most one cell
        # per axis), so each axis contributes one table lookup per fact.
        padded = tuple(max(n) for n in grid_block_lengths(shape, grid.parts))
        max_chunk_size = math.prod(padded)
        keys = np.zeros(coords.shape[0], dtype=OFFSET_DTYPE)
        chunk_step, cell_step = max_chunk_size, 1
        for axis in range(len(shape) - 1, -1, -1):
            s, m = shape[axis], grid.parts[axis]
            index = np.arange(s, dtype=OFFSET_DTYPE)
            owner = ((index + 1) * m - 1) // s  # block_of_index, vectorised
            local = index - np.asarray(split_points(s, m), dtype=OFFSET_DTYPE)[owner]
            try:
                keys += (owner * chunk_step + local * cell_step)[coords[:, axis]]
            except IndexError:
                raise ValueError("coordinates out of range") from None
            chunk_step *= m
            cell_step *= padded[axis]
        keys, summed = _sorted_summed(keys, values, grid.num_blocks * max_chunk_size)
        if summed is values:  # already sorted: possibly the caller's array
            summed = summed.copy()
        starts = np.searchsorted(
            keys, np.arange(grid.num_blocks + 1, dtype=OFFSET_DTYPE) * max_chunk_size
        )
        chunks: list[SparseChunk] = []
        for b, blocks in enumerate(grid.iter_blocks()):
            origin = tuple(x.start for x in grid.slices(blocks))
            cshape = grid.local_shape(blocks)
            lo, hi = starts[b], starts[b + 1]
            chunk = SparseChunk(
                origin, padded, keys[lo:hi] - b * max_chunk_size, summed[lo:hi]
            )
            if cshape != padded:
                offsets = _rebased_offsets(chunk, _row_major_strides(cshape))
                chunk = SparseChunk(origin, cshape, offsets, chunk.values)
            chunks.append(chunk)
        return cls(shape, chunks)

    # -- properties --------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return sum(c.nnz for c in self.chunks)

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def sparsity(self) -> float:
        """Fraction of elements that are non-zero (paper's definition)."""
        return self.nnz / self.size if self.size else 0.0

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self.chunks)

    def iter_chunks(self) -> Iterator[SparseChunk]:
        return iter(self.chunks)

    # -- conversion / slicing ------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        for c in self.chunks:
            sl = tuple(slice(o, o + s) for o, s in zip(c.origin, c.shape))
            out[sl] += c.to_dense()
        return out

    def all_coords_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Global ``(nnz, ndim)`` coordinates and values, concatenated."""
        if not self.chunks:
            return (
                np.empty((0, self.ndim), dtype=OFFSET_DTYPE),
                np.empty(0, dtype=VALUE_DTYPE),
            )
        coords = np.concatenate([c.global_coords() for c in self.chunks])
        values = np.concatenate([c.values for c in self.chunks])
        return coords, values

    def transpose(self, order: Sequence[int]) -> "SparseArray":
        """Axes permuted so that new axis ``i`` is old axis ``order[i]``.

        The identity order returns ``self``.  Otherwise the chunk grid is
        preserved under the permutation: each chunk keeps its facts, gets
        the permuted ``origin`` / ``shape``, and has its offsets
        re-linearised under the permuted strides and re-sorted; chunks are
        listed in row-major order of the permuted origins.  ``values`` are
        never decoded to coordinates.
        """
        order = tuple(order)
        if sorted(order) != list(range(self.ndim)):
            raise ValueError(f"order {order} is not a permutation of the axes")
        if order == tuple(range(self.ndim)):
            return self
        chunks = []
        for c in self.chunks:
            shape = tuple(c.shape[a] for a in order)
            strides = [0] * self.ndim
            for pos, step in enumerate(_row_major_strides(shape)):
                strides[order[pos]] = step
            offsets, values = _sorted_summed(
                _rebased_offsets(c, strides), c.values, c.size
            )
            origin = tuple(c.origin[a] for a in order)
            chunks.append(SparseChunk(origin, shape, offsets, values))
        chunks.sort(key=lambda c: c.origin)
        return SparseArray(tuple(self.shape[a] for a in order), chunks)

    def extract_block(self, slices: Sequence[slice]) -> "SparseArray":
        """Sub-array covered by per-dimension slices, as one sorted chunk.

        Used to hand each simulated processor its partition of the initial
        array.  Slices must have unit step and explicit bounds.  The result
        holds exactly one chunk spanning the block (none if the block is
        empty) with strictly increasing offsets: each intersecting chunk's
        offsets are re-based into the block frame (only chunks that
        straddle the block boundary are masked) and the per-chunk runs are
        merged by :func:`_merge_runs`.  A block covered by a single chunk
        shares that chunk's ``values``; inputs are immutable by contract.
        """
        lows = []
        highs = []
        for sl, s in zip(slices, self.shape, strict=True):
            lo = 0 if sl.start is None else sl.start
            hi = s if sl.stop is None else sl.stop
            if sl.step not in (None, 1) or not 0 <= lo <= hi <= s:
                raise ValueError(f"bad slice {sl} for size {s}")
            lows.append(lo)
            highs.append(hi)
        sub_shape = tuple(int(hi - lo) for lo, hi in zip(lows, highs))
        if any(s == 0 for s in sub_shape):
            # Empty block: no chunks, zero nnz.
            return SparseArray(sub_shape, [])
        strides = _row_major_strides(sub_shape)
        runs: list[np.ndarray] = []
        kept: list[tuple[np.ndarray, np.ndarray | None]] = []
        for c in self.chunks:
            # In-chunk coordinate window that falls inside the block.
            window = [
                (lo - o, hi - o)
                for lo, hi, o in zip(lows, highs, c.origin, strict=True)
            ]
            if any(lo >= e or hi <= 0 for (lo, hi), e in zip(window, c.shape)):
                continue
            offsets = _rebased_offsets(c, strides)
            offsets += sum(-lo * st for (lo, _), st in zip(window, strides))
            keep = _inside(c, window)
            runs.append(offsets if keep is None else offsets[keep])
            kept.append((c.values, keep))
            del offsets
        offsets, values = _merge_runs(runs, kept)
        origin = (0,) * self.ndim
        return SparseArray(sub_shape, [SparseChunk(origin, sub_shape, offsets, values)])
