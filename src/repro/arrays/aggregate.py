"""Aggregation kernels: sum an array over a set of cube dimensions.

These are the inner loops of cube construction.  Two paths:

- dense -> dense: plain ``numpy.sum`` over the dropped axes;
- sparse -> dense: turn a slab of each chunk's non-zeros into each
  target's flat output index and scatter-add with ``numpy.bincount`` (the
  vectorized equivalent of the per-element update loop in the paper's
  middleware).  A chunk in the output frame (every rank block) takes the
  index straight from its offsets; any other decodes the slab's
  coordinates and projects out the aggregated dimensions.

The paper's first aggregation level reads the sparse initial array once and
updates *all* first-level children simultaneously; :func:`aggregate_sparse_multi`
supports that access pattern by folding each slab into every target before
the next.  No ``(nnz, ndim)`` coordinate matrix of a whole chunk is ever
built, so the kernel's temporaries stay bounded per rank.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.arrays.dense import DenseArray, DEFAULT_DTYPE
from repro.arrays.measures import Measure, SUM, get_measure
from repro.arrays.sparse import SparseArray, SparseChunk, _inside


def project_axes(dims: Sequence[int], keep: Sequence[int]) -> tuple[int, ...]:
    """Axis positions (into an array whose axes are ``dims``) of ``keep``.

    ``keep`` must be a subset of ``dims``; both are cube-dimension indices.
    """
    pos = {d: i for i, d in enumerate(dims)}
    try:
        return tuple(pos[d] for d in keep)
    except KeyError as exc:
        raise ValueError(f"dimension {exc.args[0]} not in {tuple(dims)}") from None


def aggregate_dense(
    arr: DenseArray,
    target_dims: Sequence[int],
    measure: Measure | str = SUM,
) -> DenseArray:
    """Aggregate ``arr`` over every cube dimension not in ``target_dims``.

    ``target_dims`` must be a (strictly increasing) subset of ``arr.dims``;
    ``measure`` is any distributive measure (default SUM).
    """
    measure = get_measure(measure)
    target_dims = tuple(target_dims)
    drop = tuple(d for d in arr.dims if d not in set(target_dims))
    if set(target_dims) - set(arr.dims):
        raise ValueError(f"target dims {target_dims} not a subset of {arr.dims}")
    axes = project_axes(arr.dims, drop)
    out = measure.reduce_dense(arr.data, axes)
    return DenseArray(np.asarray(out), target_dims)


#: Facts decoded per slab by the sparse kernel: its coordinate and index
#: temporaries are bounded by this, never by a chunk's nnz.
_SLAB = 1 << 18


def _offset_runs(
    extents: Sequence[int], axes: Sequence[int]
) -> list[tuple[int, int, int]]:
    """How a target's flat index follows from offsets in an ``extents`` frame.

    ``axes`` are the kept axes in output order, the output spanning their
    extents.  Each maximal run ``p..q`` of consecutive axes becomes one
    ``(div, mod, stride)``: the run's part of the index is ``(offset // div)
    % mod * stride`` with ``div = prod(extents[q+1:])``, ``mod =
    prod(extents[p:q+1])`` and ``stride`` the output stride of axis ``q``.
    ``div == 1`` (the run ends the frame) needs no divide, ``mod == 0``
    (the run starts it) no remainder.  No runs: the empty target.
    """
    runs = []
    stride = 1
    j = len(axes)
    while j:
        i = j - 1
        while i and axes[i - 1] == axes[i] - 1:
            i -= 1
        p, q = axes[i], axes[j - 1]
        mod = math.prod(extents[p : q + 1])
        runs.append((math.prod(extents[q + 1 :]), mod if p else 0, stride))
        stride *= mod
        j = i
    return runs


def _quotient_plan(
    extents: Sequence[int], axes: Sequence[int]
) -> list[tuple[int, int, int]]:
    """A target's flat index in an ``extents`` frame as a signed sum of
    floor quotients, in Horner form: steps ``(mult, sign, d)``, each
    multiplying the index so far by ``mult`` and adding ``sign * (offset
    // d)`` (``d == 1`` is the offset itself; the first ``mult`` is 1).

    With the runs of :func:`_offset_runs` from the outermost in, a run's
    digit ``(o // div) % mod`` is ``o // div - mod * (o // (div * mod))``
    (``(o // a) // b == o // (a * b)``), so the index so far takes ``-(o //
    (div * mod))``, is multiplied by ``mod`` and takes ``+(o // div)``.  A
    run that starts the frame has no remainder term, and its ``mod`` is
    ``size // div``.  Between two multiplies, terms with one divisor
    merge; what cancels, or divides by the whole frame (always 0), goes.
    Every kept sign is +-1.
    """
    size = math.prod(extents)
    stretches: list[tuple[int, dict[int, int]]] = [(1, {})]

    def add(sign: int, d: int) -> None:
        if d < size:
            terms = stretches[-1][1]
            terms[d] = terms.get(d, 0) + sign

    for div, mod, _ in reversed(_offset_runs(extents, axes)):
        if mod:
            add(-1, div * mod)
        mult = mod or size // div
        if mult != 1:
            last, terms = stretches[-1]
            if any(terms.values()):
                stretches.append((mult, {}))
            else:  # multiplies a sum of no terms: fold into the last one
                stretches[-1] = (last * mult, terms)
        add(1, div)
    steps = []
    for mult, terms in stretches:
        for sign, d in sorted(((c, d) for d, c in terms.items() if c), reverse=True):
            assert sign in (1, -1)
            steps.append((mult if steps else 1, sign, d))
            mult = 1
    assert not steps or steps[-1][1] == 1  # the innermost digit's quotient
    return steps


def _run_indices(
    offsets: np.ndarray, plans: Sequence[list[tuple[int, int, int]]], buf: np.ndarray
) -> Iterator[np.ndarray]:
    """Each target's flat index straight from row-major ``offsets`` (a
    whole-array frame), by its :func:`_quotient_plan` and no remainder.
    ``buf`` is two rows of ``offsets.size``: the index and one quotient.
    A yielded index is valid until the next is requested.

    The index may hold the negation of the sum so far (``neg``): a first
    step of sign -1 is written as the bare quotient, and a later step of
    sign +1 flips it back for free (``q - idx``); every plan ends on one.
    A drop-one child ``j`` is
    ``(off // P[j] - off // P[j+1]) * P[j+1] + off`` with ``P[k] =
    prod(E[k:])``: two divides, a subtract, a multiply and an add per fact.
    """
    idx, tmp = buf
    for steps in plans:
        if not steps:
            idx[...] = 0
        neg = False
        for k, (mult, sign, d) in enumerate(steps):
            q = offsets if d == 1 else np.floor_divide(offsets, d, out=idx if k == 0 else tmp)
            if k == 0:
                if q is offsets:
                    idx[...] = offsets
                neg = sign < 0
                continue
            if mult != 1:
                idx *= mult
            if (sign < 0) == neg:
                idx += q
            elif neg:
                np.subtract(q, idx, out=idx)
                neg = False
            else:
                idx -= q
        yield idx


def _decoded_indices(
    slab: SparseChunk,
    origin: np.ndarray,
    keep: Sequence[tuple[int, ...]],
    out_shapes: Sequence[Sequence[int]],
) -> Iterator[np.ndarray]:
    """Each target's flat index from the slab's decoded coordinates, shifted
    by ``origin``: any chunk frame and any output shape."""
    coords = slab.local_coords()
    coords += origin
    for axes, shape in zip(keep, out_shapes):
        # In place: the slab's only per-target temporary is ``idx``.
        idx = np.zeros(slab.nnz, dtype=np.int64)
        for axis, s in zip(axes, shape, strict=True):
            idx *= s
            idx += coords[:, axis]
        yield idx


def _aggregate_sparse(
    arr: SparseArray,
    dims: Sequence[int],
    targets: Sequence[Sequence[int]],
    out_shapes: Sequence[Sequence[int]],
    dtype,
    measure: Measure | str,
    box: Sequence[tuple[int, int]] | None = None,
) -> list[DenseArray]:
    """The sparse kernel: every target's aggregate from one scan of ``arr``.

    Each chunk yields its facts in slabs of :data:`_SLAB` (a rank block's
    are produced slab by slab, never held whole), and every target folds a
    slab in before the next is decoded.  For SUM and COUNT a
    target's first ``bincount`` is its output array and later slabs add
    into it; a target no fact reaches comes back identity-filled.

    A chunk whose frame is the output frame (origin all zeros, extents the
    array's, no ``box``, each output spanning its kept extents) -- every
    rank block and any one-chunk array -- indexes each target straight from
    its offsets (:func:`_run_indices`); any other decodes coordinates.  The
    indices, and so every fold, are the same either way.

    ``box`` (one ``(lo, hi)`` per axis) keeps only the facts inside it, at
    coordinates relative to its corner.  Chunks outside it are skipped and
    the rest keep their slabs, so each kept fact folds as in a whole scan.
    """
    measure = get_measure(measure)
    keep = [project_axes(dims, t) for t in targets]
    sizes = [math.prod(shape) for shape in out_shapes]
    accs: list[np.ndarray | None] = [None] * len(targets)
    whole = box is None and all(
        tuple(shape) == tuple(arr.shape[a] for a in axes)
        for axes, shape in zip(keep, out_shapes)
    )
    plans = [_quotient_plan(arr.shape, axes) for axes in keep] if whole else []
    for chunk in arr.iter_chunks():
        origin = np.asarray(chunk.origin, dtype=np.int64)
        direct = whole and not origin.any() and tuple(chunk.shape) == arr.shape
        if direct:
            buf = np.empty((2, min(_SLAB, chunk.nnz)), dtype=np.int64)
        if box is not None:
            window = [(lo - o, hi - o) for (lo, hi), o in zip(box, chunk.origin)]
            if any(lo >= e or hi <= 0 for (lo, hi), e in zip(window, chunk.shape)):
                continue
            origin -= [lo for lo, _ in box]
        for slab in chunk.slabs(_SLAB):
            if box is not None and (inside := _inside(slab, window)) is not None:
                if not inside.any():
                    continue
                slab = SparseChunk(
                    chunk.origin, chunk.shape, slab.offsets[inside], slab.values[inside]
                )
            if direct:
                indices = _run_indices(slab.offsets, plans, buf[:, : slab.nnz])
            else:
                indices = _decoded_indices(slab, origin, keep, out_shapes)
            for i, idx in enumerate(indices):
                accs[i] = measure.scatter(accs[i], idx, slab.values, sizes[i])
    outs = []
    for t, shape, size, acc in zip(targets, out_shapes, sizes, accs):
        acc = measure.new_accumulator(size, dtype) if acc is None else acc.astype(dtype, copy=False)
        outs.append(DenseArray(acc.reshape(shape), t))
    return outs


def aggregate_sparse_to_dense(
    arr: SparseArray,
    dims: Sequence[int],
    target_dims: Sequence[int],
    dim_sizes: Sequence[int] | None = None,
    dtype=DEFAULT_DTYPE,
    measure: Measure | str = SUM,
    box: Sequence[tuple[int, int]] | None = None,
) -> DenseArray:
    """Aggregate a sparse array (axes = cube dims ``dims``) onto ``target_dims``.

    Parameters
    ----------
    arr:
        Sparse input whose axis ``i`` is cube dimension ``dims[i]``.
    dims:
        Cube-dimension identity of each axis of ``arr``.
    target_dims:
        Dimensions to keep (strictly increasing subset of ``dims``).
    dim_sizes:
        Sizes of the kept dimensions in the *output*; defaults to the
        corresponding sizes of ``arr`` (use this when aggregating a local
        block whose output should still be block-local).
    measure:
        Any distributive measure (default SUM).  Aggregation ranges over
        the stored facts; empty groups take the measure's identity.
    box:
        Aggregate only the facts in this ``(lo, hi)`` per axis of ``arr``;
        ``dim_sizes`` then default to the box's extents.

    Raises ``ValueError`` if a ``dim_sizes`` entry is smaller than its
    dimension's extent: facts would alias into the wrong cells.
    """
    extents = arr.shape if box is None else [hi - lo for lo, hi in box]
    kept = [extents[a] for a in project_axes(dims, target_dims)]
    if dim_sizes is None:
        dim_sizes = kept
    for d, size, extent in zip(target_dims, dim_sizes, kept, strict=True):
        if size < extent:
            raise ValueError(
                f"dim_sizes gives dimension {d} {size} cells, fewer than its extent {extent}"
            )
    return _aggregate_sparse(
        arr, dims, [target_dims], [tuple(dim_sizes)], dtype, measure, box
    )[0]


def aggregate_sparse_multi(
    arr: SparseArray,
    dims: Sequence[int],
    targets: Sequence[Sequence[int]],
    dtype=DEFAULT_DTYPE,
    measure: Measure | str = SUM,
) -> list[DenseArray]:
    """Aggregate a sparse array onto several target dimension sets at once.

    This mirrors the paper's cache-reuse discipline: each slab of the input
    is folded into every child before the next slab is read.
    """
    out_shapes = [tuple(arr.shape[a] for a in project_axes(dims, t)) for t in targets]
    return _aggregate_sparse(arr, dims, targets, out_shapes, dtype, measure)
