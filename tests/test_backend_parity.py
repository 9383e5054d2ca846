"""Cross-backend parity: sim, process, and thread runs are bit-identical.

All backends interpret the *same* generator rank-programs with the same
numpy kernels and the same flat combine order, so every group-by array
must match byte-for-byte -- not just approximately -- and all must move
exactly the Theorem 3 communication volume.  This is the property that
makes the simulator's measurements transferable to real executions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.dataset import random_sparse
from repro.arrays.sparse import SparseArray
from repro.core.comm_model import total_comm_volume
from repro.core.parallel import construct_cube_parallel
from repro.core.sequential import cube_reference


def _build(data, bits, backend):
    return construct_cube_parallel(data, bits, backend=backend)


REAL_BACKENDS = ("process", "thread")


def _assert_parity(data, shape, bits):
    sim = _build(data, bits, "sim")
    assert sim.backend == "sim"
    predicted = total_comm_volume(shape, bits)
    assert sim.metrics.comm.total_elements == predicted

    for backend in REAL_BACKENDS:
        run = _build(data, bits, backend)
        assert run.backend == backend

        assert set(sim.results) == set(run.results)
        for node, arr in sim.results.items():
            other = run.results[node]
            assert arr.data.dtype == other.data.dtype, (backend, node)
            assert arr.data.shape == other.data.shape, (backend, node)
            assert arr.data.tobytes() == other.data.tobytes(), (
                f"group-by {node} differs between sim and {backend}"
            )

        assert run.metrics.comm.total_elements == predicted, backend
        assert (
            sim.metrics.comm.total_messages == run.metrics.comm.total_messages
        ), backend
        assert (
            sim.metrics.rank_peak_memory_elements
            == run.metrics.rank_peak_memory_elements
        ), backend


CURATED = [
    # (shape, bits) -- shapes already in canonical non-increasing order;
    # p = 2**sum(bits) covers 2, 4, and 8, n covers 2..5.
    ((8, 4), (1, 0)),
    ((8, 6, 4), (1, 1, 0)),
    ((8, 4, 4, 2), (1, 1, 1, 0)),
    ((6, 5, 4, 3, 2), (1, 1, 0, 0, 0)),
]


@pytest.mark.parametrize("shape,bits", CURATED)
def test_parity_sparse(shape, bits):
    data = random_sparse(shape, sparsity=0.3, seed=sum(shape))
    _assert_parity(data, shape, bits)


@pytest.mark.parametrize("shape,bits", [((8, 6, 4), (2, 1, 0))])
def test_parity_dense_p8(shape, bits):
    size = int(np.prod(shape))
    data = np.arange(size, dtype=float).reshape(shape)
    _assert_parity(data, shape, bits)


class TestRecoveryParity:
    """Crash + recovery is bit-reproducible across backends.

    An op-indexed kill (``kill:RANK@OP``) fires at the same protocol
    point on both backends: the simulator closes the victim's generator
    there, the process backend SIGKILLs the worker there.  With
    ``checkpoint=True`` the sim run recovers through the buddy protocol
    and the process run through supervised respawn + checkpoint replay --
    and both must equal the fault-free cube byte-for-byte.
    """

    @pytest.mark.parametrize(
        "shape,bits,victim",
        [
            ((8, 4), (1, 0), 1),       # p = 2
            ((8, 6, 4), (1, 1, 0), 2),  # p = 4
        ],
    )
    def test_killed_rank_recovers_bit_identical(self, shape, bits, victim):
        from repro.cluster.faults import FaultPlan

        data = random_sparse(shape, sparsity=0.3, seed=sum(shape))
        n = len(shape)
        # Kill at the detection barrier: disk_read, compute, n disk_writes
        # are ops 0..n+1, the barrier is op n+2 -- the checkpoint set is
        # committed, so both backends recover from it.
        kill_at = n + 2
        clean = construct_cube_parallel(data, bits, checkpoint=True)

        for backend in ("sim", "process"):
            plan = FaultPlan().crash_at_op(victim, kill_at)
            run = construct_cube_parallel(
                data, bits,
                checkpoint=True,
                fault_plan=plan,
                backend=backend,
            )
            stats = run.metrics.faults
            assert victim in stats.crashed_ranks, backend
            assert stats.recoveries >= 1, backend
            assert set(run.results) == set(clean.results), backend
            for node, arr in clean.results.items():
                got = run.results[node]
                assert arr.data.tobytes() == got.data.tobytes(), (
                    f"group-by {node} differs from fault-free on {backend}"
                )


@settings(max_examples=5, deadline=None)
@given(
    dims=st.lists(
        st.sampled_from([8, 4, 2]), min_size=2, max_size=5
    ).map(lambda d: tuple(sorted(d, reverse=True))),
    k=st.integers(min_value=1, max_value=3),
    sparsity=st.floats(min_value=0.05, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_parity_random_sparse(dims, k, sparsity, seed):
    # Spread k bits of partitioning greedily without exceeding any
    # dimension's capacity; p = 2**k in {2, 4, 8}.
    bits = [0] * len(dims)
    for _ in range(k):
        for i, d in enumerate(dims):
            if 2 ** (bits[i] + 1) <= d:
                bits[i] += 1
                break
    bits = tuple(bits)
    data = random_sparse(dims, sparsity=sparsity, seed=seed)
    _assert_parity(data, dims, bits)


@st.composite
def adversarial_partitions(draw):
    """(bits, sparse array, integer-valued?): chunk grids that need not
    refine the processor grid, extents of 1, and facts that may be confined
    to one corner so some ranks hold none."""
    n = draw(st.integers(2, 4))
    shape = tuple(draw(st.integers(1, 7)) for _ in range(n))
    chunk_shape = tuple(draw(st.integers(1, s)) for s in shape)
    bits = [0] * n
    for _ in range(draw(st.integers(0, 3))):
        axis = draw(st.integers(0, n - 1))
        if 2 ** (bits[axis] + 1) <= shape[axis]:
            bits[axis] += 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    corner = draw(st.booleans())
    highs = [-(-s // 2) if corner else s for s in shape]
    nnz = draw(st.integers(0, 30))
    coords = np.stack([rng.integers(0, h, nnz) for h in highs], axis=1)
    integer = draw(st.booleans())
    values = rng.integers(1, 9, nnz).astype(float) if integer else rng.uniform(-1, 1, nnz)
    data = SparseArray.from_coords(shape, coords, values, chunk_shape=chunk_shape)
    return tuple(bits), data, integer


@settings(max_examples=25, deadline=None)
@given(case=adversarial_partitions())
def test_partition_parity_at_adversarial_shapes(case):
    # Rank blocks concatenate their source chunks, so a float cell sums in
    # source-chunk order: the same on every backend for one partition and
    # one input chunking.  Integer-valued cells are exact in any order.
    bits, data, integer = case
    runs = {backend: _build(data, bits, backend) for backend in ("sim", *REAL_BACKENDS)}
    ref = cube_reference(data)
    for backend, run in runs.items():
        assert set(run.results) == set(ref), backend
        for node, arr in run.results.items():
            want = ref[node] if integer else runs["sim"].results[node]
            assert arr.data.tobytes() == want.data.tobytes(), (backend, node)
