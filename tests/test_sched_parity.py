"""Cross-scheduler parity: every scheduler, on every backend, agrees.

Two layers of identity are claimed and tested here:

- **sim vs process vs thread**: the same scheduler's rank program
  interpreted by the simulator, by real OS processes, and by real threads
  produces byte-identical aggregates (the PR-4 property, now quantified
  over schedulers x backends);
- **parallel vs sequential**: with integer-valued data (every partial sum
  stays exact below 2**53), any scheduler's parallel result equals the
  sequential Fig 3 constructor bit-for-bit regardless of reduction order.

Float summation order differs between schedulers, so the sequential
comparison deliberately uses integer-valued float data; cross-backend
parity needs no such restriction and runs on uniform floats too.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.dataset import random_sparse
from repro.arrays.sparse import SparseArray
from repro.core.parallel import construct_cube_parallel
from repro.core.sequential import construct_cube_sequential
from repro.exec import ProcessBackend, ThreadBackend
from repro.exec.shm import StagedResult
from repro.sched import Fig5Scheduler, get_scheduler

SCHEDULERS = ["fig5", "shuffle", "marginals-1", "marginals-1-shuffle"]

# Shapes in canonical non-increasing order; p = 2**sum(bits) covers
# 2, 4, and 8; n covers 2..5 (reused from the backend-parity suite).
CURATED = [
    ((8, 4), (1, 0)),
    ((8, 6, 4), (1, 1, 0)),
    ((8, 4, 4, 2), (1, 1, 1, 0)),
    ((6, 5, 4, 3, 2), (1, 1, 0, 0, 0)),
]


def _integer_sparse(shape, sparsity, seed):
    """Sparse data whose values are small integers stored as floats.

    Integer-valued float sums are exact (well below 2**53), so any
    combine order yields the same bytes -- which is what lets a parallel
    run be compared bit-for-bit against the sequential constructor.
    """
    rng = np.random.default_rng(seed)
    dense = np.where(
        rng.random(shape) < sparsity, rng.integers(1, 100, shape), 0
    ).astype(float)
    return SparseArray.from_dense(dense)


def _assert_bytes_equal(results_a, results_b, label):
    assert set(results_a) == set(results_b), label
    for node, arr in results_a.items():
        other = results_b[node]
        assert arr.data.dtype == other.data.dtype
        assert arr.data.shape == other.data.shape
        assert arr.data.tobytes() == other.data.tobytes(), (
            f"group-by {node} differs: {label}"
        )


@pytest.mark.parametrize("spec", SCHEDULERS)
@pytest.mark.parametrize("shape,bits", CURATED)
def test_parallel_bit_identical_to_sequential(spec, shape, bits):
    data = _integer_sparse(shape, 0.3, seed=sum(shape))
    seq = construct_cube_sequential(data)
    run = construct_cube_parallel(data, bits, scheduler=spec)
    targets = get_scheduler(spec).target_nodes(len(shape))
    expected = (
        dict(seq.results)
        if targets is None
        else {t: seq.results[t] for t in targets}
    )
    _assert_bytes_equal(expected, run.results, f"{spec} vs sequential")


@pytest.mark.parametrize("backend", ["process", "thread"])
@pytest.mark.parametrize("spec", SCHEDULERS)
@pytest.mark.parametrize("shape,bits", CURATED)
def test_sim_real_backend_parity_per_scheduler(spec, shape, bits, backend):
    data = random_sparse(shape, sparsity=0.3, seed=sum(shape))
    sim = construct_cube_parallel(data, bits, scheduler=spec, backend="sim")
    real = construct_cube_parallel(
        data, bits, scheduler=spec, backend=backend
    )
    _assert_bytes_equal(sim.results, real.results, f"{spec} sim vs {backend}")
    assert sim.metrics.comm.total_elements == real.metrics.comm.total_elements
    assert sim.metrics.comm.total_messages == real.metrics.comm.total_messages
    declared = get_scheduler(spec).declared_volume(shape, bits)
    assert sim.metrics.comm.total_elements == declared


@pytest.mark.parametrize("spec", ["shuffle", "marginals-2", "marginals-2-shuffle"])
def test_binomial_reduction_matches_flat(spec):
    # Integer-valued data: combine-tree shape cannot change the bytes.
    shape, bits = (8, 6, 4), (1, 1, 1)
    data = _integer_sparse(shape, 0.3, seed=7)
    flat = construct_cube_parallel(data, bits, scheduler=spec, reduction="flat")
    binom = construct_cube_parallel(
        data, bits, scheduler=spec, reduction="binomial"
    )
    _assert_bytes_equal(flat.results, binom.results, f"{spec} flat vs binomial")


@pytest.mark.parametrize("spec", SCHEDULERS)
def test_dense_input_parity(spec):
    shape, bits = (8, 6, 4), (2, 1, 0)
    size = int(np.prod(shape))
    data = np.arange(size, dtype=float).reshape(shape)
    seq = construct_cube_sequential(data)
    run = construct_cube_parallel(data, bits, scheduler=spec)
    targets = get_scheduler(spec).target_nodes(len(shape))
    expected = (
        dict(seq.results)
        if targets is None
        else {t: seq.results[t] for t in targets}
    )
    _assert_bytes_equal(expected, run.results, f"{spec} dense vs sequential")


@settings(max_examples=4, deadline=None)
@given(
    dims=st.lists(
        st.sampled_from([8, 4, 2]), min_size=2, max_size=5
    ).map(lambda d: tuple(sorted(d, reverse=True))),
    k=st.integers(min_value=1, max_value=3),
    spec=st.sampled_from(SCHEDULERS),
    sparsity=st.floats(min_value=0.05, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_parity_random(dims, k, spec, sparsity, seed):
    bits = [0] * len(dims)
    for _ in range(k):
        for i, d in enumerate(dims):
            if 2 ** (bits[i] + 1) <= d:
                bits[i] += 1
                break
    bits = tuple(bits)
    data = _integer_sparse(dims, sparsity, seed=seed)
    seq = construct_cube_sequential(data)
    sim = construct_cube_parallel(data, bits, scheduler=spec, backend="sim")
    proc = construct_cube_parallel(data, bits, scheduler=spec, backend="process")
    targets = get_scheduler(spec).target_nodes(len(dims))
    expected = (
        dict(seq.results)
        if targets is None
        else {t: seq.results[t] for t in targets}
    )
    _assert_bytes_equal(expected, sim.results, f"{spec} sim vs sequential")
    _assert_bytes_equal(sim.results, proc.results, f"{spec} sim vs process")
    thr = construct_cube_parallel(data, bits, scheduler=spec, backend="thread")
    _assert_bytes_equal(sim.results, thr.results, f"{spec} sim vs thread")


# -- the output arena follows the scheduler's declaration ------------------------------


def _staged_count(run):
    return sum(
        isinstance(portion, StagedResult)
        for written in run.metrics.rank_results
        for portion in written.values()
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: "marginals-2",
        lambda: Fig5Scheduler(targets=[(0, 1), (2,), ()]),
    ],
    ids=["marginals-2", "fig5-targets"],
)
def test_step_list_schedulers_stage_into_the_arena(make):
    # Every step-list program takes the arena -- the pruned ones used to
    # miss it only because the host reached them through another branch.
    shape, bits = (8, 6, 4), (1, 1, 0)
    data = random_sparse(shape, sparsity=0.3, seed=11)
    runs = {
        backend: construct_cube_parallel(
            data, bits, scheduler=make(), backend=backend
        )
        for backend in ("sim", "thread", "process")
    }
    assert _staged_count(runs["sim"]) == 0  # in-process: nothing to stage
    assert _staged_count(runs["process"]) > 0
    assert all(
        isinstance(p, StagedResult)
        for written in runs["process"].metrics.rank_results
        for p in written.values()
    )
    _assert_bytes_equal(runs["sim"].results, runs["process"].results, "process")
    _assert_bytes_equal(runs["sim"].results, runs["thread"].results, "thread")


def _counting(backend_cls):
    """``backend_cls`` that counts the output arenas a build asks for."""

    class Counting(backend_cls):
        arenas = 0

        def prepare_outputs(self, layout):
            self.arenas += 1
            return super().prepare_outputs(layout)

    return Counting


@pytest.mark.parametrize(
    "spec,stages_on_threads",
    [("fig5", 1), ("marginals-1", 1), ("shuffle", 0), ("marginals-1-shuffle", 0)],
)
def test_every_scheduler_gets_one_output_arena(spec, stages_on_threads):
    # Every build that collects results is offered exactly one arena.  On
    # threads only the step-list programs write into it: shuffle's results
    # come back by reference, and the host's assembly of them is cheaper
    # than first-touching the arena's pages.  On processes each worker
    # stages whatever its program returned in-band, so every portion
    # crosses the pipe as a marker and the cube is read from the mapping.
    def segments():
        try:
            return {e for e in os.listdir("/dev/shm") if e.startswith("psm_")}
        except OSError:
            return set()

    shape, bits = (8, 6, 4), (1, 1, 0)
    data = random_sparse(shape, sparsity=0.3, seed=12)
    before = segments()
    sim = construct_cube_parallel(data, bits, scheduler=spec, backend="sim")
    runs = {}
    for name, backend_cls in (("thread", ThreadBackend), ("process", ProcessBackend)):
        backend = _counting(backend_cls)()
        try:
            runs[name] = construct_cube_parallel(
                data, bits, scheduler=spec, backend=backend
            )
        finally:
            backend.close()
        assert backend.arenas == 1, name
        _assert_bytes_equal(sim.results, runs[name].results, name)
    staged = {
        name: [
            isinstance(portion, StagedResult)
            for written in run.metrics.rank_results
            for portion in written.values()
        ]
        for name, run in runs.items()
    }
    assert staged["thread"] and set(staged["thread"]) == {bool(stages_on_threads)}
    assert staged["process"] and all(staged["process"])
    assert segments() <= before  # and whatever was created is gone
