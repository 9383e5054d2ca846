"""Unit tests for the persistent worker pool (:mod:`repro.exec.pool`).

The pool is the substrate under ``ThreadBackend.open()``: these tests pin
the properties backends and the pool-reuse suite rely on -- tasks record
which worker ran them (reuse evidence), a raising task re-raises in the
submitter without killing its worker, ``ensure`` grows on demand, and
``close`` is clean and idempotent even after failures.
"""

import threading

import pytest

from repro.exec.pool import PoolClosed, WorkerPool


class TestLifecycle:
    def test_starts_requested_workers(self):
        with WorkerPool(3) as pool:
            assert pool.size == 3
            assert not pool.closed

    def test_ensure_grows_but_never_shrinks(self):
        with WorkerPool(2) as pool:
            pool.ensure(4)
            assert pool.size == 4
            pool.ensure(1)
            assert pool.size == 4

    def test_ensure_validates(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="positive"):
                pool.ensure(0)

    def test_close_is_idempotent_and_joins(self):
        pool = WorkerPool(2)
        threads = list(pool._threads)
        pool.close()
        pool.close()
        assert pool.closed
        assert all(not t.is_alive() for t in threads)

    def test_closed_pool_rejects_submit_and_ensure(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(PoolClosed):
            pool.submit(lambda: None)
        with pytest.raises(PoolClosed):
            pool.ensure(1)

    def test_submit_without_workers_raises(self):
        pool = WorkerPool()
        with pytest.raises(PoolClosed, match="ensure"):
            pool.submit(lambda: None)
        pool.close()


class TestExecution:
    def test_results_in_submission_order(self):
        with WorkerPool(4) as pool:
            assert pool.run_all([lambda i=i: i * i for i in range(16)]) == [
                i * i for i in range(16)
            ]

    def test_tasks_record_their_worker(self):
        with WorkerPool(2) as pool:
            tasks = [pool.submit(lambda: threading.get_ident()) for _ in range(8)]
            for task in tasks:
                assert task.wait() == task.worker_ident
            assert pool.total_tasks == 8
            assert sum(pool.tasks_by_worker.values()) == 8
            # Every worker that ran something is one of the pool's threads.
            idents = {t.ident for t in pool._threads}
            assert set(pool.tasks_by_worker) <= idents

    def test_workers_are_reused_across_batches(self):
        with WorkerPool(2) as pool:
            idents = {t.ident for t in pool._threads}
            pool.run_all([lambda: None] * 4)
            pool.run_all([lambda: None] * 4)
            # Only the pool's own threads ever run tasks: no respawn between
            # runs.  (Which worker drains which task is up to the scheduler,
            # so the two batches' ident sets need not match each other.)
            assert set(pool.tasks_by_worker) <= idents
            assert {t.ident for t in pool._threads} == idents
            assert pool.total_tasks == 8

    def test_task_error_reraises_and_worker_survives(self):
        with WorkerPool(1) as pool:
            def boom():
                raise RuntimeError("task failed")

            task = pool.submit(boom)
            with pytest.raises(RuntimeError, match="task failed"):
                task.wait()
            assert task.done
            # The worker that ran the failing task still serves new ones.
            assert pool.submit(lambda: 42).wait() == 42
            assert pool.total_tasks == 2

    def test_run_all_waits_for_all_before_reraising(self):
        finished = threading.Event()

        def slow_ok():
            finished.wait(timeout=30)
            return "ok"

        def fail_fast():
            finished.set()
            raise ValueError("first failure")

        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="first failure"):
                pool.run_all([fail_fast, slow_ok])
            # Both tasks completed: nothing is left running on the pool.
            assert pool.total_tasks == 2

    def test_usable_as_context_manager_after_error(self):
        with pytest.raises(RuntimeError):
            with WorkerPool(2) as pool:
                raise RuntimeError("caller failed")
        assert pool.closed
