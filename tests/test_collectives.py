"""Unit tests for the collectives built on point-to-point messages."""

import numpy as np
import pytest

from repro.cluster.collectives import reduce_binomial, reduce_to_lead
from repro.cluster.runtime import run_spmd


def run_collective(n, body):
    """Run ``body(env) -> generator`` on n ranks, return rank results."""

    def program(env):
        result = yield from body(env)
        return result

    return run_spmd(n, program)


class TestReduceToLead:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_sums_on_lead(self, n):
        def body(env):
            value = np.full(4, float(env.rank + 1))
            out = yield from reduce_to_lead(env, list(range(n)), value, tag=0)
            return None if out is None else out.copy()

        metrics = run_collective(n, body)
        expected = sum(range(1, n + 1))
        assert np.allclose(metrics.rank_results[0], expected)
        for r in range(1, n):
            assert metrics.rank_results[r] is None

    def test_volume_is_group_minus_one_payloads(self):
        n = 4

        def body(env):
            out = yield from reduce_to_lead(env, list(range(n)), np.ones(10), tag=0)
            return out

        metrics = run_collective(n, body)
        assert metrics.comm.total_elements == (n - 1) * 10
        assert metrics.comm.total_messages == n - 1

    def test_subgroup(self):
        def body(env):
            group = [1, 3]
            if env.rank not in group:
                return None
            out = yield from reduce_to_lead(
                env, group, np.array([float(env.rank)]), tag=0
            )
            return None if out is None else float(out[0])

        metrics = run_collective(4, body)
        assert metrics.rank_results[1] == 4.0
        assert metrics.rank_results[3] is None

    def test_rank_not_in_group_rejected(self):
        def body(env):
            out = yield from reduce_to_lead(env, [1], np.ones(1), tag=0)
            return out

        with pytest.raises(ValueError):
            run_collective(1, body)

    def test_custom_combine(self):
        def body(env):
            def combine(a, b):
                return np.maximum(a, b)

            out = yield from reduce_to_lead(
                env, [0, 1, 2], np.array([float(env.rank)]), tag=0, combine=combine
            )
            return None if out is None else float(out[0])

        metrics = run_collective(3, body)
        assert metrics.rank_results[0] == 2.0


class TestReduceBinomial:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_matches_flat(self, n):
        def body(env):
            value = np.full(3, float(env.rank + 1))
            out = yield from reduce_binomial(env, list(range(n)), value, tag=0)
            return None if out is None else out.copy()

        metrics = run_collective(n, body)
        assert np.allclose(metrics.rank_results[0], sum(range(1, n + 1)))

    def test_same_volume_as_flat(self):
        n = 8

        def flat(env):
            out = yield from reduce_to_lead(env, list(range(n)), np.ones(10), tag=0)
            return out

        def binom(env):
            out = yield from reduce_binomial(env, list(range(n)), np.ones(10), tag=0)
            return out

        v_flat = run_collective(n, flat).comm.total_elements
        v_binom = run_collective(n, binom).comm.total_elements
        assert v_flat == v_binom == (n - 1) * 10

    def test_lower_depth_finishes_faster(self):
        n = 8

        def flat(env):
            out = yield from reduce_to_lead(env, list(range(n)), np.ones(1000), tag=0)
            return out

        def binom(env):
            out = yield from reduce_binomial(env, list(range(n)), np.ones(1000), tag=0)
            return out

        t_flat = run_collective(n, flat).makespan_s
        t_binom = run_collective(n, binom).makespan_s
        assert t_binom < t_flat
