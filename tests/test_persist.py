"""Unit tests for persistence (.npz round-trips)."""

import numpy as np
import pytest

from repro.arrays.dataset import random_sparse
from repro.arrays.persist import load_cube, load_sparse, save_cube, save_sparse
from repro.core.sequential import construct_cube_sequential


class TestSparseRoundtrip:
    def test_roundtrip(self, tmp_path):
        arr = random_sparse((8, 6, 4), 0.3, seed=1)
        path = tmp_path / "facts.npz"
        save_sparse(path, arr)
        back = load_sparse(path)
        assert back.shape == arr.shape
        assert np.array_equal(back.to_dense(), arr.to_dense())

    def test_roundtrip_empty(self, tmp_path):
        from repro.arrays.sparse import SparseArray

        arr = SparseArray.from_dense(np.zeros((3, 3)))
        path = tmp_path / "empty.npz"
        save_sparse(path, arr)
        assert load_sparse(path).nnz == 0

    def test_rechunk_on_load(self, tmp_path):
        arr = random_sparse((8, 8), 0.5, seed=2)
        path = tmp_path / "facts.npz"
        save_sparse(path, arr)
        back = load_sparse(path, chunk_shape=(4, 4))
        assert len(back.chunks) == 4
        assert np.array_equal(back.to_dense(), arr.to_dense())

    def test_wrong_kind_rejected(self, tmp_path):
        arr = random_sparse((4, 4), 0.5, seed=3)
        res = construct_cube_sequential(arr)
        path = tmp_path / "cube.npz"
        save_cube(path, res.results, (4, 4))
        with pytest.raises(ValueError):
            load_sparse(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        np.savez(path, stuff=np.ones(3))
        with pytest.raises(ValueError):
            load_sparse(path)


class TestCubeRoundtrip:
    def test_full_cube(self, tmp_path):
        arr = random_sparse((6, 5, 4), 0.3, seed=4)
        res = construct_cube_sequential(arr)
        path = tmp_path / "cube.npz"
        save_cube(path, res.results, (6, 5, 4), measure_name="sum")
        aggs, shape, measure = load_cube(path)
        assert shape == (6, 5, 4)
        assert measure == "sum"
        assert set(aggs) == set(res.results)
        for node in aggs:
            assert np.array_equal(aggs[node].data, res.results[node].data)

    def test_partial_cube(self, tmp_path):
        arr = random_sparse((6, 5, 4), 0.3, seed=5)
        res = construct_cube_sequential(arr, targets=[(0,), (1, 2)])
        path = tmp_path / "partial.npz"
        save_cube(path, res.results, (6, 5, 4))
        aggs, _shape, _m = load_cube(path)
        assert set(aggs) == {(0,), (1, 2)}

    def test_scalar_node_preserved(self, tmp_path):
        arr = random_sparse((4, 4), 0.5, seed=6)
        res = construct_cube_sequential(arr)
        path = tmp_path / "cube.npz"
        save_cube(path, res.results, (4, 4))
        aggs, _shape, _m = load_cube(path)
        assert aggs[()].shape == ()
        assert float(aggs[()].data) == float(res.results[()].data)

    def test_corrupt_shape_detected(self, tmp_path):
        arr = random_sparse((4, 4), 0.5, seed=7)
        res = construct_cube_sequential(arr)
        path = tmp_path / "cube.npz"
        # Lie about the global shape in the manifest.
        save_cube(path, res.results, (9, 9))
        with pytest.raises(ValueError):
            load_cube(path)
