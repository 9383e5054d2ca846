"""MIN, MAX and COUNT cubes answer queries with their measure, not a sum.

A cube cell already holds an aggregate, so a query that is not served
from its exact view must roll cells up with the measure's roll-up (MIN
with min, COUNT with sum) and a base fallback must aggregate the facts
with the measure itself.  Every answer here -- exact view, strict cover,
base fallback; point and range filters; per query, batched, and through
``repro-cube query`` -- is held to a numpy oracle over the facts, and the
batched answers to the per-query ones bit for bit.
"""

import io

import numpy as np
import pytest

from repro.arrays.persist import save_cube
from repro.arrays.sparse import SparseArray
from repro.cli import main
from repro.olap.cube import DataCube
from repro.olap.query import BASE, GroupByQuery, QueryEngine
from repro.olap.schema import Schema
from repro.serve import CubeService

SCHEMA = Schema.simple(a=5, b=4, c=3)
IDENTITY = {"min": np.inf, "max": -np.inf, "count": 0.0}


@pytest.fixture(scope="module")
def facts():
    rng = np.random.default_rng(7)
    mask = rng.random(SCHEMA.shape) < 0.6
    values = np.where(mask, rng.random(SCHEMA.shape) * 10.0, 0.0)
    coords = np.argwhere(mask)
    sparse = SparseArray.from_coords(SCHEMA.shape, coords, values[mask])
    return sparse, mask, values


def oracle(measure, mask, values, query):
    """The answer computed straight from the facts."""
    index = []
    for name in SCHEMA.names:
        f = query.where.get(name)
        if isinstance(f, tuple):
            index.append(slice(*f))
        elif f is not None:
            index.append(f)
        else:
            index.append(slice(None))
    if measure == "count":
        cells = np.where(mask, 1.0, 0.0)
        reduce = np.sum
    else:
        cells = np.where(mask, values, IDENTITY[measure])
        reduce = np.min if measure == "min" else np.max
    sub = cells[tuple(index)]
    kept = [n for n, i in zip(SCHEMA.names, index) if isinstance(i, slice)]
    axes = tuple(i for i, n in enumerate(kept) if n not in query.group_by)
    return reduce(sub, axis=axes) if axes else sub


QUERIES = [
    GroupByQuery(("a", "b")),                            # exact (partial cube)
    GroupByQuery(("a",)),                                # strict cover / exact
    GroupByQuery(()),                                    # strict cover
    GroupByQuery(("a",), {"b": (1, 3)}),                 # range filter, reduced
    GroupByQuery(("b",), {"b": (1, 4)}),                 # range filter, kept
    *(GroupByQuery(("a",), {"b": i}) for i in range(4)),  # vectorized points
    GroupByQuery(("b", "c")),                            # base fallback
    GroupByQuery(("a",), {"c": 2}),                      # point filter, base
    GroupByQuery((), {"a": (0, 3), "c": (1, 3)}),        # ranges only
]


def cubes(measure, facts):
    sparse, _, _ = facts
    return {
        "partial": DataCube.build_partial(
            SCHEMA, sparse, [("a", "b"), ("c",)], measure=measure
        ),
        "marginals-1": DataCube.build(
            SCHEMA, sparse, num_processors=2, measure=measure, scheduler="marginals-1"
        ),
    }


@pytest.mark.parametrize("measure", ["min", "max", "count"])
def test_every_answer_matches_the_facts_per_query_and_batched(measure, facts):
    _, mask, values = facts
    for name, cube in cubes(measure, facts).items():
        single = [QueryEngine(cube).execute(q) for q in QUERIES]
        with CubeService(cube) as service:
            batched = service.execute_batch(QUERIES)
        served = set()
        for q, one, many in zip(QUERIES, single, batched):
            expected = oracle(measure, mask, values, q)
            np.testing.assert_array_equal(one.values, expected, err_msg=f"{name} {q}")
            assert np.asarray(one.values).tobytes() == np.asarray(many.values).tobytes()
            served.add("base" if one.served_by == BASE else
                       "exact" if set(one.served_by) == set(q.mentioned()) else "cover")
        assert served == {"exact", "cover", "base"}, name


def test_cli_query_uses_the_cube_measure(facts, tmp_path):
    # Regression: ``repro-cube query`` summed the per-d0 minima of a
    # marginals-1 MIN cube instead of taking their minimum.
    _, mask, values = facts
    cube = cubes("min", facts)["marginals-1"]
    path = tmp_path / "cube.npz"
    save_cube(path, cube.aggregates, SCHEMA.shape, measure_name="min")
    out = io.StringIO()
    assert main(["query", "--cube", str(path)], out=out) == 0
    assert f"  {values[mask].min():.4f}" in out.getvalue().splitlines()
