"""Canonicalization on every serving path agrees with ``canonicalize_query``.

``canonicalize_query`` is the one definition of filter semantics.
``CubeService`` canonicalizes through a table compiled per raw query shape
and sends every value the table does not resolve to ``canonicalize_query``.
These tests pin the errors each path raises, at a first sight and at a
repeat, and check on generated queries that the served canonical form is
the reference one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.olap import DataCube, Dimension, GroupByQuery, QueryEngine, Schema
from repro.olap.query import canonicalize_query
from repro.serve import CubeService

SCHEMA = Schema.of(
    Dimension("item", 4, labels=("ink", "pen", "pad", "gum")),
    Dimension("branch", 3),
    Dimension("year", 3, labels=(2001, 2002, 2003)),
    Dimension("shelf", 5),
    Dimension("unit", 1),  # its only width-1 range is also its full range
)
CUBE = DataCube.build(SCHEMA, np.random.default_rng(5).random(SCHEMA.shape))


def _q(group_by=(), **where):
    return GroupByQuery(tuple(group_by), where)


#: ``(id, query, a valid query of the same raw shape or None, error, message)``.
ERRORS = [
    ("unknown group-by dimension", _q(("color",)), None,
     KeyError, "no dimension named 'color'"),
    ("unknown filter dimension", _q(color=1), None,
     KeyError, "no dimension named 'color'"),
    ("unknown label", _q(item="rug"), _q(item="pen"),
     KeyError, "no member 'rug' in dimension 'item'"),
    ("label on an unlabelled dimension", _q(branch="x"), _q(branch=1),
     ValueError, "dimension 'branch' has no labels"),
    ("point past the end", _q(("item",), branch=3), _q(("item",), branch=2),
     ValueError, "index 3 out of bounds for 'branch'"),
    ("negative point", _q(branch=-1), _q(branch=0),
     ValueError, "index -1 out of bounds for 'branch'"),
    ("range past the end", _q(branch=(1, 4)), _q(branch=(1, 3)),
     ValueError, "range (1, 4) out of bounds for 'branch'"),
    ("reversed range", _q(branch=(2, 1)), _q(branch=(1, 2)),
     ValueError, "range (2, 1) out of bounds for 'branch'"),
    ("tuple of three", _q(branch=(0, 1, 2)), _q(branch=(0, 1)),
     ValueError, "range filter must be (lo, hi), got (0, 1, 2)"),
    ("one-element tuple", _q(branch=(1,)), _q(branch=(0, 1)),
     ValueError, "range filter must be (lo, hi), got (1,)"),
    ("bool point", _q(branch=True), _q(branch=1),
     TypeError, "filter on 'branch' must be a label, index, or (lo, hi) range, got True"),
    ("float point", _q(branch=1.0), _q(branch=1),
     TypeError, "filter on 'branch' must be a label, index, or (lo, hi) range, got 1.0"),
    ("None point", _q(branch=None), _q(branch=1),
     TypeError, "filter on 'branch' must be a label, index, or (lo, hi) range, got None"),
    ("bool range bound", _q(branch=(False, 2)), _q(branch=(0, 2)),
     TypeError, "range filter on 'branch' must be (lo, hi) member indices, got (False, 2)"),
    ("float range bound", _q(branch=(0, 2.0)), _q(branch=(0, 2)),
     TypeError, "range filter on 'branch' must be (lo, hi) member indices, got (0, 2.0)"),
    ("absent integer label", _q(year=0), _q(year=2002),
     KeyError, "no member 0 in integer-labeled dimension 'year'; "
               "use a (lo, hi) range for positional access"),
    ("group-by over every dimension", _q(SCHEMA.names), None,
     ValueError, "grouping by every dimension reproduces the base array; read it directly"),
    ("group-by over every dimension, filtered", _q(SCHEMA.names, branch=1), None,
     ValueError, "grouping by every dimension reproduces the base array; read it directly"),
]

PATHS = {
    "engine.execute": lambda: QueryEngine(CUBE).execute,
    "service.execute": lambda: CubeService(CUBE).execute,
    "service.execute_batch": lambda: (lambda q, svc=CubeService(CUBE): svc.execute_batch([q])[0]),
}


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize(
    "query, valid, error, message", [case[1:] for case in ERRORS], ids=[case[0] for case in ERRORS]
)
@pytest.mark.parametrize("sight", ["first", "repeat"])
def test_errors_are_pinned_on_every_path(path, query, valid, error, message, sight):
    run = PATHS[path]()
    if sight == "repeat":
        if valid is not None:
            run(valid)  # compiles the raw shape and its filter pattern
            run(valid)
        with pytest.raises(error):
            run(query)
    with pytest.raises(error) as raised:
        run(query)
    assert raised.type is error and raised.value.args == (message,)


# -- the compiled path equals the reference ---------------------------------------------


def _values(dim: Dimension):
    """Filter values for ``dim``: ints, numpy ints and labels in and out of
    range, ranges of width 0, 1 and the full extent, and rejected types."""
    n = dim.size
    index = st.integers(-1, n)
    bound = st.integers(0, n)
    values = [
        index,
        index.map(np.int64),
        st.tuples(bound, bound),
        bound.map(lambda lo: (lo, lo)),
        st.integers(0, n - 1).map(lambda lo: (lo, lo + 1)),
        st.just((0, n)),
        st.tuples(bound, bound).map(lambda r: (np.int64(r[0]), r[1])),
        st.sampled_from([True, 1.0, (0, 1.0), (False, 1), "nope", None, (0, 1, 2), [0, 1]]),
    ]
    if dim.labels is not None:
        values.append(st.sampled_from(dim.labels))
    return st.one_of(values)


@st.composite
def workloads(draw):
    """Queries over a few raw shapes, each seen several times."""
    names = SCHEMA.names
    shapes = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(names), max_size=3, unique=True),
            st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True),
        ),
        min_size=1, max_size=3,
    ))
    queries = []
    for group_by, filtered in shapes:
        for _ in range(draw(st.integers(2, 8))):
            where = {nm: draw(_values(SCHEMA.dimension(nm))) for nm in filtered}
            queries.append(GroupByQuery(tuple(group_by), where))
    return draw(st.permutations(queries))


def _outcome(canonicalize, query):
    try:
        cq = canonicalize(query)
    except (KeyError, ValueError, TypeError) as exc:
        return type(exc), exc.args
    return cq, repr(cq), cq.mentioned, cq.shape


@given(queries=workloads())
@settings(max_examples=150, deadline=None)
def test_compiled_canonicalization_equals_the_reference(queries):
    svc = CubeService(CUBE)
    for _ in range(3):  # first sights, then compiled shapes and patterns
        for q in queries:
            want = _outcome(lambda q: canonicalize_query(SCHEMA, q), q)
            assert _outcome(svc.canonicalize, q) == want, q
