"""The package's value records: named fields in a fixed order, immutable,
and equal and hashed by value."""

from __future__ import annotations

import pickle

import pytest

from threecycle import avoid132, avoid321, oracle, perm

RECORDS = [
    (
        oracle.AvoidanceQuery(2, frozenset({(3, 2, 1)}), "312"),
        ("n", "patterns", "form"),
    ),
    (
        perm.cycle_decomposition((2, 3, 1, 6, 4, 5)),
        ("cycles", "forms"),
    ),
    (avoid132.t_partition((3, 1, 2)), ("t1", "t2", "t3")),
    (avoid321.dyck_stats("xyxy"), ("word", "h", "r", "s")),
    (avoid321.h_polynomial(2), ("coefficients",)),
]


@pytest.mark.parametrize(
    "record, fields", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS]
)
def test_record_is_an_immutable_value(record, fields):
    assert record._fields == fields
    values = [getattr(record, name) for name in fields]
    twin = type(record)(*values)
    assert twin == record and hash(twin) == hash(record)
    assert pickle.loads(pickle.dumps(record)) == record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        record.extra = 1


def test_avoidance_query_checks_every_construction():
    q = oracle.AvoidanceQuery(n=2, patterns=[[3, 2, 1]])
    assert q == oracle.AvoidanceQuery(2, frozenset({(3, 2, 1)}), None)
    assert repr(q) == "AvoidanceQuery(n=2, patterns=frozenset({(3, 2, 1)}), form=None)"
    assert q._replace(patterns=[[1, 3, 2]]).patterns == frozenset({(1, 3, 2)})
    with pytest.raises(ValueError, match="n must be >= 1"):
        q._replace(n=0)
