"""The contract of the ten exported records.

Each record is built from its fields, compares and hashes by those fields
within its own class only, shows them in its ``repr``, matches them
positionally in a ``match`` statement, and survives ``copy`` and ``pickle``.
Nine are immutable; ``CnfDocument`` is a mutable, unhashable document.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from orientkit import (
    Bipartition,
    CertificateReport,
    CnfDocument,
    DensityReport,
    ExactResult,
    GadgetResult,
    Graph,
    Infeasible,
    Orientation,
    OrientationReport,
)

P3 = Graph(3, ((0, 1), (1, 2)))
P3_REPR = "Graph(n=3, edges=((0, 1), (1, 2)), planar_asserted=False)"
SIGMA = Orientation(P3, (True, False))
SIGMA_REPR = f"Orientation(graph={P3_REPR}, direction=(True, False))"
NONE_FOUND = GadgetResult(16, ())
ONE_FOUND = GadgetResult(16, (5,))

# name -> (class, fields, field values, the repr of the record they make,
# values of a record that differs in one field)
RECORDS = {
    "Graph": (
        Graph, ("n", "edges", "planar_asserted"), (3, ((0, 1), (1, 2)), True),
        "Graph(n=3, edges=((0, 1), (1, 2)), planar_asserted=True)",
        (3, ((0, 1),), True),
    ),
    "Bipartition": (
        Bipartition, ("side",), (("X", "Y", "X"),),
        "Bipartition(side=('X', 'Y', 'X'))",
        (("X", "Y", "Y"),),
    ),
    "Orientation": (
        Orientation, ("graph", "direction"), (P3, (True, False)),
        SIGMA_REPR,
        (P3, (True, True)),
    ),
    "Infeasible": (
        Infeasible, ("k", "witness"), (1, (0, 1, 2)),
        "Infeasible(k=1, witness=(0, 1, 2))",
        (2, (0, 1, 2)),
    ),
    "OrientationReport": (
        OrientationReport, ("indegrees", "max_indegree", "proper", "violations"),
        ((0, 1, 1), 1, False, (1,)),
        "OrientationReport(indegrees=(0, 1, 1), max_indegree=1, proper=False, "
        "violations=(1,))",
        ((0, 1, 1), 1, True, ()),
    ),
    "DensityReport": (
        DensityReport, ("mad", "witness"), (Fraction(4, 3), (0, 1, 2)),
        "DensityReport(mad=Fraction(4, 3), witness=(0, 1, 2))",
        (Fraction(1, 1), (0, 1)),
    ),
    "ExactResult": (
        ExactResult, ("value", "witness"), (1, SIGMA),
        f"ExactResult(value=1, witness={SIGMA_REPR})",
        (2, SIGMA),
    ),
    "CnfDocument": (
        CnfDocument, ("num_vars", "clauses", "comments"), (2, [[1, -2], [2]], ["c"]),
        "CnfDocument(num_vars=2, clauses=[[1, -2], [2]], comments=['c'])",
        (2, [[1, -2]], ["c"]),
    ),
    "GadgetResult": (
        GadgetResult, ("enumerated_count", "counterexamples"), (16, (3, 5)),
        "GadgetResult(enumerated_count=16, counterexamples=(3, 5))",
        (16, ()),
    ),
    "CertificateReport": (
        CertificateReport, ("step1", "step2a", "step2b", "step3", "conclusion", "narrative"),
        (NONE_FOUND, NONE_FOUND, ONE_FOUND, NONE_FOUND, False, ("step 2b failed",)),
        "CertificateReport(step1=GadgetResult(enumerated_count=16, counterexamples=()), "
        "step2a=GadgetResult(enumerated_count=16, counterexamples=()), "
        "step2b=GadgetResult(enumerated_count=16, counterexamples=(5,)), "
        "step3=GadgetResult(enumerated_count=16, counterexamples=()), "
        "conclusion=False, narrative=('step 2b failed',))",
        (NONE_FOUND, NONE_FOUND, NONE_FOUND, NONE_FOUND, True, ("step 2b failed",)),
    ),
}

FROZEN = [name for name in RECORDS if name != "CnfDocument"]


def values(record, fields):
    return tuple(getattr(record, field) for field in fields)


@pytest.mark.parametrize("name", RECORDS)
def test_construction_by_position_and_keyword(name):
    cls, fields, args, _, _ = RECORDS[name]
    assert cls.__match_args__ == fields
    record = cls(*args)
    assert values(record, fields) == args
    assert values(cls(**dict(zip(fields, args))), fields) == args


def test_defaults():
    assert Graph(2, ((0, 1),)).planar_asserted is False
    first, second = CnfDocument(1, []), CnfDocument(1, [])
    assert first.comments == [] and first.comments is not second.comments
    first.comments.append("x")
    assert second.comments == []


@pytest.mark.parametrize("name", RECORDS)
def test_equality_within_one_class(name):
    cls, _, args, _, other = RECORDS[name]
    record = cls(*args)
    assert record == cls(*args) and not record != cls(*args)
    assert record != cls(*other) and not record == cls(*other)
    assert record != args
    assert record != type("Sub", (cls,), {})(*args)


@pytest.mark.parametrize("name", FROZEN)
def test_hash_over_the_compared_fields(name):
    cls, _, args, _, _ = RECORDS[name]
    assert hash(cls(*args)) == hash(cls(*args)) == hash(args)


def test_cnf_document_is_mutable_and_unhashable():
    doc = CnfDocument(1, [[1]])
    with pytest.raises(TypeError):
        hash(doc)
    doc.num_vars = 2
    doc.clauses = [[2]]
    assert doc == CnfDocument(2, [[2]])


def test_graph_equality_ignores_adjacency():
    assert Graph(3, [[0, 1], [1, 2]]) == P3
    assert P3.adjacency == (((1, 0),), ((0, 0), (2, 1)), ((1, 1),))


@pytest.mark.parametrize("name", RECORDS)
def test_repr(name):
    cls, _, args, text, _ = RECORDS[name]
    assert repr(cls(*args)) == text


def test_match_binds_fields_by_position():
    match SIGMA:
        case Orientation(Graph(n, edges), direction):
            assert (n, edges, direction) == (3, P3.edges, (True, False))
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("name", FROZEN)
def test_frozen(name):
    cls, fields, args, _, _ = RECORDS[name]
    record = cls(*args)
    for field in (*fields, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert values(record, fields) == args


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_round_trips(name):
    cls, fields, args, _, _ = RECORDS[name]
    record = cls(*args)
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is cls
        assert twin == record
        assert values(twin, fields) == args
        if cls is Graph:
            assert twin.adjacency == record.adjacency

