import pytest

from orientkit.errors import BadParamsError, NotBipartiteError
from orientkit.generators import (
    FAMILIES,
    complete_bipartite,
    cycle,
    generate,
    path,
    pdw,
    q3,
    star,
    theorem4,
    theorem4_id_table,
)
from orientkit.graphs import bipartition, min_degree, serialize_graph


def test_q3_shape():
    g = q3()
    assert (g.n, g.m) == (8, 12)
    assert all(d == 3 for d in g.degrees())
    bipartition(g)
    assert g.planar_asserted


@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_pdw_shape(m):
    g = pdw(m)
    assert g.n == 2 * m + 2
    assert g.m == 4 * m == 2 * g.n - 4
    assert min_degree(g) == 3
    bipartition(g)
    assert g.planar_asserted


@pytest.mark.parametrize("extra", [0, 1, 5])
def test_theorem4_counts(extra):
    g = theorem4(extra)
    assert g.n == 182 + extra
    assert g.m == 360 + 2 * extra
    assert g.m == 2 * g.n - 4
    assert min_degree(g) == 2
    bipartition(g)
    assert g.planar_asserted


def test_theorem4_id_table():
    table = theorem4_id_table(3)
    assert table["a"] == (0, 111)
    assert table["s"] == (180, 180)
    assert table["extra"] == (182, 184)
    spans = sorted(table.values())
    covered = sum(last - first + 1 for first, last in spans)
    assert covered == 185


def test_theorem4_extra_vertices_have_degree_two():
    g = theorem4(4)
    for x in range(182, 186):
        assert g.degree(x) == 2
        neighbors = sorted(v for v, _ in g.adjacency[x])
        assert neighbors == [112, 128]  # b[0][0] and c[0][0]


def test_standard_families():
    assert path(5).m == 4
    assert cycle(6).m == 6
    assert star(4).degrees() == [4, 1, 1, 1, 1]
    g = complete_bipartite(2, 3)
    assert (g.n, g.m) == (5, 6)
    with pytest.raises(NotBipartiteError):
        bipartition(cycle(5))


def test_generation_is_deterministic():
    assert serialize_graph(theorem4(2)) == serialize_graph(theorem4(2))
    assert serialize_graph(pdw(6)) == serialize_graph(pdw(6))


def test_dispatch():
    assert generate("q3").n == 8
    assert generate("pdw", (4,)).n == 10
    assert generate("kbip", (2, 2)).m == 4
    assert generate("t4", (0,)) == theorem4(0)
    with pytest.raises(BadParamsError):
        generate("pdw")
    with pytest.raises(BadParamsError):
        generate("frucht", ())
    with pytest.raises(BadParamsError):
        generate("pdw", (2,))


def test_families_are_the_documented_names():
    assert list(FAMILIES) == ["q3", "pdw", "t4", "kbip", "path", "cycle", "star"]
    # the arity error names the constructor, as gen has always printed it
    with pytest.raises(BadParamsError, match=r"^theorem4 takes 1 parameter\(s\), got 2$"):
        generate("t4", (1, 2))
    # only the documented names: the constructors' own names are not families
    for long_name in ("theorem4", "complete_bipartite"):
        with pytest.raises(BadParamsError, match="unknown family"):
            generate(long_name, (2, 2))


@pytest.mark.parametrize(
    "g", [q3(), pdw(3), pdw(7), theorem4(0), theorem4(3), path(5), cycle(4), star(3)]
)
def test_planar_asserted_edge_bound(g):
    if g.planar_asserted and g.n >= 4:
        assert g.m <= 2 * g.n - 4


@pytest.mark.parametrize(
    "family, params",
    [("pdw", (300,)), ("cycle", (600,)), ("path", (600,)), ("kbip", (20, 300)),
     ("star", (600,)), ("t4", (100,)), ("q3", ())],
)
def test_one_int_object_per_vertex_id(family, params):
    # ids above 256 are not cached by CPython: a fresh int per endpoint
    # would show as more objects than ids
    g = generate(family, params)
    ends = [x for e in g.edges for x in e]
    assert len({id(x) for x in ends}) == len(set(ends))
