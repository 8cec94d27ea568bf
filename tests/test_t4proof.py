import hashlib

import pytest

from orientkit.errors import BadParamsError
from orientkit.exact import exists_proper_k
from orientkit.orientation import verify_orientation
from orientkit.t4proof import (
    check_left_pigeonhole,
    shrunken_instance,
    verify_lower_bound_certificate,
    witness_four_orientation,
)


def test_pigeonhole_trivial_case():
    result = check_left_pigeonhole(1, 0)
    assert result.ok
    assert result.enumerated_count == 4
    # the smallest overflow: two left vertices push one arc into a hub
    assert check_left_pigeonhole(2, 0).ok


def test_pigeonhole_negative_control():
    # with hub capacity 4 the counting argument no longer forces anything
    result = check_left_pigeonhole(7, 4)
    assert not result.ok
    assert result.counterexamples
    # nor does it on K_{8,2}: eight arcs split 4 + 4 stay at the cap
    mask = check_left_pigeonhole(8, 4).counterexamples[0]
    in0 = sum(mask >> (2 * i) & 1 for i in range(8))
    in1 = sum(mask >> (2 * i + 1) & 1 for i in range(8))
    assert max(in0, in1) == 4  # the balanced split


def test_pigeonhole_counterexample_is_real():
    result = check_left_pigeonhole(7, 4)
    mask = result.counterexamples[0]
    in0 = sum(mask >> (2 * i) & 1 for i in range(7))
    in1 = sum(mask >> (2 * i + 1) & 1 for i in range(7))
    assert in0 <= 4 and in1 <= 4
    assert all(mask >> (2 * i) & 3 for i in range(7))  # no left vertex takes both


def _mask_by_mask(left, cap):
    # reference: a counterexample of K_{L,2} sends an arc from each left
    # vertex into a hub and leaves both hubs at <= cap arcs, tested on each
    # whole mask at once
    total = 1 << (2 * left)
    hub0 = (total - 1) // 3
    return tuple(
        mask
        for mask in range(total)
        if (mask | mask >> 1) & hub0 == hub0
        and (mask & hub0).bit_count() <= cap
        and (mask >> 1 & hub0).bit_count() <= cap
    )


@pytest.mark.parametrize("left", range(9))
def test_pigeonhole_matches_the_mask_by_mask_test(left):
    for cap in range(-1, 2 * left + 2):
        result = check_left_pigeonhole(left, cap)
        assert result.counterexamples == _mask_by_mask(left, cap)
        assert result.enumerated_count == 4**left


@pytest.mark.parametrize("left, count, digest", [
    (7, 210, "ddf25aa499324f2fec0164b2738be8efce9367af28c9a0600789b3c01c604464"),
    (8, 70, "8a4bb1c99c00d06c4227602e45b89bce73212ed05bf688544b0d37b963a3a978"),
])
def test_pigeonhole_counterexamples_are_pinned(left, count, digest):
    # the negative controls at cap 4, mask for mask and in mask order
    masks = check_left_pigeonhole(left, 4).counterexamples
    assert len(masks) == count
    assert hashlib.sha256(repr(masks).encode()).hexdigest() == digest


def test_pigeonhole_refuses_a_negative_left_size():
    with pytest.raises(BadParamsError, match="-1"):
        check_left_pigeonhole(-1, 3)
    # a negative cap stays valid: no hub absorbs fewer than zero arcs
    assert check_left_pigeonhole(3, -1) == check_left_pigeonhole(3, -5)
    assert check_left_pigeonhole(3, -1).ok


def test_certificate_mutated_run(monkeypatch):
    # a hub cap of 4 breaks step 1, and the conclusion must follow it
    assert check_left_pigeonhole(7, 4).counterexamples
    monkeypatch.setattr("orientkit.t4proof.check_left_pigeonhole",
                        lambda left, cap: check_left_pigeonhole(left, cap + 1))
    report = verify_lower_bound_certificate()
    assert not report.conclusion
    assert report.step1.counterexamples


def test_shrunken_instance_shape():
    g = shrunken_instance()
    assert g.m == 2 * g.n - 4
    # the theorem-4 layout at one block, two hub pairs and three spokes,
    # pinned edge for edge: a = 0..5, b = 6..7, c = 8..9, d = 10..12,
    # p = 13, q = 14, s = 15, t = 16
    assert g.n == 17 and g.planar_asserted
    assert g.edges == (
        (0, 6), (0, 8), (1, 6), (1, 8), (2, 6), (2, 8),
        (3, 7), (3, 9), (4, 7), (4, 9), (5, 7), (5, 9),
        (6, 13), (6, 14), (8, 13), (8, 14), (7, 13), (7, 14), (9, 13), (9, 14),
        (10, 13), (10, 14), (11, 13), (11, 14), (12, 13), (12, 14),
        (13, 15), (13, 16), (14, 15), (14, 16),
    )
    assert exists_proper_k(g, 1) is None


def test_witness_spot_checks():
    sigma = witness_four_orientation(0)
    report = verify_orientation(sigma.graph, sigma)
    indeg = report.indegrees
    assert indeg[180] == 4  # s collects the four q arcs
    assert indeg[181] == 4  # t collects the four p arcs
    assert all(indeg[v] == 3 for v in range(112, 144))  # every b and c hub
    assert all(indeg[v] == 1 for v in range(172, 180))  # every p and q
    assert all(indeg[v] == 2 for v in range(144, 172))  # every d
    # spoke a(i,j,k) is 7(4i+j) + k: each lead spoke a(i,j,0) feeds both hubs,
    # and both hubs feed every other spoke
    assert all(indeg[v] == (0 if v % 7 == 0 else 2) for v in range(112))


def test_witness_extra_vertices_sit_between_hubs():
    sigma = witness_four_orientation(3)
    indeg = verify_orientation(sigma.graph, sigma).indegrees
    assert all(indeg[v] == 2 for v in range(182, 185))


def test_lower_bound_argument_matches_search_on_gadget():
    # the K_{7,2} claim restated as graph search: a lone gadget with hubs
    # capped at 3 cannot keep every spoke vertex away from indegree 2
    from orientkit.graphs import Graph

    edges = tuple((i, 7) for i in range(7)) + tuple((i, 8) for i in range(7))
    g = Graph(n=9, edges=edges)
    found = False
    for mask in range(1 << 14):
        indeg = [0] * 9
        for i, (u, v) in enumerate(g.edges):
            indeg[v if mask >> i & 1 else u] += 1
        if indeg[7] <= 3 and indeg[8] <= 3 and all(indeg[i] != 2 for i in range(7)):
            found = True
            break
    assert not found
