"""Mechanized replay of the degree-2 lower-bound argument, plus an explicit
verified 4-orientation of the tight instance.

The whole argument rests on one exhaustively checkable predicate about the
complete bipartite gadget K_{L,2} (L degree-2 vertices against two hubs):
no orientation sends an arc from every left vertex into a hub while both
hubs absorb at most ``cap`` arcs.  It is read two ways:

* left pigeonhole: if each hub absorbs at most ``cap`` spoke arcs, some
  left vertex has indegree exactly 2;
* right overflow: if each left vertex absorbs at most one arc, one of the
  two hubs absorbs at least ``cap + 1`` arcs.

Checked at K_{7,2} and K_{8,2}, both with cap 3, and chained with
properness transfer between adjacent tiers, it rules out any proper
3-orientation of the 182-vertex instance.  Every gadget claim is
established by classifying all 2^(2L) orientations, never by trusting the
prose; each orientation is the pair of its arcs into hub 0 and its arcs
into hub 1, and the cap test is decided once per half, not once per
orientation; a half is paired only when what it leaves uncovered fits
under the cap.  The glue logic is cross-checked against the exact solver on
the same layout at reduced scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParamsError
from .generators import _t4_layout
from .orientation import Orientation


@dataclass(frozen=True)
class GadgetResult:
    enumerated_count: int
    counterexamples: tuple

    @property
    def ok(self):
        return not self.counterexamples


@dataclass(frozen=True)
class CertificateReport:
    step1: GadgetResult
    step2a: GadgetResult
    step2b: GadgetResult
    step3: GadgetResult
    conclusion: bool
    narrative: tuple


def check_left_pigeonhole(left_size, right_cap):
    """Classify the 4^L orientations of K_{L,2}; the counterexamples are,
    in mask order, those in which every left vertex sends an arc into a hub
    and both hubs absorb at most ``right_cap`` arcs.  None reads two ways:
    with each hub capped at ``right_cap`` some left vertex has indegree 2
    (left pigeonhole), and with each left vertex absorbing at most one arc
    some hub absorbs at least ``right_cap + 1`` (right overflow at threshold
    ``right_cap + 1``).

    Mask bit 2i is the arc from left i into hub 0 and bit 2i+1 the arc into
    hub 1, so a mask is a pair of L-bit halves ``a`` (into hub 0) and ``b``
    (into hub 1).  Each half's cap test is decided once per half rather than
    once per mask; a pair of halves within the cap is a counterexample when
    ``a | b`` covers every left vertex.  Such a ``b`` contains ``full ^ a``,
    so a capped ``a`` is paired only when ``full ^ a`` is within the cap
    too; every other mask fails the cap or the cover test, so all 4^L are
    still classified.  A negative ``left_size`` is a BadParamsError; a
    negative ``right_cap`` is vacuously ok.
    """
    if left_size < 0:
        raise BadParamsError(f"left_size must be >= 0, got {left_size}")
    half = 1 << left_size
    full = half - 1
    spread = [0] * half  # spread[x] moves bit i of x to bit 2i
    for x in range(1, half):
        spread[x] = spread[x >> 1] << 2 | x & 1
    capped = [x for x in range(half) if x.bit_count() <= right_cap]
    # b covers full ^ a, so a pairs with nothing when that is over the cap
    counterexamples = tuple(sorted(
        spread[a] | spread[b] << 1
        for a in capped if (full ^ a).bit_count() <= right_cap
        for b in capped if a | b == full
    ))
    return GadgetResult(enumerated_count=half * half, counterexamples=counterexamples)


def verify_lower_bound_certificate():
    """Replay the lower-bound proof that the tight instance has no proper
    3-orientation: K_{7,2} and K_{8,2}, both with hub cap 3.  conclusion is
    True only if every enumeration succeeds.
    """
    step1 = check_left_pigeonhole(7, 3)
    step2a = check_left_pigeonhole(8, 3)
    step2b = check_left_pigeonhole(7, 3)
    step3 = check_left_pigeonhole(8, 3)
    narrative = (
        "step 1: in each (i,j) block the 7 spoke vertices force one of them "
        "to indegree 2 once both hubs are capped at 3",
        "step 1: properness then forbids indegree 2 on every b and c hub",
        "step 2: if all eight b,c hubs of a block had indegree <= 1 they "
        "would push >= 4 arcs into p_i or q_i; so some hub has indegree 3 "
        "and p_i, q_i can never have indegree 3",
        "step 2: the 7 degree-2 d vertices of each block force one of them "
        "to indegree 2, so p_i, q_i can never have indegree 2",
        "step 2: therefore every p_i and q_i has indegree at most 1",
        "step 3: the eight p,q vertices then push >= 4 arcs into s or t, "
        "contradicting the cap of 3; no proper 3-orientation exists",
    )
    return CertificateReport(
        step1=step1,
        step2a=step2a,
        step2b=step2b,
        step3=step3,
        conclusion=step1.ok and step2a.ok and step2b.ok and step3.ok,
        narrative=narrative,
    )


def shrunken_instance():
    """Reduced-scale analogue used to cross-check the deduction glue: the
    theorem-4 layout at one block, two hub pairs and three spokes (so three
    d vertices), with one p/q pair and the s/t top.  Small enough for the
    exact solver."""
    return _t4_layout(0, 1, 2, 3)[0]


def reduced_scale_crosscheck():
    """Guard the deduction glue, not just the gadget counts.

    At left size 3 with hub cap 1 the pigeonhole gadget already forces a
    degree-2 spoke vertex past the cap, so the chain concludes that the
    shrunken instance has no proper 1-orientation.  That verdict is
    compared against the exact solver's complete search, and a weakened
    cap (negative control) must make both sides flip together.
    """
    from .exact import exists_proper_k

    g = shrunken_instance()
    gadget = check_left_pigeonhole(3, 1)
    chain_says_impossible = gadget.ok  # forced indegree 2 exceeds the cap of 1
    search_says_impossible = exists_proper_k(g, 1) is None
    # negative control: with the hub cap relaxed to 3 the gadget no longer
    # forces anything (2*3 - 2*3 <= 3) and the instance really is orientable
    relaxed = check_left_pigeonhole(3, 3)
    relaxed_chain_forces = relaxed.ok
    relaxed_search_finds = exists_proper_k(g, 3) is not None
    return (
        chain_says_impossible
        and search_says_impossible
        and not relaxed_chain_forces
        and relaxed_search_finds
    )


def witness_four_orientation(extra=0):
    """Deterministic proper 4-orientation of theorem4(extra), in the
    directions the theorem-4 layout lists with its edges.

    Per block: a(i,j,0) feeds both hubs, the hubs feed every other spoke
    vertex (and the extra vertices); p_i, q_i feed the hubs and the d tier;
    the top square circulates s -> p -> t -> q -> s.  Intended indegrees:
    fed spokes and d 2, hubs 3, p/q 1, s/t 4, lead spokes 0.  Tests must
    confirm this via verify_orientation, never by trusting the intent.
    """
    g, direction, _ = _t4_layout(extra)
    return Orientation(graph=g, direction=direction)
