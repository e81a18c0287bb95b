"""One `Side` record per decided player: one hand case per `Decided` member.

Each case pins the records, and the result, certificates and side texts
that the verdict derives from them, to literal values.
"""

import pytest

from leanfa import (
    PRISONERS_DILEMMA as PD,
    Certificate,
    Decided,
    Measure,
    SearchBound,
    build_trigger_machines,
    constant_machine,
    grim_trigger,
    is_abreu_rubinstein,
    is_lean,
    parse_sequence,
)

BOUND = SearchBound(4, 1)
CLASSES = "irreducible-classes [2 pairwise-incompatible suffix classes >= measure 2]"
CERT1 = Certificate("irreducible-classes", 1, "2 pairwise-incompatible suffix classes >= measure 2")
CERT2 = Certificate("irreducible-classes", 2, CERT1.detail)
GRIM = (grim_trigger(1), grim_trigger(2))
ALWAYS_D = (constant_machine(1, "D", ("C", "D")), constant_machine(2, "D", ("C", "D")))


def _trigger(text):
    return build_trigger_machines(parse_sequence(text, PD), PD)


# name: (verdict, result, [(player, decided, bound, certificate)], sides, certificates)
CASES = {
    "not-nash": (
        lambda: is_lean(GRIM[0], constant_machine(2, "C", ("C", "D")), PD, Measure.NORMAL_STATES),
        "fails",
        [(1, Decided.NOT_NASH, None, None)],
        ("pair is not a Nash equilibrium (player 1 deviates)",),
        (),
    ),
    "measure-zero": (
        lambda: is_lean(*ALWAYS_D, PD, Measure.NORMAL_STATES),
        "holds",
        [(1, Decided.MEASURE_ZERO, None, None), (2, Decided.MEASURE_ZERO, None, None)],
        (
            "player 1: no simpler machine exists (measure 0)",
            "player 2: no simpler machine exists (measure 0)",
        ),
        (),
    ),
    "certificate-then-deviation": (
        lambda: is_abreu_rubinstein(*_trigger("1*(C,C) 1*(D,C)"), PD, Measure.NORMAL_STATES),
        "fails",
        [(1, Decided.CERTIFICATE, BOUND, CERT1), (2, Decided.DEVIATION, BOUND, None)],
        (
            f"player 1: certificate {CLASSES}",
            "player 2: simpler deviation found (states<=4 threat<=1)",
        ),
        (),  # a failing verdict reports no certificate, even for a certified side
    ),
    "within-bound-then-certificate": (
        lambda: is_abreu_rubinstein(
            *_trigger("1*(C,C) 1*(C,D)"), PD, Measure.NORMAL_TRANSITIONS
        ),
        "holds-within-bound",
        [(1, Decided.WITHIN_BOUND, BOUND, None), (2, Decided.CERTIFICATE, BOUND, CERT2)],
        (
            "player 1: no deviation within bound (states<=4 threat<=1)",
            f"player 2: certificate {CLASSES}",
        ),
        (CERT2,),
    ),
    "complete": (
        lambda: is_lean(*GRIM, PD, Measure.TOTAL_STATES, certify="none"),
        "holds",
        [(1, Decided.COMPLETE, BOUND, None), (2, Decided.COMPLETE, BOUND, None)],
        (
            "player 1: complete enumeration of all machines with fewer than 2 states",
            "player 2: complete enumeration of all machines with fewer than 2 states",
        ),
        (),
    ),
    "deviation": (
        lambda: is_abreu_rubinstein(*GRIM, PD, Measure.TOTAL_STATES),
        "fails",
        [(1, Decided.DEVIATION, BOUND, None)],
        ("player 1: simpler deviation found (states<=4 threat<=1)",),
        (),
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_each_decided_side_is_one_record(name):
    make, result, records, sides, certificates = CASES[name]
    verdict = make()
    assert [(r.player, r.decided, r.bound, r.certificate) for r in verdict.records] == records
    assert verdict.result == result
    assert verdict.sides == sides
    assert verdict.certificates == certificates


def test_the_cases_cover_every_decided_member():
    covered = {decided for _, _, records, _, _ in CASES.values() for _, decided, _, _ in records}
    assert covered == set(Decided)
