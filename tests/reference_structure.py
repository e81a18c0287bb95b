"""Reference inference check: the skeleton-to-machine isomorphism that
`infer_machines` decided before it compared the suffix and state
partitions.

`skeleton_matches` maps each suffix class to the one machine state played
at its time points, checks that the map is injective, and then checks the
initial state, every output and every observed transition by hand.
`tests/test_structure_differential.py` compares `infer_machines` with it.
"""

from __future__ import annotations

from leanfa.machines import EquivalenceClasses, Machine, Play
from leanfa.structure import InferredSkeleton


def skeleton_matches(
    skeleton: InferredSkeleton, machine: Machine, play: Play, suffix: EquivalenceClasses
) -> tuple[bool, str]:
    """Isomorphism between the skeleton and the machine's played substructure.

    Played substructure means played states with outputs, plus transitions on
    the inputs actually observed in the play; off-play transitions are not
    the observer's to know.
    """
    player = skeleton.player
    mapping: dict[str, str] = {}
    for cls in suffix.classes:
        name = f"c{cls[0]}"
        actual = {play.state_at(t)[player - 1] for t in cls}
        if len(actual) != 1:
            return False, f"class {name} is played by several machine states {sorted(actual)}"
        state = actual.pop()
        mapping[name] = state
    if len(set(mapping.values())) != len(mapping):
        return False, "two classes map to the same machine state"
    if mapping[skeleton.initial] != machine.initial:
        return False, "initial states do not correspond"
    for name, state in mapping.items():
        if machine.output[state] != skeleton.output[name]:
            return False, f"output mismatch at {name}"
    for (name, observed), nxt in skeleton.transition.items():
        if machine.transition[(mapping[name], observed)] != mapping[nxt]:
            return False, f"transition mismatch at ({name},{observed})"
    return True, "skeleton is isomorphic to the played substructure"
