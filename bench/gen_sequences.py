"""Regenerate bench/data/trigger_sequences.txt, the inputs of `trigger-verdicts`.

    python3 bench/gen_sequences.py

Lists every prisoner's-dilemma action sequence of length 4 to 8, in
product order of the action pairs (C,C) (C,D) (D,C) (D,D), that is strictly
enforceable and irreducible for both players, as decided by the oracle.
The second column says whether the sequence is foolable for both players,
which adds a lean check under the total-state measure Q.
"""

from pathlib import Path

import oracle

OUT = Path(__file__).resolve().parent / "data" / "trigger_sequences.txt"


def main() -> None:
    lines = []
    for seq in oracle.trigger_sequences(range(4, 9)):
        fool = "foolable-both" if oracle.foolable(seq, 1) and oracle.foolable(seq, 2) else "-"
        lines.append(f"{oracle.seq_text(seq)}\t{fool}")
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} sequences to {OUT}")


if __name__ == "__main__":
    main()
