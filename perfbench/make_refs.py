"""Regenerate the benchmark's reference inputs and answers from the library.

    python3 perfbench/make_refs.py [--out DIR]

Writes three files (default ``perfbench/refs``):

* ``classes8.g6``  every isomorphism class on 8 vertices, one graph6 string
  a line, in ``enumerate_graphs(8)`` order (12346 lines);
* ``survey8.txt``  the connected 8-vertex classes with their ``Zsap``,
  ``Zsapl`` and ``Zsapp`` = 0 verdicts (1 = the game finishes from nothing);
* ``xi7.txt``      every connected class on at most 7 vertices with its xi
  case and value, the floor forcing number, and the same three verdicts.

The answers come from the code under ``src/`` as it stands; the slow test
``perfbench/tests/test_refs.py`` regenerates them and compares byte for byte.
Takes about 90 s on one core.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import sapforce  # noqa: E402
from sapforce import Rule  # noqa: E402

RULES = (Rule.Z, Rule.ZL, Rule.ZPLUS)


def verdicts(g: sapforce.Graph) -> str:
    return " ".join("1" if sapforce.is_zsap_zero(g, rule) else "0" for rule in RULES)


def write_refs(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    classes8 = list(sapforce.enumerate_graphs(8))
    (out / "classes8.g6").write_text("".join(g.to_graph6() + "\n" for g in classes8))

    lines = ["# graph6 zsap0 zsapl0 zsapp0\n"]
    lines += [f"{g.to_graph6()} {verdicts(g)}\n" for g in classes8 if g.is_connected()]
    (out / "survey8.txt").write_text("".join(lines))

    lines = ["# graph6 case xi floor zsap0 zsapl0 zsapp0\n"]
    for n in range(1, 8):
        for g in sapforce.enumerate_connected(n):
            cert = sapforce.xi(g)
            floor = sapforce.min_zfs(g, Rule.FLOOR)[0]
            lines.append(f"{g.to_graph6()} {cert.case} {cert.value} {floor} {verdicts(g)}\n")
    (out / "xi7.txt").write_text("".join(lines))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE / "refs")
    write_refs(parser.parse_args().out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
