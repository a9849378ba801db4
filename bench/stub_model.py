"""Stand-in seq2seq model for the adapter workload.

Reads one linearized AMR per line on stdin and writes one scene graph per
line in amrsg's wire grammar. The reply is a pure function of the input
(``reply_tuples``), so the benchmark can check every adapter result, and each
line costs the same fixed amount of work on top of reading the line.

Run it as ``python3 stub_model.py``; it exits when stdin closes.
"""

import re
import sys

_CONCEPT = re.compile(r"/ ([^\s()]+)")
_FRAME = re.compile(r"-[0-9][0-9]$")

# Iterations of a busy loop per line: a fixed "model" cost per request.
WORK = 300


def reply_tuples(line: str) -> list[tuple[str, ...]]:
    """Non-frame concepts become objects; each frame links two objects, or
    becomes an attribute of the only object."""
    concepts = _CONCEPT.findall(line)
    objects = [c for c in concepts if not _FRAME.search(c)]
    lemmas = [c[:-3] for c in concepts if _FRAME.search(c)]
    tuples: list[tuple[str, ...]] = [(o,) for o in objects]
    n = len(objects)
    for i, lemma in enumerate(lemmas):
        if n >= 2:
            tuples.append((objects[i % n], lemma, objects[(i + 1) % n]))
        elif n == 1:
            tuples.append((objects[0], lemma))
    return tuples


def render(tuples: list[tuple[str, ...]]) -> str:
    return " ".join("( " + " , ".join(t) + " )" for t in tuples)


def main() -> None:
    for line in sys.stdin:
        x = 0
        for i in range(WORK):
            x += i
        sys.stdout.write(render(reply_tuples(line)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
