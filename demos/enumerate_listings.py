"""Every listing, count, value, region or orbit of ``betaforge`` over the
small canonical words.

For each canonical word with preperiod <= 3 and period <= 3, on qf and
golden (default limits) and on q2 (--max-steps 250 and --max-nodes 64,
each given to the commands that read it), this prints the word, the exit
code, and what ``main([command, ...])`` wrote to stdout and stderr, in
process.  The command is the first argument:
``enumerate`` (the default) lists each word's expansions; ``count`` prints
``count --format json`` for each word, then for the word's value plus one;
``eval`` prints ``eval --format json --digits 30`` the same two ways;
``region`` prints ``region`` in text and JSON, each with and without
``--plus-one``; ``orbit`` prints ``orbit`` in text, JSON and CSV, each with
and without ``--plus-one``, then in JSON with ``--max-steps 3``, which ends
most runs at the step limit (exit 3).  Each header names the arguments
that tell the command's variants apart.  demos/expected/enumerate.txt,
count.txt, eval.txt, region.txt and orbit.txt hold the output, which CI
diffs against, so a change to the listings, their order, the counts, their
kinds and limits, the completeness they report, a word's exact value and
its decimal, its region, or its orbit and how the orbit ends shows up line
by line:

    PYTHONPATH=src python demos/enumerate_listings.py | diff demos/expected/enumerate.txt -
    PYTHONPATH=src python demos/enumerate_listings.py count | diff demos/expected/count.txt -
    PYTHONPATH=src python demos/enumerate_listings.py eval | diff demos/expected/eval.txt -
    PYTHONPATH=src python demos/enumerate_listings.py region | diff demos/expected/region.txt -
    PYTHONPATH=src python demos/enumerate_listings.py orbit | diff demos/expected/orbit.txt -
"""

import contextlib
import io
import itertools
import os
import sys

from betaforge import PeriodicWord
from betaforge.cli import build_parser, main

# each field and its caps, a cap given only to the commands that read it
RUNS = (
    ("qf", ()),
    ("golden", ()),
    ("q2", (("--max-steps", "250"), ("--max-nodes", "64"))),
)
# the argument lists each command runs per word, after the word
VARIANTS = {
    "enumerate": ((),),
    "count": (("--format", "json"), ("--format", "json", "--plus-one")),
    "eval": (("--format", "json", "--digits", "30"),
             ("--format", "json", "--digits", "30", "--plus-one")),
    "region": ((), ("--plus-one",), ("--format", "json"), ("--format", "json", "--plus-one")),
    "orbit": ((), ("--plus-one",), ("--format", "json"), ("--format", "json", "--plus-one"),
              ("--format", "csv"), ("--format", "csv", "--plus-one"),
              ("--format", "json", "--max-steps", "3")),
}


def canonical_words(max_pre: int = 3, max_per: int = 3) -> list[PeriodicWord]:
    """The canonical words with preperiod <= max_pre and period <= max_per,
    by preperiod length, period length, then digits."""
    out = []
    for m in range(max_pre + 1):
        for n in range(1, max_per + 1):
            for pre in itertools.product((0, 1), repeat=m):
                for per in itertools.product((0, 1), repeat=n):
                    w = PeriodicWord(pre, per)
                    if w.preperiod == pre and w.period == per:
                        out.append(w)
    return out


def main_text(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run(command: str = "enumerate") -> None:
    words = canonical_words()
    variants = VARIANTS[command]
    # the header leaves out the arguments that every variant starts with
    shared = len(os.path.commonprefix(variants))
    options = build_parser().word_tables[command]
    for spec, caps in RUNS:
        read = [arg for cap in caps if cap[0] in options for arg in cap]
        for w in words:
            for extra in variants:
                code, out, err = main_text([command, str(w), "--field", spec, *read, *extra])
                label = "".join(f" {arg}" for arg in extra[shared:])
                print(f"== {spec} {w}{label} exit {code}")
                print(out, end="")
                for line in err.splitlines():
                    print(f"stderr: {line}")


if __name__ == "__main__":
    command = sys.argv[1] if len(sys.argv) > 1 else "enumerate"
    if command not in VARIANTS:
        sys.exit(f"usage: enumerate_listings.py [{'|'.join(VARIANTS)}]")
    run(command)
