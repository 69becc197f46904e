"""Every listing or count of ``betaforge`` over the small canonical words.

For each canonical word with preperiod <= 3 and period <= 3, on qf and
golden (default limits) and on q2 (--max-steps 250 --max-nodes 64), this
prints the word, the exit code, and what ``main([command, ...])`` wrote to
stdout and stderr, in process.  The command is the first argument:
``enumerate`` (the default) lists each word's expansions; ``count`` prints
``count --format json`` for each word, then for the word's value plus one;
``eval`` prints ``eval --format json --digits 30`` the same two ways.
demos/expected/enumerate.txt, count.txt and eval.txt hold the output, which
CI diffs against, so a change to the listings, their order, the counts,
their kinds and limits, the completeness they report, or a word's exact
value and its decimal shows up line by line:

    PYTHONPATH=src python demos/enumerate_listings.py | diff demos/expected/enumerate.txt -
    PYTHONPATH=src python demos/enumerate_listings.py count | diff demos/expected/count.txt -
    PYTHONPATH=src python demos/enumerate_listings.py eval | diff demos/expected/eval.txt -
"""

import contextlib
import io
import itertools
import os
import sys

from betaforge import PeriodicWord
from betaforge.cli import main

RUNS = (
    ("qf", ()),
    ("golden", ()),
    ("q2", ("--max-steps", "250", "--max-nodes", "64")),
)
# the argument lists each command runs per word, after the word
VARIANTS = {
    "enumerate": ((),),
    "count": (("--format", "json"), ("--format", "json", "--plus-one")),
    "eval": (("--format", "json", "--digits", "30"),
             ("--format", "json", "--digits", "30", "--plus-one")),
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
    os.environ.pop("BETAFORGE_LIMITS", None)
    words = canonical_words()
    for spec, caps in RUNS:
        for w in words:
            for extra in VARIANTS[command]:
                code, out, err = main_text([command, str(w), "--field", spec, *caps, *extra])
                plus = " --plus-one" if "--plus-one" in extra else ""
                print(f"== {spec} {w}{plus} exit {code}")
                print(out, end="")
                for line in err.splitlines():
                    print(f"stderr: {line}")


if __name__ == "__main__":
    command = sys.argv[1] if len(sys.argv) > 1 else "enumerate"
    if command not in VARIANTS:
        sys.exit(f"usage: enumerate_listings.py [{'|'.join(VARIANTS)}]")
    run(command)
