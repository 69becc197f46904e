"""Every listing of ``betaforge enumerate`` over the small canonical words.

For each canonical word with preperiod <= 3 and period <= 3, on qf and
golden (default limits) and on q2 (--max-steps 250 --max-nodes 64), this
prints the word, the exit code, and what ``main(["enumerate", ...])`` wrote
to stdout and stderr, in process.  demos/expected/enumerate.txt holds the
output, which CI diffs against, so a change to the listings, their order,
or the completeness they report shows up line by line:

    PYTHONPATH=src python demos/enumerate_listings.py | diff demos/expected/enumerate.txt -
"""

import contextlib
import io
import itertools
import os

from betaforge import PeriodicWord
from betaforge.cli import main

RUNS = (
    ("qf", ()),
    ("golden", ()),
    ("q2", ("--max-steps", "250", "--max-nodes", "64")),
)


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


def run() -> None:
    os.environ.pop("BETAFORGE_LIMITS", None)
    words = canonical_words()
    for spec, caps in RUNS:
        for w in words:
            code, out, err = main_text(["enumerate", str(w), "--field", spec, *caps])
            print(f"== {spec} {w} exit {code}")
            print(out, end="")
            for line in err.splitlines():
                print(f"stderr: {line}")


if __name__ == "__main__":
    run()
