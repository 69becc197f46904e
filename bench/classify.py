"""The two classification workloads: how many expansions a point has.

Inputs are canonical eventually periodic words (primitive period, shortest
preperiod) with preperiod length 0..6 and period length 1..4, the shapes
that acceptance criterion 8 draws.  Each block of inputs holds one word of
every shape (and field), in a fixed order; the seed shuffles the words of
each shape, which are then drawn without replacement.  A stratified sample
like this keeps the share of easy points nearly equal from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from betaforge import (
    PeriodicWord,
    apply_digits,
    bfs_expansions,
    count_expansions,
    eval_word,
    golden_field,
    q2_field,
    qf_field,
    reflect_point,
    viable_prefix_counts,
)

SHAPES = tuple((pre, per) for pre in range(7) for per in range(1, 5))

# acceptance caps, as in criteria 7 and 8
Q2_CAPS = {"max_steps": 250, "max_nodes": 64}
Q2_MAX_COUNT = 256
# Pisot graphs are finite under the default caps, but enumeration keeps
# every frontier path: a point with no reachable terminal grows 2^depth of
# them, so the listing gets an explicit depth limit.
PISOT_MAX_DEPTH = 12
ORACLE_DEPTH = 40


@dataclass(frozen=True)
class Point:
    field: str
    word: PeriodicWord
    x: object  # AlgebraicReal


@dataclass(frozen=True)
class Answer:
    cardinality: object  # Cardinality
    words: tuple  # sorted PeriodicWords
    complete: bool


def _primitive(per: tuple[int, ...]) -> bool:
    n = len(per)
    return not any(n % k == 0 and per == per[:k] * (n // k) for k in range(1, n))


def canonical_words(pre_len: int, per_len: int) -> list[PeriodicWord]:
    """Every canonical word of this shape: a primitive period, and a
    preperiod (if any) whose last digit differs from the period's last."""
    words = []
    for per in itertools.product((0, 1), repeat=per_len):
        if not _primitive(per):
            continue
        for body in itertools.product((0, 1), repeat=max(pre_len - 1, 0)):
            words.append(PeriodicWord(body + (1 - per[-1],) if pre_len else (), per))
    return words


class Classify:

    def __init__(self, fields: tuple[str, ...], caps: dict, enumerate_all: bool):
        self.fields = fields
        self.caps = caps
        self.enumerate_all = enumerate_all
        # inputs come in blocks of one word of every shape and field
        self.block = len(SHAPES) * len(fields)

    def setup(self) -> None:
        for name in self.fields:
            _field(name)

    def inputs(self, seed: int) -> Iterator[Point]:
        rng = random.Random(seed)
        pools = {(shape, name): [] for shape in SHAPES for name in self.fields}
        while True:
            for (shape, name), pool in pools.items():
                if not pool:
                    pool.extend(canonical_words(*shape))
                    rng.shuffle(pool)
                word = pool.pop()
                yield Point(name, word, eval_word(word, _field(name)))

    def label(self, point: Point) -> str:
        return point.field

    def run(self, point: Point) -> Answer:
        """What ``betaforge count`` and ``betaforge enumerate`` compute: the
        cardinality, and the listing sorted lexicographically."""
        card = count_expansions(point.x, **self.caps)
        if self.enumerate_all:
            words, complete = bfs_expansions(point.x, max_depth=PISOT_MAX_DEPTH, **self.caps)
        elif card.kind == "finite":
            words, complete = bfs_expansions(point.x, max_count=Q2_MAX_COUNT, **self.caps)
        else:
            words, complete = [], False
        return Answer(card, tuple(sorted(words)), complete)

    @staticmethod
    def decided(answer: Answer) -> bool:
        return answer.cardinality.kind != "lower_bound"

    def check(self, point: Point, answer: Answer) -> str | None:
        """Why the answer is wrong, or None."""
        card, words = answer.cardinality, answer.words
        if card.kind == "lower_bound":
            return None if card.count >= 1 else f"{card} is not a floor of an in-domain point"
        if len(set(words)) != len(words):
            return "the listing repeats a word"
        stray = _first_non_expansion(point.x, words)
        if stray is not None:
            return f"listed word {stray} does not evaluate to x"
        y = reflect_point(point.x)
        card_y = count_expansions(y, **self.caps)
        if card_y.kind != "lower_bound" and card_y != card:
            return f"{card} but the reflected point has {card_y}"
        if card.kind != "finite":
            return "an infinite expansion set listed as complete" if answer.complete else None
        k = card.count
        if not answer.complete or len(words) != k:
            return f"{card} but a listing of {len(words)} words (complete={answer.complete})"
        if point.word not in words:
            return f"{card} listing misses the drawn word {point.word}"
        words_y, _ = bfs_expansions(y, max_count=Q2_MAX_COUNT, **self.caps)
        if sorted(words_y) != sorted(w.reflected() for w in words):
            return "the listing of the reflected point is not the reflected listing"
        oracle = viable_prefix_counts(point.x, ORACLE_DEPTH)[-1]
        if oracle != k:
            return f"{card} but the prefix oracle counts {oracle} at depth {ORACLE_DEPTH}"
        return None


def _field(name: str):
    return {"q2": q2_field, "qf": qf_field, "golden": golden_field}[name]()


def _first_non_expansion(x, words):
    """The first word that is not an expansion of x, or None.

    Exact, by the digit maps alone: a word is an expansion of x when its
    preperiod carries x to some y and its period carries y back to y.  The
    images of shared prefixes are computed once."""
    images = {(): x}
    for word in words:
        pre = word.preperiod
        k = len(pre)
        while pre[:k] not in images:
            k -= 1
        y = images[pre[:k]]
        for i in range(k, len(pre)):
            y = apply_digits(y, pre[i:i + 1])
            images[pre[:i + 1]] = y
        if apply_digits(y, word.period) != y:
            return word
    return None


WORKLOADS = {
    "classify-q2": Classify(("q2",), Q2_CAPS, enumerate_all=False),
    "classify-pisot": Classify(("qf", "golden"), {}, enumerate_all=True),
}
