"""The paper reproduction: ``verify --profile quick``, one check per op.

Each op is ``run_all("quick", [check_id])``, the call behind
``betaforge verify <check_id>``.  The checks run in the suite's own order;
a block of inputs is one pass.  The seed has no effect: the inputs are the
frozen fixtures.  Every check must pass with the witness text recorded in
``verify_quick_witnesses.json``, because the suite's output is frozen.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from betaforge import golden_field, q2_field, qf_field
from betaforge.verify import run_all

WITNESSES = json.loads((Path(__file__).with_name("verify_quick_witnesses.json")).read_text())


@dataclass(frozen=True)
class Answer:
    status: str
    witness: str


class VerifyQuick:
    block = len(WITNESSES)  # one pass of the suite

    def setup(self) -> None:
        q2_field(), qf_field(), golden_field()

    def inputs(self, seed: int) -> Iterator[str]:
        return itertools.cycle(WITNESSES)

    def label(self, check_id: str) -> str:
        return check_id

    def run(self, check_id: str) -> Answer:
        (result,) = run_all("quick", [check_id])
        return Answer(result.status, result.witness)

    @staticmethod
    def decided(answer: Answer) -> bool:
        return True

    def check(self, check_id: str, answer: Answer) -> str | None:
        status, witness = WITNESSES[check_id]
        if answer.status != status:
            return f"status {answer.status}, expected {status}: {answer.witness}"
        if answer.witness != witness:
            return f"witness changed: {answer.witness!r}"
        return None


WORKLOADS = {"verify-quick": VerifyQuick()}
