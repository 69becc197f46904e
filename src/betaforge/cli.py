"""Command-line front end: the subcommands eval, region, orbit, count,
enumerate and verify.

Each command holds only the options it reads (``build_parser``) and returns
its answer; ``main`` alone writes it, to stdout, and to stderr only the note
of an incomplete answer or an error.  The options, the output and the exit
codes are set out in README's *Output, limits, exit codes*.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from .branching import (
    DEFAULT_MAX_COUNT,
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_NODES,
    DEFAULT_MAX_STEPS,
    Count,
    OutsideDomain,
    SwitchHit,
    UniqueTail,
    _listing,
    count_expansions,
    deterministic_run,
)
from .numberfield import (
    BaseField,
    ReduciblePolynomial,
    define_field,
    golden_field,
    q2_field,
    qf_field,
    to_decimal,
)
from .fixtures import PROFILES
from .words import EmptyWordError, Region, WordSyntaxError, eval_word, parse_word, region

# well inside Python's int-to-str limit (4300 digits), and a bound on the
# work of scaling a value by 10**digits
MAX_DIGITS = 1000

_FIELD_ALIASES = {"q2": q2_field, "qf": qf_field, "golden": golden_field}
# bounds on a poly: spec, checked on its text before any arithmetic: the
# degree, the digits of each coefficient and of each interval bound, and a
# bound's decimal exponent, read without its '_' separators (1e200000 and
# 1e200_000 alike are a 200,001-digit integer)
_MAX_FIELD_DEGREE = 64
_MAX_SPEC_DIGITS = 100
_MAX_SPEC_EXPONENT = 100


class UsageError(Exception):
    """Bad input that maps to exit code 2."""


def _parse_field(spec: str) -> BaseField:
    if spec in _FIELD_ALIASES:
        return _FIELD_ALIASES[spec]()
    if spec.startswith("poly:"):
        body = spec[len("poly:"):]
        coeff_part, sep, interval_part = body.partition("@")
        if not sep:
            raise UsageError(
                f"field spec {spec!r} lacks '@lo,hi' (expected "
                "poly:c0,c1,...,1@lo,hi with ascending coefficients)")
        parts = coeff_part.split(",")
        if len(parts) - 1 > _MAX_FIELD_DEGREE:
            raise UsageError(f"field spec {spec!r} has degree above {_MAX_FIELD_DEGREE}")
        for text in parts:
            _check_digits(text, "a coefficient", spec)
        try:
            coeffs = tuple(int(c.strip()) for c in parts)
        except ValueError:
            raise UsageError(f"non-integer coefficient in field spec {spec!r}")
        bounds = interval_part.split(",")
        if len(bounds) != 2:
            raise UsageError(f"field spec {spec!r} needs exactly two interval bounds")
        for text in bounds:
            _check_digits(text, "an interval bound", spec)
            exponent = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
            if exponent.isdecimal() and int(exponent) > _MAX_SPEC_EXPONENT:
                raise UsageError(f"an interval bound in field spec {spec!r} has a decimal "
                                 f"exponent above {_MAX_SPEC_EXPONENT} in absolute value")
        try:
            lo, hi = (Fraction(b.strip()) for b in bounds)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"malformed interval bound in field spec {spec!r}")
        try:
            return define_field(coeffs, (lo, hi))
        except (ValueError, TypeError) as exc:
            raise UsageError(f"invalid field spec {spec!r}: {exc}")
    raise UsageError(
        f"unknown field {spec!r} (use q2, qf, golden, or poly:coeffs@lo,hi)")


def _check_digits(text: str, what: str, spec: str) -> None:
    if sum(c.isdecimal() for c in text) > _MAX_SPEC_DIGITS:
        raise UsageError(f"{what} in field spec {spec!r} has more than "
                         f"{_MAX_SPEC_DIGITS} digits")


def _require_expansion_base(field: BaseField, spec: str) -> None:
    """Expansions, regions and orbits are defined for bases in (1, 2) only;
    the field's domain bounds refuse any other base."""
    try:
        field.domain_bounds()
    except ValueError:
        lo, hi = field.interval()
        raise UsageError(
            f"field {spec!r} has base q in [{lo}, {hi}], outside (1, 2): "
            "region, orbit, count and enumerate need 1 < q < 2")


def _field_record(field: BaseField, spec: str) -> dict:
    lo, hi = field.interval()
    return {
        "spec": spec,
        "min_poly": list(field.min_poly),
        "interval": [str(lo), str(hi)],
    }


# ---------------------------------------------------------------------------
# subcommands: each word command runs on the word's value x (plus 1 under
# --plus-one) and, like verify, returns (exit code, output, note): output is
# a JSON record, the text to write (line ends included) or None, and note is
# the stderr line of an incomplete answer or None.  main writes both.


def _incomplete(limit: str | None) -> str | None:
    """The note of an answer that ``limit`` cut short, or None for no limit."""
    return limit and f"# incomplete: the {limit} limit was reached"


def _cmd_eval(args, x):
    try:
        exact = [str(c) for c in x.coeffs] if args.format == "json" else str(x)
    except ValueError:  # str() refuses an int longer than Python's int-to-str limit
        raise UsageError("the word's value has a coefficient past Python's int-to-str limit")
    if args.format == "json":
        return 0, {"field": _field_record(x.field, args.field), "coeffs": exact,
                   "decimal": to_decimal(x, args.digits), "digits": args.digits}, None
    return 0, f"{exact} / {to_decimal(x, args.digits)}\n", None


def _cmd_region(args, x):
    reg = region(x)
    if args.format == "json":
        return 0, {"decimal": to_decimal(x, args.digits), "region": str(reg)}, None
    return 0, f"{reg}\n", None


def _cmd_orbit(args, x):
    out = deterministic_run(x, max_steps=args.max_steps)
    # a forced digit names its region; only where the run stopped needs one
    regions = [Region.LOW if d == 0 else Region.HIGH for d in out.segment]
    regions.append(region(out.orbit[-1]))
    rows = [(i, d, to_decimal(v, args.digits), str(reg))
            for i, (v, d, reg) in enumerate(zip(out.orbit, (*out.segment, None), regions))]
    end = out.end
    if isinstance(end, SwitchHit):
        # the run stops on the switch value, so the last row already holds its decimal
        tag, code = "[SWITCH]", 0
        end_rec = {"kind": "switch", "decimal": rows[-1][2]}
    elif isinstance(end, UniqueTail):
        tag, code = f"[TAIL {end.tail_word}]", 0
        end_rec = {"kind": "unique_tail", "tail": str(end.tail_word)}
    else:  # StepLimit, the only other end
        tag, code = "[STEP LIMIT]", 3
        end_rec = {"kind": "step_limit", "steps": end.steps}

    if args.format == "json":
        return code, {"steps": [{"step": s, "digit": d, "decimal": dec, "region": reg}
                                for s, d, dec, reg in rows],
                      "end": end_rec}, None
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([("step", "digit", "decimal", "region"),
                                   *((s, "" if d is None else d, dec, reg)
                                     for s, d, dec, reg in rows)])
        return code, buf.getvalue(), None
    trace = " ".join(dec if d is None else f"{dec} →{d}" for _, d, dec, _ in rows)
    return code, f"{trace} {tag}\n", None


def _cmd_count(args, x):
    card = count_expansions(x, max_steps=args.max_steps, max_nodes=args.max_nodes)
    code = 3 if card.kind is Count.LOWER_BOUND else 0
    if args.format == "json":
        return code, {"cardinality": {"kind": card.kind, "count": card.count},
                      "display": str(card), "limit": card.limit}, None
    return code, f"{card}\n", _incomplete(card.limit)


def _cmd_enumerate(args, x):
    found, complete, limit = _listing(x, args.max_count, args.max_depth,
                                      args.max_steps, args.max_nodes)
    words = sorted(found)
    code = 0 if complete else 3
    if args.format == "json":
        return code, {"expansions": [str(w) for w in words], "complete": complete,
                      "limit": limit}, None
    note = _incomplete(limit) or (
        None if complete else "# incomplete: branches with no reachable unique tail were skipped")
    return code, "".join(f"{w}\n" for w in words), note


# word command -> (its handler, the bounds it reads, its help text)
_WORD_COMMANDS = {
    "eval": (_cmd_eval, ("--digits",), "exact value and decimal of a word"),
    "region": (_cmd_region, ("--digits",), "which region the word's value lies in"),
    "orbit": (_cmd_orbit, ("--digits", "--max-steps"),
              "forced-orbit trace until the branching region, a cycle, or the step limit"),
    "count": (_cmd_count, ("--max-steps", "--max-nodes"),
              "cardinality classification of the expansion set"),
    "enumerate": (_cmd_enumerate, ("--max-steps", "--max-nodes", "--max-depth", "--max-count"),
                  "expansions of the word's value, lexicographically sorted"),
}
# bound -> (its default, its help text)
_BOUNDS = {"--digits": (6, f"decimal digits to print (default 6, at most {MAX_DIGITS})"),
           "--max-steps": (DEFAULT_MAX_STEPS, None), "--max-nodes": (DEFAULT_MAX_NODES, None),
           "--max-depth": (DEFAULT_MAX_DEPTH, None), "--max-count": (DEFAULT_MAX_COUNT, None)}


def _cmd_verify(args):
    # the suite is imported here, so a word command never loads it
    from .verify import render_records, render_text, run_all

    check_ids = args.checks or None
    if check_ids and "all" in check_ids:
        check_ids = None
    try:
        results = run_all(args.profile, check_ids)
    except ValueError as exc:
        raise UsageError(str(exc))
    code = 0 if all(r.passed for r in results) else 1
    if args.format == "json":
        return code, render_records(results, profile=args.profile), None
    return code, render_text(results) + "\n", None


# ---------------------------------------------------------------------------
# parser


class _Unread(argparse.Action):
    """A bound its command does not read, held hidden so that argparse takes
    the bound's value with it and never the word: the call is refused
    naming the bound and its value."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"unrecognized arguments: {option_string} {values}")


class _Parser(argparse.ArgumentParser):
    """A parser whose abbreviations resolve among the options a command
    reads: a prefix unique among them names that option, whatever hidden
    bounds (``_Unread``) it also starts, and only a prefix that starts no
    read option may name an unread bound."""

    def _get_option_tuples(self, option_string):
        found = super()._get_option_tuples(option_string)
        return [t for t in found if not isinstance(t[0], _Unread)] or found


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls
    (parsing never mutates it).  Each word command holds, hidden, the
    bounds it does not read (``_Unread``).  The parser's ``word_tables``
    attribute maps each word command to the table ``_scan`` reads, built
    from the actions that ``add_argument`` returned for the options it
    reads."""
    parser = _Parser(
        prog="betaforge",
        description="Exact arithmetic for binary expansions in non-integer bases.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.word_tables = {}
    for name, (_, bounds, text) in _WORD_COMMANDS.items():
        command = sub.add_parser(name, help=text)
        formats = ("text", "json", "csv") if name == "orbit" else ("text", "json")
        actions = [
            command.add_argument("--field", default="q2",
                                 help="base field: q2, qf, golden, or poly:coeffs@lo,hi "
                                      "(ascending integer coefficients, monic)"),
            command.add_argument("--format", default="text", choices=formats,
                                 help="output format"),
            *(command.add_argument(bound, type=int, default=_BOUNDS[bound][0],
                                   help=_BOUNDS[bound][1]) for bound in bounds),
            command.add_argument("word", help="binary word, e.g. '00(01)*' or '1(0000)^2 0(10)*'"),
            command.add_argument("--plus-one", action="store_true",
                                 help="add 1 to the word's value before the command runs"),
        ]
        for bound in (b for b in _BOUNDS if b not in bounds):
            command.add_argument(bound, action=_Unread, default=argparse.SUPPRESS,
                                 help=argparse.SUPPRESS)
        # each option string the command reads, to its action
        parser.word_tables[name] = {option: action for action in actions
                                    for option in action.option_strings}
    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("--format", default="text", choices=("text", "json"),
                          help="output format")
    p_verify.add_argument("checks", nargs="*",
                          help="check ids to run (default: all)")
    p_verify.add_argument("--profile", default="quick", choices=sorted(PROFILES),
                          help="parameter bounds: quick (k,j <= 8) or full (k,j <= 50)")
    return parser


def _scan(argv: list[str], table) -> argparse.Namespace | None:
    """The namespace of a word command's call, read left to right against
    the command's own table, or None for any call outside the plain shape:
    an exact option string of the command followed by a value that does
    not begin with '-' and that the option's type and choices accept, the
    --plus-one flag, and exactly one word."""
    # the defaults argparse starts the namespace from; the word has none
    values = {action.dest: action.default for action in table.values()}
    tokens = iter(argv[1:])
    for token in tokens:
        action = table.get(token)
        if action is None:
            if token[:1] == "-" or "word" in values:
                return None
            values["word"] = token
        elif action.nargs == 0:
            values[action.dest] = action.const
        else:
            text = next(tokens, "-")  # a missing value reads as "-" and is turned down
            if text[:1] == "-":
                return None
            try:
                value = action.type(text) if action.type else text
            except (TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
    if "word" not in values:
        return None
    return argparse.Namespace(command=argv[0], **values)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a call.  A word command's call in the plain shape (see
    ``_scan``) is read in one scan of that command's table, with no
    argparse call.  Every other call (no arguments, -h, an unknown command,
    ``verify``, and every call the scan turns down, an option the command
    does not hold among them) goes to the top-level parser, so every help,
    usage and error text is argparse's own."""
    parser = build_parser()
    table = parser.word_tables.get(argv[0]) if argv else None
    args = None if table is None else _scan(argv, table)
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Run one call (``sys.argv[1:]`` when argv is None), write its output
    to stdout and its note or error to stderr, and return its exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)

    try:
        if args.command == "verify":
            code, output, note = _cmd_verify(args)
        else:
            # the call carries only the bounds its command reads
            if not 1 <= getattr(args, "digits", 1) <= MAX_DIGITS:
                raise UsageError(f"--digits must be between 1 and {MAX_DIGITS}")
            field = _parse_field(args.field)
            handler, bounds, _ = _WORD_COMMANDS[args.command]
            for bound in bounds:  # --digits passed the check above
                if getattr(args, bound[2:].replace("-", "_")) < 1:
                    raise UsageError(f"{bound} must be positive")
            # every word command but eval refuses a base outside (1, 2) before
            # it reads the word
            if args.command != "eval":
                _require_expansion_base(field, args.field)
            x = eval_word(parse_word(args.word), field)
            code, output, note = handler(args, x + 1 if args.plus_one else x)
            if isinstance(output, dict):
                # a word command's record opens with the word and whether 1
                # was added to its value
                output = {"word": args.word, "plus_one": args.plus_one, **output}
    except (UsageError, WordSyntaxError, EmptyWordError, OutsideDomain,
            ReduciblePolynomial) as exc:
        code, output, note = 2, None, f"betaforge: error: {exc}"
    if isinstance(output, dict):
        output = json.dumps(output) + "\n"
    if output:
        sys.stdout.write(output)
    if note:
        print(note, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
