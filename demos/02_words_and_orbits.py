"""Binary words, their values, and forced orbits.

A word like "01(10)*" is an eventually periodic digit stream; its value in
base q is sum(digit_i * q^-i).  Outside the switch region [1/q, 1/(q(q-1))]
the next digit of an expansion is forced, so iterating the forced branch
traces the unique continuation until the orbit branches, closes a cycle, or
runs out of budget.
"""

from betaforge import (
    SwitchHit,
    UniqueTail,
    deterministic_run,
    eval_word,
    parse_word,
    q2_field,
    reflect_word,
    region,
    to_decimal,
)


def show_orbit(text, plus_one=False):
    F = q2_field()
    x = eval_word(parse_word(text), F)
    if plus_one:
        x = x + 1
    out = deterministic_run(x, max_steps=500)
    # out.orbit holds the value before each forced digit, then the stop value
    trail = [f"{to_decimal(v, 6)} ({region(v)}) ->{d}"
             for v, d in zip(out.orbit, out.segment)]
    trail.append(f"{to_decimal(out.orbit[-1], 6)} ({region(out.orbit[-1])})")
    label = f"({text})+1" if plus_one else text
    if isinstance(out.end, SwitchHit):
        end = "[branches here]"
    elif isinstance(out.end, UniqueTail):
        end = f"[unique tail {out.end.tail_word}]"
    else:
        end = "[step limit]"
    print(f"{label:>14}: " + "  ".join(trail) + f"  {end}")


def main():
    F = q2_field()

    # parsing and canonical form: (...)^n repeats, (...)* is the periodic tail
    w = parse_word("1(0000)^2 0(10)*")
    print("parsed       :", w)
    print("first digits :", w.digits(14))
    print("value        :", to_decimal(eval_word(w, F), 6))

    # distinct spellings of the same stream canonicalize identically
    print("canonical    :", parse_word("0110(10)*"), "==", parse_word("011(01)*"))

    # reflection complements every digit and mirrors the domain
    print("reflected    :", reflect_word(w))

    print()
    print("forced orbits in the quartic base (6-decimal prints, exact engine):")
    show_orbit("00(01)*", plus_one=True)   # two forced steps into the switch region
    show_orbit("000(01)*", plus_one=True)  # closes a cycle: unique expansion
    show_orbit("(10)*")                    # already periodic, never branches
    show_orbit("01(10)*")                  # starts inside the switch region


if __name__ == "__main__":
    main()
