"""Frozen reference data for the verification suite.

Every decimal string below is data the checks in :mod:`betaforge.verify`
must reproduce by computation -- the strings are never derived from the
engine and never edited to match it.  Orbit tables list, for a starting
value (word value + 1) in the quartic base, the successive forced iterates
printed at six decimals (one row ends with a seven-decimal entry, compared
at the same +/-1e-6 tolerance).  Rows whose value has a single expansion
carry the UNIQUE marker instead of iterates.
"""

from __future__ import annotations

# marker for rows whose starting value never reaches the branching region
UNIQUE = "unique"

# -- base constants ---------------------------------------------------------

# the quartic base: the root of x^4 = 2x^2 + x + 1 in (1, 2), at 15 decimals
Q2_DECIMALS_15 = "1.710644095045033"
# the quartic companion base: the root of x^4 = x^3 + x^2 + 1 in (1, 2)
# (equivalently of x^3 = 2x^2 - x + 1), at 5 decimals
QF_DECIMALS_5 = "1.75488"

# branching region [1/q, 1/(q(q-1))] of the quartic base, at 6 decimals
SWITCH_LO_6 = "0.584575"
SWITCH_HI_6 = "0.822599"

# -- the two double-expansion branch values ---------------------------------

# word pairs with equal value: the only two points of the branching region
# carrying exactly two expansions
EPS1 = "01(10)*"
EPS2 = "10000(10)*"
EPS3 = "0111(10)*"
EPS4 = "100(10)*"
EPS1_VALUE_6 = "0.645198"
EPS3_VALUE_6 = "0.761976"

# -- counting family in the companion base ----------------------------------

# the point 1/q, whose expansion set is countably infinite; its first six
# expansions in discovery order (fewest branch decisions first)
ALEPH0_WORD = "1(0)*"
ALEPH0_FIRST_SIX = (
    "1(0)*",
    "010(1)*",
    "01101(0)*",
    "0110010(1)*",
    "011001101(0)*",
    "01100110010(1)*",
)

# the three expansions of the k = 3 member of the counting family
X3_EXPANSIONS = (
    "011001(10)*",
    "011010000(01)*",
    "100000000(01)*",
)

# -- orbit identity targets (five-decimal prose values) ----------------------

TARGET_A_5 = "0.59282"
TARGET_B_5 = "0.81434"

# -- iterate tables ----------------------------------------------------------

# starting values (0^k(01)*) + 1, k = 1..6, then the limit row
TABLE_T1 = (
    ("0(01)*", UNIQUE),
    ("00(01)*", ("1.177400", "1.014114", "0.734788")),
    ("000(01)*", UNIQUE),
    ("0000(01)*", ("1.060622", "0.8143482")),
    ("00000(01)*", ("1.035438", "0.771266")),
    ("000000(01)*", ("1.020716", "0.746082")),
    ("(0)*", ("1", "0.710644")),
)

# starting values (0^k 01(10)*) + 1, k = 1..6, then the limit row
TABLE_T2 = (
    ("001(10)*", ("1.377166", "1.355842", "1.319363", "1.256961",
                  "1.150213", "0.967605", "0.655228")),
    ("0001(10)*", ("1.220482", "1.087810", "0.860857", "0.472620",
                   "0.808484")),
    ("00001(10)*", ("1.128888", "0.931126", "0.592825")),
    ("000001(10)*", ("1.075344", "0.839532", "0.436141", "0.746082")),
    ("0000001(10)*", ("1.044044", "0.785989")),
    ("00000001(10)*", ("1.025747", "0.754688")),
    ("(0)*", ("1", "0.710644")),
)

# starting values (0^k 0111(10)*) + 1 for k = 2..7 with the limit row,
# followed by the bounded-j rows of the remaining parameter families
TABLE_T3 = (
    ("000111(10)*", ("1.260388", "1.156076", "0.977635", "0.672385")),
    ("0000111(10)*", ("1.152216", "0.971032", "0.661091")),
    ("00000111(10)*", ("1.088982", "0.862860", "0.476047", "0.814348")),
    ("000000111(10)*", ("1.052016", "0.799626")),
    ("0000000111(10)*", ("1.030407", "0.762660")),
    ("00000000111(10)*", ("1.017775", "0.741051")),
    ("(0)*", ("1", "0.710644")),
    ("000101(10)*", ("1.192123", "1.039298", "0.777869")),
    ("00010101(10)*", ("1.182431", "1.022720", "0.749510")),
    ("00(01)*", ("1.177400", "1.014114", "0.734788")),
    ("00000101(10)*", ("1.065653", "0.822954", "0.407782", "0.697570")),
    ("0000010101(10)*", ("1.062342", "0.817289")),
    ("0000(01)*", ("1.060622", "0.814348")),
    ("000000101(10)*", ("1.038379", "0.776297")),
    ("00000(01)*", ("1.035438", "0.771266")),
    ("0000000101(10)*", ("1.022435", "0.749023")),
    ("000000(01)*", ("1.020716", "0.746082")),
    ("000100111(10)*", ("1.168794", "0.999391", "0.709603")),
    ("000(10)*", ("1.177400", "1.014114", "0.734788")),
    ("00000100111(10)*", ("1.057681", "0.809317")),
    ("00000(10)*", ("1.060622", "0.814348")),
    ("000000100111(10)*", ("1.033719", "0.768326")),
    ("000000(10)*", ("1.035438", "0.771266")),
    ("0000000100111(10)*", ("1.019711", "0.744363")),
    ("0000000(10)*", ("1.020716", "0.746082")),
)

# the three parameter pairs not settled by the orbit identities
TABLE_T4 = (
    ("00101(10)*", ("1.328654", "1.272854", "1.177400", "1.014114",
                    "0.734788")),
    ("0010101(10)*", ("1.312076", "1.244495", "1.128888", "0.931126",
                      "0.592825")),
    ("00100111(10)*", ("1.288747", "1.204588", "1.060622", "0.814348")),
)

TABLES = {"T1": "TABLE_T1", "T2": "TABLE_T2", "T3": "TABLE_T3",
          "T4": "TABLE_T4"}

# -- profiles ----------------------------------------------------------------

# verification profiles: profile -> (k_max, j_max), the largest k and j of
# the parameter families the checks run
PROFILES = {"quick": (8, 8), "full": (50, 50)}
