"""Reference data tied to the standard labeling of the 27 lines on the
Fermat cubic z0^3 + z1^3 + z2^3 + z3^3 = 0.

Each line is the row span of two basis points whose entries live in
{0, 1, -1, zeta, zeta^5} with zeta = exp(i*pi/3) (so zeta^3 = -1).  Lines
1..12 form one coordinate-symmetry orbit, 13..24 a second, and 25..27 the
tritangent that lies on every coordinate-symmetric cubic surface.

The permutation tables below are all written against this labeling:

* WEYL_GENERATOR_CYCLES are the declared generators of the full automorphism
  group of the line incidence graph (order 51840).  The group's table is
  computed from the graph (``lines.graph_automorphisms``); the program only
  checks that these lie in it, and a test closes them to the same table.
* COORDINATE_TRANSPOSITION_CYCLES / COORDINATE_FOUR_CYCLE_CYCLES generate the
  order-24 group induced by permuting the four ambient coordinates.
* SIGMA1/SIGMA2 generate the Klein group of double transpositions inside the
  coordinate action; TAU1/TAU2 generate a complementary Klein group.  Together
  they generate the order-16 pointwise stabilizer-normalizer intersection.
* The symmetric-family monodromy group is {id, tau1, sigma1*tau2,
  sigma1*tau1*tau2} with products taken of the generators above (the factors
  commute, so the composition order is immaterial).
"""

from __future__ import annotations

# 27 rows of (w-direction point, z-direction point); "z" is zeta, "Z" is zeta^5.
FERMAT_LINE_BASIS: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = (
    (("1", "-1", "0", "0"), ("0", "0", "1", "z")),   # 1
    (("1", "-1", "0", "0"), ("0", "0", "1", "Z")),   # 2
    (("1", "z", "0", "0"), ("0", "0", "1", "-1")),   # 3
    (("1", "Z", "0", "0"), ("0", "0", "1", "-1")),   # 4
    (("1", "0", "z", "0"), ("0", "1", "0", "-1")),   # 5
    (("1", "0", "Z", "0"), ("0", "1", "0", "-1")),   # 6
    (("1", "0", "-1", "0"), ("0", "1", "0", "z")),   # 7
    (("1", "0", "-1", "0"), ("0", "1", "0", "Z")),   # 8
    (("1", "0", "0", "z"), ("0", "1", "-1", "0")),   # 9
    (("1", "0", "0", "Z"), ("0", "1", "-1", "0")),   # 10
    (("1", "0", "0", "-1"), ("0", "1", "z", "0")),   # 11
    (("1", "0", "0", "-1"), ("0", "1", "Z", "0")),   # 12
    (("1", "z", "0", "0"), ("0", "0", "1", "z")),    # 13
    (("1", "z", "0", "0"), ("0", "0", "1", "Z")),    # 14
    (("1", "Z", "0", "0"), ("0", "0", "1", "z")),    # 15
    (("1", "Z", "0", "0"), ("0", "0", "1", "Z")),    # 16
    (("1", "0", "z", "0"), ("0", "1", "0", "z")),    # 17
    (("1", "0", "z", "0"), ("0", "1", "0", "Z")),    # 18
    (("1", "0", "Z", "0"), ("0", "1", "0", "z")),    # 19
    (("1", "0", "Z", "0"), ("0", "1", "0", "Z")),    # 20
    (("1", "0", "0", "z"), ("0", "1", "z", "0")),    # 21
    (("1", "0", "0", "z"), ("0", "1", "Z", "0")),    # 22
    (("1", "0", "0", "Z"), ("0", "1", "z", "0")),    # 23
    (("1", "0", "0", "Z"), ("0", "1", "Z", "0")),    # 24
    (("1", "-1", "0", "0"), ("0", "0", "1", "-1")),  # 25
    (("1", "0", "-1", "0"), ("0", "1", "0", "-1")),  # 26
    (("1", "0", "0", "-1"), ("0", "1", "-1", "0")),  # 27
)

# S4-symmetry orbits of the labels above.
ORBIT_FIRST = tuple(range(1, 13))
ORBIT_SECOND = tuple(range(13, 25))
ORBIT_TRITANGENT = (25, 26, 27)

WEYL_GENERATOR_CYCLES: tuple[str, ...] = (
    "(13,23)(14,19)(15,18)(16,22)(17,24)(20,21)",
    "(5,14)(7,15)(9,13)(11,16)(17,27)(21,26)",
    "(2,6)(4,8)(5,19)(7,18)(9,23)(11,20)(12,25)(16,21)(22,26)(24,27)",
    "(5,8)(6,7)(9,12)(10,11)(17,20)(21,24)",
    "(3,4)(5,10)(6,9)(7,12)(8,11)(13,15)(14,16)(17,24)(18,23)(19,22)(20,21)(26,27)",
    "(1,2)(5,9)(6,10)(7,11)(8,12)(13,14)(15,16)(17,21)(18,22)(19,23)(20,24)(26,27)",
)

COORDINATE_TRANSPOSITION_CYCLES = (
    "(3,4)(5,11)(6,12)(7,9)(8,10)(13,15)(14,16)(17,21)(18,23)(19,22)(20,24)(26,27)"
)
COORDINATE_FOUR_CYCLE_CYCLES = (
    "(1,11,3,10)(2,12,4,9)(5,8,6,7)(13,23)(14,24,15,21)(16,22)(17,18,20,19)(25,27)"
)

SIGMA1_CYCLES = "(1,3)(2,4)(5,6)(7,8)(9,12)(10,11)(14,15)(17,20)(18,19)(21,24)"
SIGMA2_CYCLES = "(1,4)(2,3)(5,8)(6,7)(9,10)(11,12)(13,16)(17,20)(21,24)(22,23)"
TAU1_CYCLES = "(13,23)(14,19)(15,18)(16,22)(17,24)(20,21)"
TAU2_CYCLES = "(1,4)(2,3)(9,11)(10,12)(13,16)(22,23)"

# The six skew lines used for the reference Coxeter presentation, and the six
# reflection permutations that presentation must reproduce verbatim.
PRESENTATION_SIX = (1, 3, 10, 11, 16, 22)
PRESENTATION_GENERATOR_CYCLES: tuple[str, ...] = (
    "(1,8)(3,6)(9,26)(10,25)(13,21)(20,23)",
    "(1,3)(2,4)(5,7)(6,8)(14,15)(18,19)",
    "(2,12)(3,10)(5,27)(6,25)(14,17)(19,24)",
    "(5,8)(6,7)(9,12)(10,11)(17,20)(21,24)",
    "(5,14)(7,15)(9,13)(11,16)(17,27)(21,26)",
    "(13,23)(14,19)(15,18)(16,22)(17,24)(20,21)",
)
