"""Word balls of a Schottky group and transverse decompositions.

The rational Schottky pair diag(4, 1/4) and its conjugate generate a
free group; exact deduplication certifies freeness up to the enumerated
radius by pure counting.  Every ball element then factors into pieces of
displacement about R with controlled additivity defects, by cutting its
geodesic and snapping the cut points to the orbit.
"""

from cartanlab import RankOneModel, decompose, displacement, inclusion, word_ball
from cartanlab.transverse import orbit_data

from cartanlab.surrogates import schottky_sl2_presentation

# ---------------------------------------------------------------------------
# 1. enumerate the ball and certify freeness by counting
P = schottky_sl2_presentation()
phi = inclusion(P)
for radius in range(5):
    ball = word_ball(P, phi, radius)
    free_count = 1 + sum(4 * 3 ** (k - 1) for k in range(1, radius + 1))
    print(f"radius {radius}: {len(ball):4d} distinct matrices "
          f"(free-group count {free_count})")

# ---------------------------------------------------------------------------
# 2. decompose every ball-5 element
M = RankOneModel.sl2_real()
R = displacement(P.generators[0], M)  # generator displacement = 2 log 4
print(f"\nsubdivision length R = {R:.4f}")

orbit = orbit_data(P, phi, M, 5)
worst_gap, worst_d, pieces = 0.0, 0.0, []
for e in orbit.ball.entries:
    if len(e.word) == 0:
        continue
    dec = decompose(e.word, P, M, R, phi=phi, orbit=orbit)
    assert dec.accepted
    pieces.append(len(dec.factors))
    worst_d = max(worst_d, dec.d_achieved)
    for gap in dec.gap_defects:
        worst_gap = min(worst_gap, gap)
    assert dec.d_achieved <= dec.predicted_ceiling + 1e-9

print(f"decomposed {len(pieces)} elements; factor counts up to {max(pieces)}")
print(f"worst additivity defect : {worst_gap:.4f}")
print(f"max measured constant D : {worst_d:.4f} (every run below its ceiling)")

# ---------------------------------------------------------------------------
# 3. the exact cyclic case: subdivision on a common axis is lossless
from fractions import Fraction as F  # noqa: E402
from cartanlab import Presentation, parse_word, special_linear, REAL  # noqa: E402

Pc = Presentation(["a"], [[[F(4), 0], [0, F(1, 4)]]], special_linear(2, REAL))
dec = decompose(parse_word("a^6", ["a"]), Pc, M,
                displacement(Pc.generators[0], M) * 2)
print(f"\ncyclic a^6 at R = 2|a|: factors "
      f"{[w.format(['a']) for w in dec.factors]}, D_achieved = {dec.d_achieved}")
