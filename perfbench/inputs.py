"""Input documents and report sequences of the three workloads.

Every document is built from ``cartanlab.surrogates``; the workload seed
only picks which ball elements the ``proximal`` reports analyse.  The
same seed gives byte-identical documents (``write_inputs`` serialises
with sorted keys and no floats other than fixed decimal text).
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction as F

from cartanlab.serialize import matrix_to_json
from cartanlab.surrogates import (
    boost_Y_so22,
    schottky_sl2_matrices,
    schottky_sl2_presentation,
    schottky_so22_presentation,
    sym2_rational,
)
from cartanlab.wordgroups import inclusion, word_ball

# Report sizes.  Each one keeps the layer mix of its command and is cut
# so that a whole pass of a workload repeats several times per run.
STABILITY_RADIUS = 4
STABILITY_T = "0,0.01,0.1,0.3"
PROPERNESS_RADIUS = 5
CARTAN_RADIUS = 6  # 1457 SO(2,2) elements, and 1457 SL_2(Q_2) elements
POWERS_K = 15  # (ab)^k for k = 1..15; the length-30 word shows the mu defect
Z4Z_RADIUS = 10  # float ball 10799 vs exact 6136 at the seed commit
DECOMPOSE_RADIUS_REAL = 4
DECOMPOSE_RADIUS_PADIC = 3
PADIC_BALL_RADIUS = 6
PROXIMAL_ELEMENTS = 2
PROXIMAL_WORD_LENGTH = 4
BEND_M = (2, 3, 4)
BEND_T = "0,1e-3,0.01,0.1,0.3,1"

# float document -> its exact twin, which only the checker reads
EXACT_TWINS = {"z4z_float.json": "z4z_exact.json"}

REAL = {"kind": "real"}
Q2 = {"kind": "padic", "p": 2}
SL2 = {"family": "SL", "n": 2}


def _so(p, q):
    return {"family": "SO", "p": p, "q": q}


def _sl2_pres_doc(field):
    a, b = schottky_sl2_matrices()
    return {
        "field": field,
        "group": SL2,
        "generators": {"a": matrix_to_json(a), "b": matrix_to_json(b)},
        "structure": {"type": "free"},
    }


def _block_extension(mat3, m):
    """SO(2,1) matrix placed on coordinates (0, 1, m) of SO(m,2)."""
    n = m + 2
    idx = (0, 1, m)
    out = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(3):
        for j in range(3):
            out[idx[i]][idx[j]] = F(mat3[i][j])
    return out


def bend_doc(m):
    """The Schottky pair in SO(m,2) as a trivial-edge amalgam, bent by
    the (0, last) boost; m = 2 is the shipped SO(2,2) surrogate."""
    n = m + 2
    if m == 2:
        gens = [g.matrix for g in schottky_so22_presentation().generators]
        Y = boost_Y_so22()
    else:
        gens = [_block_extension(sym2_rational(x), m)
                for x in schottky_sl2_matrices()]
        Y = [[F(0)] * n for _ in range(n)]
        Y[0][n - 1] = Y[n - 1][0] = F(1)
    return {
        "field": REAL,
        "group": _so(m, 2),
        "generators": {"a": matrix_to_json(gens[0]),
                       "b": matrix_to_json(gens[1])},
        "structure": {"type": "amalgam", "side1": ["a"], "side2": ["b"],
                      "gamma0": []},
        "bending": {"Y": matrix_to_json(Y)},
    }


def z4z_matrices():
    """Exact generators (r, s) of Z/4 * Z in SO(2,1): the order-4
    rotation and the symmetric square of diag(4, 1/4)."""
    r = [[F(0), F(-1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    s = [list(row) for row in sym2_rational(((F(4), F(0)), (F(0), F(1, 4))))]
    return r, s


def z4z_doc(decimal):
    r, s = z4z_matrices()

    def enc(mat):
        if decimal:
            # every entry is a dyadic rational, so the decimal text is exact
            return [[repr(float(x)) for x in row] for row in mat]
        return matrix_to_json(mat)

    return {
        "field": REAL,
        "group": _so(2, 1),
        "generators": {"r": enc(r), "s": enc(s)},
        "structure": {"type": "free"},
        "relators": ["r^4"],
    }


def _ball_elements(P, radius):
    return word_ball(P, inclusion(P), radius).entries


def _matrix_doc(field, group, named):
    return {
        "field": field,
        "group": group,
        "ids": [name for name, _ in named],
        "matrices": [matrix_to_json(mat) for _, mat in named],
    }


def _word_id(word):
    return "".join(
        ("ab"[i] if e == 1 else "AB"[i]) for i, e in word.letters
    ) or "1"


def sl2_powers():
    """(name, matrix) of the exact Schottky words (ab)^k, k = 1..POWERS_K."""
    P = schottky_sl2_presentation()
    ab = P.generators[0] @ P.generators[1]
    out, g = [], ab
    for k in range(1, POWERS_K + 1):
        out.append((f"ab^{k}", g.matrix))
        g = g @ ab
    return out


def _cyclically_reduced(word):
    (i0, e0), (i1, e1) = word.letters[0], word.letters[-1]
    return (i0, e0) != (i1, -e1)


def proximal_words(seed):
    """The seeded choice of words of length PROXIMAL_WORD_LENGTH.

    Candidates are cyclically reduced and use both generators: the other
    words fail the eps test at once (attracting point too close to the
    repelling hyperplane) or are diagonal and take the closed form, so
    the seed would change how much sampling a pass does.
    """
    entries = [
        e for e in _ball_elements(schottky_sl2_presentation(),
                                  PROXIMAL_WORD_LENGTH)
        if len(e.word) == PROXIMAL_WORD_LENGTH
        and _cyclically_reduced(e.word)
        and len({i for i, _ in e.word.letters}) == 2
    ]
    picked = random.Random(seed).sample(entries, PROXIMAL_ELEMENTS)
    return [(_word_id(e.word), e.element.matrix) for e in picked]


def documents(workload, seed):
    """{file name: JSON document} of one workload."""
    if workload == "real":
        so22 = bend_doc(2)
        cone = dict(so22, cone={"matrices": [so22["generators"]["a"]]})
        ball = [(_word_id(e.word), e.element.matrix) for e in
                _ball_elements(schottky_so22_presentation(), CARTAN_RADIUS)]
        return {
            "so22_bend.json": so22,
            "so22_cone.json": cone,
            "so22_ball.json": _matrix_doc(REAL, _so(2, 2), ball),
            "sl2_powers.json": _matrix_doc(REAL, SL2, sl2_powers()),
            "z4z_float.json": z4z_doc(decimal=True),
            "z4z_exact.json": z4z_doc(decimal=False),
            "sl2.json": _sl2_pres_doc(REAL),
            "sl2_proximal.json": _matrix_doc(REAL, SL2, proximal_words(seed)),
        }
    if workload == "padic":
        ball = [(_word_id(e.word), e.element.matrix) for e in
                _ball_elements(schottky_sl2_presentation(), PADIC_BALL_RADIUS)]
        return {
            "sl2_q2.json": _sl2_pres_doc(Q2),
            "sl2_q2_ball.json": _matrix_doc(Q2, SL2, ball),
            "sl2_q2_proximal.json": _matrix_doc(Q2, SL2, proximal_words(seed)),
        }
    if workload == "bend":
        return {f"so{m}2_bend.json": bend_doc(m) for m in BEND_M}
    raise KeyError(workload)


def reports(workload):
    """The fixed report sequence of one pass: (report id, argv without
    --input/--output, input file name)."""
    if workload == "real":
        return [
            ("stability", ["stability", "--radius", str(STABILITY_RADIUS),
                           "--t", STABILITY_T], "so22_bend.json"),
            ("properness", ["properness", "--radius", str(PROPERNESS_RADIUS)],
             "so22_cone.json"),
            ("cartan_so22", ["cartan"], "so22_ball.json"),
            ("cartan_powers", ["cartan"], "sl2_powers.json"),
            ("ball_z4z", ["ball", "--radius", str(Z4Z_RADIUS)],
             "z4z_float.json"),
            ("decompose", ["decompose", "--radius",
                           str(DECOMPOSE_RADIUS_REAL)], "sl2.json"),
            ("proximal", ["proximal", "--eps", "0.1"], "sl2_proximal.json"),
        ]
    if workload == "padic":
        return [
            ("ball", ["ball", "--radius", str(PADIC_BALL_RADIUS)],
             "sl2_q2.json"),
            ("cartan", ["cartan"], "sl2_q2_ball.json"),
            ("decompose", ["decompose", "--radius",
                           str(DECOMPOSE_RADIUS_PADIC)], "sl2_q2.json"),
            ("proximal", ["proximal", "--eps", "0.1"],
             "sl2_q2_proximal.json"),
        ]
    if workload == "bend":
        return [
            (f"bend_so{m}2", ["bend", "--t", BEND_T], f"so{m}2_bend.json")
            for m in BEND_M
        ]
    raise KeyError(workload)


def write_inputs(workload, seed, directory):
    """Write the workload's documents; returns {file name: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, doc in documents(workload, seed).items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        paths[name] = path
    return paths


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_inputs(args.workload, args.seed, args.out)
