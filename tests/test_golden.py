"""Byte-level goldens of the ``ball``, ``cartan``, deformation and ``decompose`` reports.

The digests pin the CSV and sidecar that ``cartanlab ball`` writes for
two float presentations with tolerance merges: the decimal-float Z/4*Z
in SO(2,1) at r = 8 (the float twin the word-ball tests build), and a
complex Z/4*Z-like pair in SL(2, C) at r = 6.  Any change to the float
ball's entries, their order, the merge count or the cell text shows
here as a changed digest.  Two exact balls are pinned the same way: the
shipped Schottky pair in SL_2 over Q_2 at r = 6, and the exact Z/4*Z in
SO(2,1) at r = 8, whose relator makes candidates repeat within a level
and across levels.

They also pin the CSV of ``cartanlab cartan`` on the 1457 elements of
the r = 6 balls of the shipped Schottky pair, in SO(2,2) over R and in
SL_2 over Q_2: the loading of a rational matrix document, the Cartan
projections and the cell text.

They pin the CSV and sidecar of ``cartanlab stability`` (r = 4,
four bending parameters) on the shipped SO(2,2) bend presentation and of
``cartanlab properness`` (r = 5) against the cone of its generator a:
the reference and deformed projections of a whole ball, the envelope
fits and the cone margins.

Last, they pin the CSV and sidecar of ``cartanlab decompose`` over every
word of a ball on each rank-one model: the shipped Schottky pair on the
SL_2(R) plane at r = 4, the exact Z/4*Z in SO(2,1) on the hyperboloid at
r = 4 (its relator keeps the inverses of some ball words out of the
ball), and the Schottky pair on the SL_2(Q_2) tree at r = 3.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from cartanlab.cli import main
from cartanlab.serialize import load_presentation_document, matrix_to_json
from cartanlab.surrogates import (boost_Y_so22, schottky_sl2_matrices,
                                  schottky_sl2_presentation,
                                  schottky_so22_presentation)
from cartanlab.wordgroups import inclusion, word_ball

from util import sym2_rational


def _z4z_float_doc():
    r = [[F(0), F(-1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    s = sym2_rational(((F(4), F(0)), (F(0), F(1, 4))))
    enc = lambda m: [[repr(float(x)) for x in row] for row in m]  # noqa: E731
    return {"field": {"kind": "real"},
            "group": {"family": "SO", "p": 2, "q": 1},
            "generators": {"r": enc(r), "s": enc(s)},
            "structure": {"type": "free"}, "relators": ["r^4"]}


def _complex_doc():
    # r has order 4 (r^2 = -I), so r^2 and r^-2 merge; a is loxodromic
    return {"field": {"kind": "complex"}, "group": {"family": "SL", "n": 2},
            "generators": {"a": [["1+1j", "1+0j"], ["1+0j", "1-1j"]],
                           "r": [["0j", "1j"], ["1j", "0j"]]},
            "structure": {"type": "free"}}


GOLDEN = {
    "z4z_float_r8": (_z4z_float_doc, 8,
                     "b9d043d6d2ea3ba61b710f5682373c0cb4eca86887f1e9d6ef9a8b21e4414352",
                     "6e0cd4d8ba09e394fcf51dc9b2acf8e3f8c5bcd3b914641286005be7dfd125d1"),
    "complex_r6": (_complex_doc, 6,
                   "c1ee48c106e241ef9d551fbaf0d02c6996de6ea780943d6aad2a79fac64380cf",
                   "1f6bdf35448fe5db52a8a1f5f42d5f80e43d816e69ce65a8886f6c83651cb4ef"),
}


def _ball_report_digests(tmp_path, doc, radius):
    path, out = tmp_path / "in.json", tmp_path / "ball.csv"
    path.write_text(json.dumps(doc))
    assert main(["ball", "--input", str(path), "--output", str(out),
                 "--radius", str(radius)]) == 0
    return [hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (out, tmp_path / "ball.csv.json")]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_float_ball_report_bytes(tmp_path, name):
    make, radius, csv_digest, sidecar_digest = GOLDEN[name]
    assert _ball_report_digests(tmp_path, make(), radius) == [csv_digest, sidecar_digest]


# defined further down: the exact documents of the decompose goldens
EXACT_GOLDEN = {
    "sl2_q2_r6": (lambda: _sl2_doc({"kind": "padic", "p": 2}), 6,
                  "cff2fa7fd500bf7f3fd014b1cfc84454e689fb7a3e5256553cca56e40e6c1433",
                  "20b9ab1111fb90b423ffc59ba9daa17bc9d672f0d2124d07bfcdc5c59dd863c3"),
    "z4z_exact_r8": (lambda: _z4z_exact_doc(), 8,
                     "4bb1ed344df614a1b32af58a89e3777ca0468382174179b4b05a89795bb4e950",
                     "e1eaac1007135f95991e4ed8acd60dd7ac9b50a0739760a62d1d5b8c8106797c"),
}


@pytest.mark.parametrize("name", sorted(EXACT_GOLDEN))
def test_exact_ball_report_bytes(tmp_path, name):
    make, radius, csv_digest, sidecar_digest = EXACT_GOLDEN[name]
    assert _ball_report_digests(tmp_path, make(), radius) == [csv_digest, sidecar_digest]


def _q_sqrt2_doc():
    """A pair in SL_2 over Q(sqrt 2) beside rational entries."""
    return {"field": {"kind": "quadratic", "r": 2}, "group": {"family": "SL", "n": 2},
            "generators": {"a": [["1+1*sqrt(2)", "1"], ["1*sqrt(2)", "1"]],
                           "b": [["1", "1*sqrt(2)"], ["0", "1"]]}}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_float_image_stack_walks_the_ball_levels(name):
    # the tree walk of image_stack forms the BFS's levels bit for bit,
    # merges and all
    make, radius = GOLDEN[name][:2]
    P = load_presentation_document(make())[2]
    ball = word_ball(P, inclusion(P), radius)
    assert ball.merge_count
    assert ball.image_stack(inclusion(P)).tobytes() == ball.stack.tobytes()


@pytest.mark.parametrize("make, radius", [(EXACT_GOLDEN["sl2_q2_r6"][0], 6),
                                          (_q_sqrt2_doc, 4)])
def test_exact_images_walk_the_ball_levels(make, radius):
    P = load_presentation_document(make())[2]
    ball = word_ball(P, inclusion(P), radius)
    assert ball.images(inclusion(P)) == ball.elements()


def _ball_document(field, group, presentation):
    """The matrix document of the r = 6 ball of a presentation."""
    ball = word_ball(presentation, inclusion(presentation), 6)
    return {"field": field, "group": group,
            "ids": ball.labels(presentation.symbols),
            "matrices": [matrix_to_json(e.element.matrix) for e in ball.entries]}


CARTAN_GOLDEN = {
    "so22_r6": (lambda: _ball_document({"kind": "real"},
                                       {"family": "SO", "p": 2, "q": 2},
                                       schottky_so22_presentation()),
                "786cdf67f0a5cb007707343c1b180c2f914a72ebefd480278092d5b95a9280e5"),
    "sl2_q2_r6": (lambda: _ball_document({"kind": "padic", "p": 2},
                                         {"family": "SL", "n": 2},
                                         schottky_sl2_presentation()),
                  "21b424632b66deaa45b09076a3df41c4e1f28f97a185d856d877983f83507d52"),
}


@pytest.mark.parametrize("name", sorted(CARTAN_GOLDEN))
def test_cartan_report_bytes(tmp_path, name):
    make, csv_digest = CARTAN_GOLDEN[name]
    path, out = tmp_path / "in.json", tmp_path / "cartan.csv"
    doc = make()
    assert len(doc["matrices"]) == 1457
    path.write_text(json.dumps(doc))
    assert main(["cartan", "--input", str(path), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest


def _so22_bend_doc():
    """The shipped Schottky pair in SO(2,2) as a trivial-edge amalgam,
    bent by the (x1, x4) boost of ``boost_Y_so22``."""
    a, b = (matrix_to_json(g.matrix) for g in schottky_so22_presentation().generators)
    return {"field": {"kind": "real"}, "group": {"family": "SO", "p": 2, "q": 2},
            "generators": {"a": a, "b": b},
            "structure": {"type": "amalgam", "side1": ["a"], "side2": ["b"],
                          "gamma0": []},
            "bending": {"Y": matrix_to_json(boost_Y_so22())}}


def _so22_cone_doc():
    doc = _so22_bend_doc()
    return dict(doc, cone={"matrices": [doc["generators"]["a"]]})


REPORT_GOLDEN = {
    "stability": (_so22_bend_doc, ["--radius", "4", "--t", "0,0.01,0.1,0.3"],
                  "227808bbff9add91c9e2c93aa7bbd7a337075606081842ebfe79ce538725ddff",
                  "0b554646fd6539aca0c225e727c063833e70a5e237cdb2adf3aa707580982653"),
    "properness": (_so22_cone_doc, ["--radius", "5"],
                   "e3f2850beef00917270ef2cc4ac92bce146596bfff917ab5ec37583394e10982",
                   "378c4b46f05731766792a200d96adf2926a598ae5e0e2d57f57eb2401a3488af"),
}


@pytest.mark.parametrize("command", sorted(REPORT_GOLDEN))
def test_deformation_report_bytes(tmp_path, command):
    make, flags, csv_digest, sidecar_digest = REPORT_GOLDEN[command]
    path, out = tmp_path / "in.json", tmp_path / "report.csv"
    path.write_text(json.dumps(make()))
    assert main([command, "--input", str(path), "--output", str(out)] + flags) == 0
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (out, tmp_path / "report.csv.json")]
    assert digests == [csv_digest, sidecar_digest]


def _sl2_doc(field):
    """The shipped Schottky pair in SL_2 over field, with no relators."""
    a, b = schottky_sl2_matrices()
    return {"field": field, "group": {"family": "SL", "n": 2},
            "generators": {"a": matrix_to_json(a), "b": matrix_to_json(b)},
            "structure": {"type": "free"}}


def _z4z_exact_doc():
    """Exact Z/4*Z in SO(2,1): the relator r^4 keeps the inverse of some
    ball words out of the ball."""
    doc = _z4z_float_doc()
    r = [[F(0), F(-1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    s = sym2_rational(((F(4), F(0)), (F(0), F(1, 4))))
    return dict(doc, generators={"r": matrix_to_json(r), "s": matrix_to_json(s)})


# ``cartanlab decompose`` over every word of the ball: on the SL_2(R)
# plane, on the SO(2,1) hyperboloid and on the SL_2(Q_2) tree.
DECOMPOSE_GOLDEN = {
    "sl2_real_r4": (lambda: _sl2_doc({"kind": "real"}), 4,
                    "4c7d8f3784c95a57978ebb793f560f92b7c2bc694b8da6e6538a4917fbe040a2",
                    "f0c9e6f7bcae04d76d4276902360a4a868c711822dceb234535ab81857f4c0fc"),
    "z4z_hyperboloid_r4": (_z4z_exact_doc, 4,
                           "ad4d919e1867d8f24a8a014552f9b34a23b37fc7c72a5ab6b2232119196684bd",
                           "bd2cf2dc5e8de37750e5969b83f4095b94562c05faced7878d8205b5c70164ca"),
    "sl2_q2_tree_r3": (lambda: _sl2_doc({"kind": "padic", "p": 2}), 3,
                       "c08550a7cb3de15a8fa03487210dc8025f32d03820cb607f0c38c617d7a8aed4",
                       "3948b0a58b3bd428fbd268b90f962b52cf2179ffd135819e9fd2a6673a8a1f1a"),
}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_GOLDEN))
def test_decompose_report_bytes(tmp_path, name):
    make, radius, csv_digest, sidecar_digest = DECOMPOSE_GOLDEN[name]
    path, out = tmp_path / "in.json", tmp_path / "decompose.csv"
    path.write_text(json.dumps(make()))
    assert main(["decompose", "--input", str(path), "--output", str(out),
                 "--radius", str(radius)]) == 0
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (out, tmp_path / "decompose.csv.json")]
    assert digests == [csv_digest, sidecar_digest]
