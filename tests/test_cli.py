import functools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlab import bending, cli, stability, transverse, wordgroups
from cartanlab.bending import LieBasis
from cartanlab.cartan import CartanVector
from cartanlab.cli import main
from cartanlab.fields import COMPLEX
from cartanlab.serialize import (load_presentation_document, matrix_to_json,
                                 scalar_from_str)

from util import boost_Y_so22, schottky_sl2_matrices, schottky_so22_presentation


@pytest.fixture
def sl2_matrix_file(tmp_path):
    doc = {
        "field": {"kind": "real"},
        "group": {"family": "SL", "n": 2},
        "matrices": [
            [["1", "0"], ["0", "1"]],
            [["1", "1"], ["0", "1"]],
            [["2", "0"], ["0", "1/2"]],
        ],
        "ids": ["identity", "unipotent", "boost"],
    }
    path = tmp_path / "mats.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def sl2_presentation_file(tmp_path):
    a, b = schottky_sl2_matrices()
    doc = {
        "field": {"kind": "real"},
        "group": {"family": "SL", "n": 2},
        "generators": {"a": matrix_to_json(a), "b": matrix_to_json(b)},
        "structure": {"type": "free"},
    }
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def so22_bending_file(tmp_path):
    P = schottky_so22_presentation()
    doc = {
        "field": {"kind": "real"},
        "group": {"family": "SO", "p": 2, "q": 2},
        "generators": {
            "a": matrix_to_json(P.generators[0].matrix),
            "b": matrix_to_json(P.generators[1].matrix),
        },
        "structure": {"type": "amalgam", "side1": ["a"], "side2": ["b"],
                      "gamma0": []},
        "bending": {"Y": matrix_to_json(boost_Y_so22()), "t": [0.0, 0.1]},
    }
    path = tmp_path / "bend.json"
    path.write_text(json.dumps(doc))
    return path


def test_cmd_cartan_values(tmp_path, sl2_matrix_file):
    out = tmp_path / "out.csv"
    rc = main(["cartan", "--input", str(sl2_matrix_file), "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "id,mu_1,mu_2,mu_norm"
    assert lines[1].startswith("identity,0,0,0")
    assert "0.48121182506" in lines[2]  # the unipotent closed form
    assert "0.69314718056" in lines[3]


def test_cmd_cartan_padic(tmp_path):
    doc = {
        "field": {"kind": "padic", "p": 3},
        "group": {"family": "SL", "n": 2},
        "matrices": [[["3", "0"], ["0", "1/3"]]],
        "ids": ["diag"],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert main(["cartan", "--input", str(path), "--output", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "diag,1,-1,1.41421356237"


def test_cmd_ball(tmp_path, sl2_presentation_file):
    out = tmp_path / "ball.csv"
    rc = main(["ball", "--input", str(sl2_presentation_file),
               "--output", str(out), "--radius", "2"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 17
    sidecar = json.loads((tmp_path / "ball.csv.json").read_text())
    assert sidecar["elements"] == 17 and sidecar["complete"]
    assert sidecar["merges"] == 0


def test_cmd_ball_float_counts_merges(tmp_path):
    # decimal text is read as floats; r has order 4, and g, -g stay apart
    docs = {
        "float": {"a": [["2.0", "0.0"], ["0.0", "0.5"]],
                  "r": [["0.0", "-1.0"], ["1.0", "0.0"]]},
        "exact": {"a": [["2", "0"], ["0", "1/2"]],
                  "r": [["0", "-1"], ["1", "0"]]},
    }
    outputs = []
    for name, gens in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "field": {"kind": "real"}, "group": {"family": "SL", "n": 2},
            "generators": gens, "structure": {"type": "free"}}))
        out = tmp_path / f"{name}.csv"
        assert main(["ball", "--input", str(path), "--output", str(out),
                     "--radius", "3"]) == 0
        outputs.append(json.loads((tmp_path / f"{name}.csv.json").read_text()))
    floats, exact = outputs
    assert floats["elements"] == exact["elements"]
    assert floats["merges"] > 0 and exact["merges"] == 0


def test_cmd_ball_complex_entries_round_trip(tmp_path):
    # complex float entries are written as scalar text, imaginary parts kept
    doc = {"field": {"kind": "complex"}, "group": {"family": "SL", "n": 2},
           "generators": {"r": [["0.5+0.5j", "0"], ["0", "1-1j"]]},
           "structure": {"type": "free"}}
    path, out = tmp_path / "c.json", tmp_path / "c.csv"
    path.write_text(json.dumps(doc))
    assert main(["ball", "--input", str(path), "--output", str(out),
                 "--radius", "2"]) == 0
    field, _, pres, _ = load_presentation_document(doc)
    ball = wordgroups.word_ball(pres, wordgroups.inclusion(pres), 2)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == [e.word.format(pres.symbols)
                                        for e in ball.entries]
    for row, e in zip(rows, ball.entries):
        want = e.element.matrix.reshape(-1).tolist()
        assert [complex(scalar_from_str(x, field)) for x in row[2:]] == want
    assert rows[1][2:] == ["(0.5+0.5j)", "0j", "0j", "(1-1j)"]


def test_cmd_ball_over_q_sqrt2_writes_field_text(tmp_path):
    # entries over Q(sqrt 2) are written as scalar text, each cell the
    # value of its word's entry
    doc = {"field": {"kind": "quadratic", "r": 2}, "group": {"family": "SL", "n": 2},
           "generators": {"a": [["1+1*sqrt(2)", "1"], ["1*sqrt(2)", "1"]],
                          "b": [["1", "1*sqrt(2)"], ["0", "1"]]},
           "structure": {"type": "free"}}
    path, out = tmp_path / "q.json", tmp_path / "q.csv"
    path.write_text(json.dumps(doc))
    assert main(["ball", "--input", str(path), "--output", str(out),
                 "--radius", "2"]) == 0
    field, _, pres, _ = load_presentation_document(doc)
    phi = wordgroups.inclusion(pres)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 17 and any("sqrt(2)" in x for row in rows for x in row)
    for row in rows:
        g = wordgroups.evaluate(wordgroups.parse_word(row[0], pres.symbols), phi)
        assert [scalar_from_str(x, field) for x in row[2:]] == [
            x for entries in g.matrix for x in entries]
    # a value with no irrational part is written as its rational text,
    # however the products that formed it left it
    assert {row[0]: row[2:] for row in rows}["b"] == ["1", "0+1*sqrt(2)", "0", "1"]
    assert not any("+0*sqrt" in x for row in rows for x in row)


def test_cmd_proximal(tmp_path):
    doc = {
        "field": {"kind": "real"},
        "group": {"family": "SL", "n": 3},
        "matrices": [
            [["4", "0", "0"], ["0", "1", "0"], ["0", "0", "1/4"]],
            [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["1.0000000001", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        ],
        "ids": ["diag", "unip", "near"],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "prox.csv"
    rc = main(["proximal", "--input", str(path), "--output", str(out),
               "--eps", "0.1"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[1] == "proximal"
    assert lines[2].split(",")[1] == "not_proximal"
    # a modulus gap of 1e-10 is below the float resolution
    assert lines[3] == "near,indeterminate,,,,,,,"


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_cmd_proximal_eps_is_certified_and_ignores_the_seed(tmp_path, kind):
    # off-axis eigendata: condition (2) is decided by the exact box search,
    # so every verdict is certified and --seed 0 and --seed 7 write the
    # same bytes (--seed still parses, with no effect)
    b, c = ("1j", "1j") if kind == "complex" else ("1", "-1")
    doc = {
        "field": {"kind": kind},
        "group": {"family": "SL", "n": 2},
        "matrices": [[["10", b], [c, "0"]], [["3", b], [c, "0"]]],
        "ids": ["strong", "weak"],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    outputs = []
    for seed in ("0", "7"):
        out = tmp_path / f"prox{seed}.csv"
        assert main(["proximal", "--input", str(path), "--output", str(out),
                     "--eps", "0.1", "--seed", seed]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    rows = [line.split(",") for line in outputs[0].decode().splitlines()]
    assert [row[1] for row in rows[1:]] == ["proximal", "proximal"]
    assert [row[-2:] for row in rows[1:]] == [["True", "True"], ["False", "True"]]


def test_cmd_proximal_over_c_writes_scalar_text(tmp_path):
    # numpy complex scalars go out as Python complex text, so every scalar
    # cell (the eigenvalue and each coordinate of the attracting point and
    # the repelling functional) reads back through scalar_from_str
    doc = {"field": {"kind": "complex"}, "group": {"family": "SL", "n": 2},
           "matrices": [[["10", "1j"], ["1j", "0"]]], "ids": ["g"]}
    path, out = tmp_path / "c.json", tmp_path / "prox.csv"
    path.write_text(json.dumps(doc))
    assert main(["proximal", "--input", str(path), "--output", str(out)]) == 0
    header, row = (line.split(",") for line in out.read_text().splitlines())
    cells = dict(zip(header, row))
    scalars = [cells["eigenvalue"]] + [x for col in ("attracting", "repelling")
                                       for x in cells[col].split(";")]
    assert len(scalars) == 5
    for text in scalars:
        assert "np." not in text
        assert repr(complex(scalar_from_str(text, COMPLEX))) == text
    assert abs(complex(cells["eigenvalue"]) - (5 + 24 ** 0.5)) < 1e-12


def test_cmd_decompose(tmp_path, sl2_presentation_file):
    out = tmp_path / "dec.csv"
    rc = main(["decompose", "--input", str(sl2_presentation_file),
               "--output", str(out), "--radius", "3"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("word,factor_index")
    assert all(line.endswith("True") for line in lines[1:])


def test_decompose_over_c_exits_2(tmp_path, capsys):
    # SL_2(C) acts on hyperbolic 3-space, not on the plane: the real plane
    # model used to run on the real parts of complex orbit points
    doc = {"field": {"kind": "complex"}, "group": {"family": "SL", "n": 2},
           "generators": {"a": [["2+0j", "0j"], ["0j", "0.5+0j"]],
                          "b": [["1+1j", "1+0j"], ["1+0j", "1-1j"]]},
           "structure": {"type": "free"}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "dec.csv"
    assert main(["decompose", "--input", str(path), "--output", str(out)]) == 2
    assert "no rank-one model" in capsys.readouterr().err and not out.exists()


def test_decompose_over_q_p_on_so_m_1_exits_2(tmp_path, capsys):
    # SO(2,1) over Q_3 acts on a tree, not on H^2: the real hyperboloid
    # model used to run on it and exit 0
    r = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]]
    s = [["257/32", "0", "255/32"], ["0", "1", "0"], ["255/32", "0", "257/32"]]
    doc = {"field": {"kind": "padic", "p": 3},
           "group": {"family": "SO", "p": 2, "q": 1},
           "generators": {"r": r, "s": s}, "structure": {"type": "free"},
           "relators": ["r^4"]}
    path = tmp_path / "so21_q3.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "dec.csv"
    assert main(["decompose", "--input", str(path), "--output", str(out),
                 "--radius", "2"]) == 2
    err = capsys.readouterr().err
    assert "no rank-one model for this group over Q_3" in err and not out.exists()


@pytest.mark.parametrize("word", ["a^1000000000000", "a^3000000", "a b^-100001"])
def test_word_of_too_many_letters_exits_2(tmp_path, capsys, word):
    # a^1000000000000 used to end in a MemoryError traceback with exit 1,
    # and a^3000000 took seconds before the ball started
    doc = {"field": {"kind": "real"}, "group": {"family": "SL", "n": 2},
           "generators": {"a": [["2", "0"], ["0", "1/2"]],
                          "b": [["1", "1"], ["0", "1"]]},
           "structure": {"type": "free"}, "relators": [word]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["ball", "--input", str(path), "--output", str(tmp_path / "b.csv"),
                 "--radius", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: word {word!r} has more than 100000 letters\n")


@pytest.mark.parametrize("word, exp", [("a^x", "x"), ("b a^", ""), ("a^1.5 b", "1.5")])
def test_word_with_a_non_integer_exponent_exits_2(tmp_path, capsys, word, exp):
    # int()'s own message used to be all the error said
    doc = {"field": {"kind": "real"}, "group": {"family": "SL", "n": 2},
           "generators": {"a": [["2", "0"], ["0", "1/2"]],
                          "b": [["1", "1"], ["0", "1"]]},
           "structure": {"type": "free"}, "relators": [word]}
    path, out = tmp_path / "exp.json", tmp_path / "b.csv"
    path.write_text(json.dumps(doc))
    assert main(["ball", "--input", str(path), "--output", str(out),
                 "--radius", "2"]) == 2
    assert capsys.readouterr().err == (
        f"error: word {word!r} has a non-integer exponent {exp!r}\n")
    assert sorted(tmp_path.iterdir()) == [path]


def test_cmd_bend_and_witnesses(tmp_path, so22_bending_file):
    out = tmp_path / "bend.csv"
    rc = main(["bend", "--input", str(so22_bending_file), "--output", str(out)])
    assert rc == 0
    sidecar = json.loads((tmp_path / "bend.csv.json").read_text())
    assert sidecar["witnesses"] == {"0.0": False, "0.1": True}
    assert sidecar["module_decomposition_ok"] is True


def test_cmd_bend_decides_y_once_per_report(tmp_path, so22_bending_file,
                                           monkeypatch):
    # Y^3 = Y is decided by two integer products; bend and the witness
    # used to decide it again for each exp(+-t*Y), 22 times at these t
    products = []
    mul = bending.int_mat_mul
    monkeypatch.setattr(bending, "int_mat_mul",
                        lambda A, B: products.append(1) or mul(A, B))
    out = tmp_path / "bend.csv"
    assert main(["bend", "--input", str(so22_bending_file), "--output",
                 str(out), "--t", "0,1e-3,0.01,0.1,0.3,1"]) == 0
    assert len(products) == 2
    sidecar = json.loads((tmp_path / "bend.csv.json").read_text())
    assert sidecar["witnesses"] == {"0.0": False, "0.001": True, "0.01": True,
                                    "0.1": True, "0.3": True, "1.0": True}


def _so22_amalgam_file(tmp_path, sides, gamma0, bending):
    """An SO(2,2) amalgam document; ``sides`` holds the generators of each
    side as {symbol: matrix}."""
    path = tmp_path / "amalgam.json"
    path.write_text(json.dumps({
        "field": {"kind": "real"},
        "group": {"family": "SO", "p": 2, "q": 2},
        "generators": {k: matrix_to_json(g) for side in sides
                       for k, g in side.items()},
        "structure": {"type": "amalgam", "side1": list(sides[0]),
                      "side2": list(sides[1]), "gamma0": gamma0},
        "bending": bending,
    }))
    return path


def _fixed_coordinate_0_file(tmp_path):
    """An SO(2,2) amalgam bent along the rotation of coordinates (0, 1),
    fixing coordinate 0."""
    P = schottky_so22_presentation()
    rotation = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    return _so22_amalgam_file(
        tmp_path, ({"a": P.generators[0].matrix}, {"b": P.generators[1].matrix}),
        [], {"Y": matrix_to_json(rotation), "t": [0.0, 0.5],
             "fixed_coordinate": 0})


def test_cmd_bend_witness_uses_the_fixed_coordinate(tmp_path):
    # the witness used to test the standard so(2,1) fixing the last
    # coordinate, which the rotation in coordinates (0, 1) normalizes, and
    # reported false although the document fixes coordinate 0
    path = _fixed_coordinate_0_file(tmp_path)
    out = tmp_path / "bend.csv"
    assert main(["bend", "--input", str(path), "--output", str(out)]) == 0
    sidecar = json.loads((tmp_path / "bend.csv.json").read_text())
    assert sidecar["witnesses"] == {"0.0": False, "0.5": True}


def test_cmd_bend_module_check_uses_the_fixed_coordinate(tmp_path, monkeypatch):
    # the module check used to run on the standard so(m,1) fixing the last
    # coordinate, whatever the document's form and fixed coordinate
    seen = []
    check = cli.module_decomposition_check
    monkeypatch.setattr(cli, "module_decomposition_check",
                        lambda sub: seen.append(sub) or check(sub))
    out = tmp_path / "bend.csv"
    path = _fixed_coordinate_0_file(tmp_path)
    assert main(["bend", "--input", str(path), "--output", str(out)]) == 0
    (sub,) = seen
    assert isinstance(sub, LieBasis)
    assert sub.space.coeffs == (1, 1, -1, -1)  # the SO(2,2) document's form
    assert len(sub) == 3
    assert all(X[0][k] == X[k][0] == 0 for X in sub for k in range(4))
    sidecar = json.loads((tmp_path / "bend.csv.json").read_text())
    assert sidecar["module_decomposition_ok"] is True


def test_cmd_bend_refuses_so_1_2_before_any_output(tmp_path, capsys):
    # so(1,1) in so(1,2) is below the module check's m >= 2; the CSV used
    # to be written before the refusal, with no sidecar
    boost = [["5/4", "3/4", "0"], ["3/4", "5/4", "0"], ["0", "0", "1"]]
    path = tmp_path / "so12.json"
    path.write_text(json.dumps({
        "field": {"kind": "real"}, "group": {"family": "SO", "p": 1, "q": 2},
        "generators": {"a": boost, "b": boost},
        "structure": {"type": "amalgam", "side1": ["a"], "side2": ["b"],
                      "gamma0": []},
        "bending": {"Y": [[0, 0, 0], [0, 0, 1], [0, -1, 0]], "t": [0.0, 0.5]},
    }))
    out = tmp_path / "bend.csv"
    assert main(["bend", "--input", str(path), "--output", str(out)]) == 2
    assert not out.exists()
    errors = [ln for ln in capsys.readouterr().err.splitlines()
              if ln.startswith("error:")]
    assert len(errors) == 1 and "m must be >= 2" in errors[0]


def test_cmd_bend_auto_picked_Y(tmp_path):
    # an exact amalgam over the SO(1,1) block h of coordinates (1, 2):
    # the centralizer of h is spanned by h's own boost and the boost of
    # coordinates (0, 3), and the auto-pick takes the one outside so(2,1)
    P = schottky_so22_presentation()
    h = [[1, 0, 0, 0], [0, F(5, 4), F(3, 4), 0], [0, F(3, 4), F(5, 4), 0],
         [0, 0, 0, 1]]
    sides = ({"a": P.generators[0].matrix, "c": h},
             {"b": P.generators[1].matrix, "d": h})
    # the auto-picked Y, written out as the centralizer solve first gave it
    Y = [[0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 0]]
    outputs = []
    for extra in ({}, {"Y": matrix_to_json(Y)}):
        path = _so22_amalgam_file(tmp_path, sides, [["c", "d"]],
                                  {"t": [0.0, 0.3], **extra})
        out = tmp_path / "bend.csv"
        assert main(["bend", "--input", str(path), "--output", str(out)]) == 0
        outputs.append((out.read_bytes(),
                        (tmp_path / "bend.csv.json").read_bytes()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["witnesses"] == {"0.0": False, "0.3": True}


def test_cmd_stability_identity(tmp_path, so22_bending_file):
    out = tmp_path / "stab.csv"
    rc = main(["stability", "--input", str(so22_bending_file),
               "--output", str(out), "--radius", "3", "--t", "0.0"])
    assert rc == 0
    fits = json.loads((tmp_path / "stab.csv.json").read_text())["fits"]
    assert fits["0.0"]["eps_hat"] == 0.0
    assert fits["0.0"]["c_hat"] == 0.0


def test_cmd_properness(tmp_path):
    P = schottky_so22_presentation()
    c, s = math.cosh(1.0), math.sinh(1.0)
    u11 = [[repr(c), "0", repr(s), "0"],
           ["0", repr(c), "0", repr(s)],
           [repr(s), "0", repr(c), "0"],
           ["0", repr(s), "0", repr(c)]]
    doc = {
        "field": {"kind": "real"},
        "group": {"family": "SO", "p": 2, "q": 2},
        "generators": {
            "a": matrix_to_json(P.generators[0].matrix),
            "b": matrix_to_json(P.generators[1].matrix),
        },
        "structure": {"type": "free"},
        "cone": {"matrices": [u11]},
    }
    path = tmp_path / "prop.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "prop.csv"
    rc = main(["properness", "--input", str(path), "--output", str(out),
               "--radius", "4", "--rho0", "2.0"])
    assert rc == 0
    sidecar = json.loads((tmp_path / "prop.csv.json").read_text())
    assert sidecar["slope"] > 0.1


@pytest.mark.parametrize("command, rho0", [
    ("stability", "-1"), ("stability", "nan"),
    ("properness", "nan"), ("properness", "-5"),
])
def test_negative_or_nan_rho0_exits_2(tmp_path, capsys, so22_bending_file,
                                      command, rho0):
    # these ended in a ZeroDivisionError, an "internal" envelope error, or
    # (properness --rho0 -5) a fitted slope 0 whatever the margins
    doc = json.loads(so22_bending_file.read_text())
    doc["cone"] = {"matrices": [doc["generators"]["a"]]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    rc = main([command, "--input", str(path), "--output", str(out),
               "--radius", "2", "--rho0", rho0])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "rho0" in err[0]
    assert not out.exists() and not (tmp_path / "out.csv.json").exists()


def test_reports_build_no_cartan_vector_per_element(tmp_path, monkeypatch,
                                                     so22_bending_file):
    # the projections of a ball travel as one array: the only CartanVectors
    # are stability's projections of the two generators (its default rho0)
    P = schottky_so22_presentation()
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps({
        "field": {"kind": "real"}, "group": {"family": "SO", "p": 2, "q": 2},
        "matrices": [matrix_to_json(g.matrix) for g in P.generators] * 3}))
    cone = json.loads(so22_bending_file.read_text())
    cone["cone"] = {"matrices": [cone["generators"]["a"]]}
    cone_file = tmp_path / "cone.json"
    cone_file.write_text(json.dumps(cone))
    built = []
    check = CartanVector.__post_init__
    monkeypatch.setattr(CartanVector, "__post_init__",
                        lambda self: built.append(self) or check(self))
    for argv, count in [(["cartan", "--input", str(mats)], 0),
                        (["properness", "--input", str(cone_file), "--radius", "3"], 0),
                        (["stability", "--input", str(so22_bending_file),
                          "--radius", "3", "--t", "0,0.1"], 2)]:
        built.clear()
        assert main(argv + ["--output", str(tmp_path / "out.csv")]) == 0
        assert len(built) == count, argv[0]


@pytest.mark.parametrize("command", ["stability", "properness", "decompose"])
def test_truncated_ball_exits_2(tmp_path, capsys, monkeypatch, command):
    # a ball cut off at max_elements must not be reported as radius R
    small = functools.partial(wordgroups.word_ball, max_elements=10)
    for module in (cli, stability, transverse):
        monkeypatch.setattr(module, "word_ball", small)
    a, b = schottky_sl2_matrices()
    doc = {
        "field": {"kind": "real"},
        "group": {"family": "SL", "n": 2},
        "generators": {"a": matrix_to_json(a), "b": matrix_to_json(b)},
        "structure": {"type": "free"},
        "cone": {"compact": True},
    }
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(doc))
    rc = main([command, "--input", str(path), "--output",
               str(tmp_path / "o.csv"), "--radius", "3"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "truncated" in err[0]


def test_float_row_template_matches_fmt():
    values = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-320, 5e-324, 1 / 3,
              -2.5e300, 123456789012345.0, np.float64(0.1), np.float64(-1e-320),
              np.float64(-0.0), np.float64(math.nan)]
    want = ",".join(f"{x:.12g}" for x in values)
    assert cli._float_cells(values) == want
    assert want == ",".join(cli._fmt(x) for x in values)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=9))
@settings(max_examples=200, deadline=None)
def test_float_row_template_matches_fmt_on_any_floats(values):
    assert cli._float_cells(values) == ",".join(cli._fmt(x) for x in values)


def test_float_rows_format_each_row_as_the_template_does():
    nan2 = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), np.float64)[0]
    stack = np.array([[-0.0, 0.0, math.nan, nan2, -math.nan],
                      [0.0, -0.0, math.inf, 1 / 3, 1e-320],
                      [1 / 3, 1 / 3, -math.inf, 5e-324, -0.0]])
    assert len(set(stack.view(np.int64).reshape(-1).tolist())) == 10
    assert cli._float_rows(stack) == [cli._float_cells(r) for r in stack.tolist()]


@given(st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(st.floats(allow_nan=True, allow_infinity=True),
             min_size=width, max_size=width), min_size=1, max_size=6)))
@settings(max_examples=200, deadline=None)
def test_float_rows_match_the_template_on_any_floats(rows):
    stack = np.array(rows, dtype=np.float64)
    assert cli._float_rows(stack) == [cli._float_cells(r) for r in stack.tolist()]


@pytest.mark.parametrize("x, d", [(-6, 4), (-7, 3), (0, 5), (0, 1), (12, 1),
                                  (-12, 1), (9, 3), (-9, 3), (10**30 + 1, 2**70)])
def test_ratio_cell_is_the_fraction_text(x, d):
    assert cli._ratio_cell(x, d) == str(F(x, d))


def test_determinism_byte_identical(tmp_path, so22_bending_file):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        rc = main(["stability", "--input", str(so22_bending_file),
                   "--output", str(out), "--radius", "3", "--t", "0.0,0.1",
                   "--seed", "0"])
        assert rc == 0
        outs.append(out.read_bytes() + (tmp_path / (name + ".json")).read_bytes())
    assert outs[0] == outs[1]


def test_exit_code_bad_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = main(["cartan", "--input", str(path), "--output",
               str(tmp_path / "o.csv")])
    assert rc == 2
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({
        "field": {"kind": "real"},
        "group": {"family": "SL", "n": 2},
        "matrices": [[["2", "0"], ["0", "2"]]],  # det 4
    }))
    rc = main(["cartan", "--input", str(path2), "--output",
               str(tmp_path / "o.csv")])
    assert rc == 2


@pytest.mark.parametrize("command, doc", [
    ("cartan", [1, 2]),
    ("cartan", {"field": {"kind": "real"}, "group": {"family": "SL", "n": 2},
                "matrices": [[1, 2]]}),
    ("ball", {"field": {"kind": "real"}, "group": {"family": "SL", "n": 2},
              "generators": {"a": None}}),
    ("cartan", {"field": "real", "group": {"family": "SL", "n": 2},
                "matrices": [[["1", "0"], ["0", "1"]]]}),
    ("ball", {"field": {"kind": "real"}, "group": {"family": "SL", "n": 2},
              "generators": {"a": [["2", "0"], ["0", "1/2"]]},
              "structure": "free"}),
    ("cartan", {"field": {"kind": "real"}, "group": {"family": "SL", "n": 2},
                "matrices": [[["1", "0"], ["0", "1"]]], "ids": 5}),
    ("cartan", {"field": {"kind": "real"}, "group": "SL",
                "matrices": [[["1", "0"], ["0", "1"]]]}),
    ("ball", {"field": {"kind": "real"}, "group": {"family": "SL", "n": 2},
              "generators": {"a": [["2", "0"], ["0", "1/2"]]},
              "relators": 5}),
    ("stability", {"field": {"kind": "real"},
                   "group": {"family": "SL", "n": 2},
                   "generators": {"a": [["2", "0"], ["0", "1/2"]]},
                   "bending": 5}),
    ("properness", {"field": {"kind": "real"},
                    "group": {"family": "SL", "n": 2},
                    "generators": {"a": [["2", "0"], ["0", "1/2"]]},
                    "cone": 5}),
], ids=["top-level-array", "number-row", "null-generator", "string-field",
        "string-structure", "number-ids", "string-group", "number-relators",
        "number-bending", "number-cone"])
def test_malformed_shape_exits_2(tmp_path, capsys, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main([command, "--input", str(path), "--output",
               str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _sl2_free_doc(**extra):
    a, b = schottky_sl2_matrices()
    return {"field": {"kind": "real"}, "group": {"family": "SL", "n": 2},
            "generators": {"a": matrix_to_json(a), "b": matrix_to_json(b)},
            **extra}


def _so22_bend_doc(**bending):
    P = schottky_so22_presentation()
    return {"field": {"kind": "real"}, "group": {"family": "SO", "p": 2, "q": 2},
            "generators": {"a": matrix_to_json(P.generators[0].matrix),
                           "b": matrix_to_json(P.generators[1].matrix)},
            "structure": {"type": "amalgam", "side1": ["a"], "side2": ["b"],
                          "gamma0": []},
            "bending": {"Y": matrix_to_json(boost_Y_so22()), "t": [0.0, 0.1],
                        **bending}}


_DECIMAL_Y = [["0.5" if (i, j) in ((0, 2), (2, 0)) else "0" for j in range(4)]
              for i in range(4)]


@pytest.mark.parametrize("command, doc, key", [
    ("properness", _sl2_free_doc(cone={"matrices": 5}), "cone.matrices"),
    ("ball", _sl2_free_doc(structure={"type": "amalgam", "side1": 5,
                                      "side2": ["b"]}), "side1"),
    ("ball", _sl2_free_doc(structure={"type": "amalgam", "side1": ["a"],
                                      "side2": ["b"], "gamma0": [5]}), "gamma0"),
    ("ball", _sl2_free_doc(structure={"type": "hnn", "base": 5, "stable": "b"}),
     "base"),
    ("ball", _sl2_free_doc(structure={"type": "hnn", "base": ["a"], "stable": "b",
                                      "pairings": [5]}), "pairings"),
    ("ball", _sl2_free_doc(relators=[5]), "relators"),
    ("ball", _sl2_free_doc(relators=[["a"]]), "relators"),
    ("cartan", {"field": {"kind": "real"},
                "group": {"family": "SO", "p": 1, "q": 1, "form": 5},
                "matrices": []}, "form"),
    ("bend", _so22_bend_doc(fixed_coordinate="x"), "fixed_coordinate"),
    ("stability", _so22_bend_doc(fixed_coordinate="x"), "fixed_coordinate"),
    ("bend", _so22_bend_doc(t=5), "bending.t"),
    ("bend", _so22_bend_doc(Y=[["1"]]), "bending.Y must be exact n×n"),
    ("bend", _so22_bend_doc(Y=_DECIMAL_Y), "bending.Y must be exact n×n"),
    *[("cartan", {"field": {"kind": "real"},
                  "group": {"family": "SO", "p": 1, "q": 1, "form": form},
                  "matrices": [[["1", "0"], ["0", "1"]]]}, "form")
      for form in (0, False, "", None)],
    ("cartan", {"field": {"kind": "real"}, "group": {"family": "SL", "n": 2},
                "matrices": [[["1", "0"], ["0", "1"]]], "ids": 0}, "ids"),
    ("properness", _sl2_free_doc(cone={"compact": "false"}), "cone.compact"),
], ids=["cone-matrices", "amalgam-side1", "amalgam-gamma0", "hnn-base",
        "hnn-pairings", "number-relator", "array-relator", "number-form",
        "bend-fixed-coordinate", "stability-fixed-coordinate", "number-t",
        "small-Y", "decimal-Y", "zero-form", "false-form", "empty-text-form",
        "null-form", "zero-ids", "text-compact"])
def test_wrong_json_shape_exits_2_and_names_its_key(tmp_path, capsys, command,
                                                    doc, key):
    # each of these used to end in a TypeError, AttributeError or
    # IndexError traceback out of main, or (a falsy form or ids, text
    # compact) to run with the default form, the default ids or the
    # origin cone
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    rc = main([command, "--input", str(path), "--output", str(out),
               "--radius", "1"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("where, key, good, bad", [
    ("field", "p", 3, 3.7),
    ("field", "r", 2, 2.99),
    ("group", "n", 2, 2.9),
    ("group", "p", 1, True),
    ("group", "q", 2, 2.5),
])
def test_descriptor_numbers_must_be_integers(tmp_path, capsys, where, key, good,
                                             bad):
    # int() used to truncate: p 3.7 ran as Q_3, r 2.99 as Q(sqrt 2), n 2.9
    # as SL_2 and SO with p true as SO(1,2)
    field = ({"kind": "padic", "p": 3} if key == "p" and where == "field"
             else {"kind": "quadratic", "r": 2} if key == "r"
             else {"kind": "real"})
    group = ({"family": "SL", "n": 2} if where == "field" or key == "n"
             else {"family": "SO", "p": 1, "q": 2})
    size = 2 if group["family"] == "SL" else 3
    outputs = []
    for value in (good, float(good), str(good), bad):
        doc = {"field": dict(field), "group": dict(group),
               "matrices": [[[str(int(i == j)) for j in range(size)]
                             for i in range(size)]]}
        doc[where][key] = value
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        rc = main(["cartan", "--input", str(path), "--output", str(out)])
        if value is bad:
            assert rc == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:")
            assert f"{key} = {bad!r}" in err[0]
            assert not out.exists()
        else:
            assert rc == 0
            outputs.append(out.read_bytes())
            out.unlink()
    assert outputs[0] == outputs[1] == outputs[2]


def test_descriptor_text_that_is_not_an_integer_names_the_key(tmp_path, capsys):
    doc = {"field": {"kind": "padic", "p": "3.0"}, "group": {"family": "SL", "n": 2},
           "matrices": [[["1", "0"], ["0", "1"]]]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    rc = main(["cartan", "--input", str(path), "--output", str(tmp_path / "o.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: p = '3.0' is not an integer\n"


@pytest.mark.parametrize("key, value, rc", [
    ("p", 1000000000000000003, 0),  # prime: Q_p with a 19-digit p
    ("p", 3 * 10 ** 24 + 1, 2),  # odd, below the Miller-Rabin bound
    ("p", 10 ** 25 + 13, 2),  # past the bound: refused
    ("r", 10 ** 18 - 11, 0),
    ("r", 1000000000000000003, 2),  # past the square-free bound: refused
])
def test_huge_field_numbers_are_decided_at_once(tmp_path, capsys, key, value, rc):
    # p and r used to be tested by unbounded trial division
    field = {"kind": "padic" if key == "p" else "quadratic", key: value}
    doc = {"field": field, "group": {"family": "SL", "n": 2},
           "matrices": [[["1", "0"], ["0", "1"]]]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["cartan", "--input", str(path), "--output",
                 str(tmp_path / "o.csv")]) == rc
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert (err == "") if rc == 0 else err.startswith(f"error: {key} = {value} ")


@pytest.mark.parametrize("field", [
    {"kind": "real"}, {"kind": "complex"}, {"kind": "padic", "p": 2},
    {"kind": "quadratic", "r": 2},
])
@pytest.mark.parametrize("command", ["cartan", "ball"])
def test_zero_denominator_exits_2(tmp_path, capsys, command, field):
    # "1/0" used to end in a ZeroDivisionError traceback with exit 1
    rows = [["1/0", "0"], ["0", "1"]]
    doc = {"field": field, "group": {"family": "SL", "n": 2}}
    if command == "cartan":
        doc["matrices"] = [rows]
    else:
        doc["generators"] = {"a": rows}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    rc = main([command, "--input", str(path), "--output",
               str(tmp_path / "o.csv"), "--radius", "1"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "zero denominator" in err[0]


@pytest.mark.parametrize("field, matrix, eps", [
    ({"kind": "padic", "p": 2}, [["4", "0"], ["0", "1/4"]], "0"),
    ({"kind": "padic", "p": 2}, [["4", "0"], ["0", "1/4"]], "-0.1"),
    ({"kind": "real"}, [["4", "0"], ["0", "1/4"]], "nan"),
    ({"kind": "real"}, [["0", "-1"], ["1", "0"]], "-1"),
], ids=["zero", "negative", "nan", "no-proximal-row"])
def test_proximal_rejects_bad_eps(tmp_path, capsys, field, matrix, eps):
    # eps = 0 over Q_p used to loop forever and nan over R reported
    # eps_ok; a bad eps is refused even when no row reaches the eps check
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "field": field, "group": {"family": "SL", "n": 2},
        "matrices": [matrix],
    }))
    rc = main(["proximal", "--input", str(path), "--output",
               str(tmp_path / "o.csv"), f"--eps={eps}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "eps" in err
    assert len(err.strip().splitlines()) == 1


def test_exit_code_numerical(tmp_path):
    # indeterminate proximality surfaces as a numerical failure... the CLI
    # records it per-row instead, so force one via a non-finite matrix
    doc = {
        "field": {"kind": "real"},
        "group": {"family": "SL", "n": 2},
        "matrices": [[["1", "0"], ["0", "1"]]],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    assert main(["cartan", "--input", str(path), "--output", str(out)]) == 0


def test_overflowing_float_entries_are_a_numerical_failure(tmp_path, capsys):
    # squaring or cubing an entry past about 1e154 for the validation
    # tolerance used to end in an OverflowError traceback (exit 1)
    doc = {
        "field": {"kind": "real"},
        "group": {"family": "SL", "n": 2},
        "matrices": [[[1e200, 0], [0, 1e-200]]],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    assert main(["cartan", "--input", str(path), "--output", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:")
    assert not out.exists()


@pytest.mark.parametrize("field", [{"kind": "real"}, {"kind": "quadratic", "r": 2}],
                         ids=["real", "q-sqrt-2"])
def test_exact_entries_past_the_float_range_are_a_numerical_failure(tmp_path, capsys,
                                                                    field):
    # an exact entry that no float holds used to end in an OverflowError
    # traceback (exit 1) where the element was taken to floats
    big = str(10 ** 400)
    doc = {"field": field, "group": {"family": "SL", "n": 2},
           "matrices": [[[big, "0"], ["0", "1/" + big]]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    assert main(["cartan", "--input", str(path), "--output", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:")
    assert not out.exists()


def test_field_group_override(tmp_path):
    doc = {"matrices": [[["3", "0"], ["0", "1/3"]]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o.csv"
    rc = main(["cartan", "--input", str(path), "--output", str(out),
               "--field", "padic:3", "--group", "SL:2"])
    assert rc == 0
    assert out.read_text().splitlines()[1].endswith("1,-1,1.41421356237")


def test_field_and_group_flags_stand_for_their_json_objects(tmp_path):
    # --field quadratic:2 --group SO:2,2 give the bytes of the document
    # that names that field and group
    s2 = "0+2*sqrt(2)"  # 3^2 - (2 sqrt 2)^2 = 1: a boost of SO(2,2)
    boost = [["3", "0", s2, "0"], ["0", "1", "0", "0"], [s2, "0", "3", "0"],
             ["0", "0", "0", "1"]]
    outputs = []
    for field, group, flags in (
            ({"kind": "quadratic", "r": 2}, {"family": "SO", "p": 2, "q": 2}, []),
            ({"kind": "real"}, {"family": "SL", "n": 4},
             ["--field", "quadratic:2", "--group", "SO:2,2"])):
        path, out = tmp_path / "m.json", tmp_path / "o.csv"
        path.write_text(json.dumps({"field": field, "group": group,
                                    "matrices": [boost]}))
        assert main(["cartan", "--input", str(path), "--output", str(out),
                     *flags]) == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[0] == "id,mu_1,mu_2,mu_norm"


@pytest.mark.parametrize("flag, value, message", [
    ("--group", "XY:2", "unknown group family 'XY'"),
    ("--group", "SO:2", "q = '' is not an integer"),
    ("--group", "SL:2,2", "n = '2,2' is not an integer"),
    ("--field", "padic:x", "p = 'x' is not an integer"),
    ("--field", "quadratic", "r = '' is not an integer"),
], ids=["unknown-family", "one-number", "sl-pair", "padic-text", "no-r"])
def test_bad_field_or_group_flag_exits_2(tmp_path, capsys, sl2_matrix_file, flag,
                                         value, message):
    # the flag text is read as the JSON object it stands for; it used to
    # end in bare int() or unpacking messages that named no key
    out = tmp_path / "o.csv"
    assert main(["cartan", "--input", str(sl2_matrix_file), "--output", str(out),
                 flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == [sl2_matrix_file]


def test_stray_workers_environment_is_ignored(tmp_path, sl2_presentation_file,
                                              monkeypatch):
    # the CLI reads no environment variable, so a malformed one cannot
    # break argument parsing
    monkeypatch.setenv("CARTANLAB_WORKERS", "two")
    rc = main(["ball", "--input", str(sl2_presentation_file),
               "--output", str(tmp_path / "b.csv"), "--radius", "2"])
    assert rc == 0


def _bend_doc_file(tmp_path, ts):
    P = schottky_so22_presentation()
    path = tmp_path / "bend_t.json"
    path.write_text(json.dumps({
        "field": {"kind": "real"},
        "group": {"family": "SO", "p": 2, "q": 2},
        "generators": {
            "a": matrix_to_json(P.generators[0].matrix),
            "b": matrix_to_json(P.generators[1].matrix),
        },
        "structure": {"type": "amalgam", "side1": ["a"], "side2": ["b"],
                      "gamma0": []},
        "bending": {"Y": matrix_to_json(boost_Y_so22()), "t": ts},
    }))
    return path


@pytest.mark.parametrize("command, t, code", [
    ("bend", "nan", 2),
    ("bend", "inf", 2),
    ("bend", "1e308", 3),
    ("bend", "-800", 3),
    ("bend", "100", 3),  # a bent generator numpy cannot invert
    ("bend", "300", 3),  # exp(t*Y) is finite, the bent generators are not
    ("stability", "1e308", 3),
    ("stability", "nan", 2),
])
def test_non_finite_or_overflowing_t(tmp_path, capsys, so22_bending_file,
                                     command, t, code):
    # nan used to exit 0 with NaN images and a true witness; an overflow
    # of exp(t*Y) used to end in an OverflowError traceback; a bent
    # generator too ill-conditioned to invert used to exit 2 as bad input
    out = tmp_path / "o.csv"
    rc = main([command, "--input", str(so22_bending_file), "--output",
               str(out), "--radius", "2", f"--t={t}"])
    assert rc == code
    err = capsys.readouterr().err.splitlines()
    prefix = "error:" if code == 2 else "numerical failure:"
    assert len(err) == 1 and err[0].startswith(prefix)
    assert not out.exists()


@pytest.mark.parametrize("ts, code", [
    ([0.1, float("nan")], 2),
    ([float("inf")], 2),
    ([1e308], 3),
    ([400.0], 3),  # exp(t*Y) is finite, the conjugated generator is not
])
def test_bending_block_t_is_checked(tmp_path, capsys, ts, code):
    rc = main(["bend", "--input", str(_bend_doc_file(tmp_path, ts)),
               "--output", str(tmp_path / "o.csv")])
    assert rc == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]


def _boost_json(i, j, t):
    """Decimal text of the SO(2,2) boost by t in the (x_i, x_j) plane."""
    m = [["1" if r == c else "0" for c in range(4)] for r in range(4)]
    m[i][i] = m[j][j] = repr(math.cosh(t))
    m[i][j] = m[j][i] = repr(math.sinh(t))
    return m


@pytest.mark.parametrize("command", ["bend", "stability"])
def test_float_edge_group_needs_Y(tmp_path, capsys, command):
    # the centralizer of a float edge group used to be handed to the exact
    # Lie-algebra code: TypeError traceback, exit 1
    path = tmp_path / "float_edge.json"
    path.write_text(json.dumps({
        "field": {"kind": "real"},
        "group": {"family": "SO", "p": 2, "q": 2},
        "generators": {"a": _boost_json(0, 2, 1.0), "c": _boost_json(1, 3, 0.5),
                       "b": _boost_json(0, 3, 1.0), "d": _boost_json(1, 3, 0.5)},
        "structure": {"type": "amalgam", "side1": ["a", "c"],
                      "side2": ["b", "d"], "gamma0": [["c", "d"]]},
        "bending": {"t": [0.1]},
    }))
    out = tmp_path / "o.csv"
    rc = main([command, "--input", str(path), "--output", str(out),
               "--radius", "1"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "Y" in err[0]
    assert not out.exists()


def _float_edge_bend_file(tmp_path, Y):
    """An SO(2,2) amalgam of decimal boosts over the boost c = d of
    coordinates (1, 3), bent along the exact direction Y."""
    path = tmp_path / "float_gens.json"
    path.write_text(json.dumps({
        "field": {"kind": "real"},
        "group": {"family": "SO", "p": 2, "q": 2},
        "generators": {"a": _boost_json(0, 2, 1.0), "c": _boost_json(1, 3, 0.5),
                       "b": _boost_json(0, 3, 1.0), "d": _boost_json(1, 3, 0.5)},
        "structure": {"type": "amalgam", "side1": ["a", "c"],
                      "side2": ["b", "d"], "gamma0": [["c", "d"]]},
        "bending": {"Y": Y, "t": [0.0, 0.3]},
    }))
    return path


def _boost_generator(i, j):
    """The exact so(2,2) boost generator of coordinates (i, j), i < 2 <= j."""
    return [[-1 if {r, c} == {i, j} else 0 for c in range(4)] for r in range(4)]


def test_cmd_bend_float_generators_with_an_exact_Y(tmp_path, capsys):
    # the edge group c = d is float, so Y is checked to centralize it in
    # floats; the boost of coordinates (1, 3) does, the boost of (0, 3)
    # does not
    out = tmp_path / "bend.csv"
    path = _float_edge_bend_file(tmp_path, _boost_generator(1, 3))
    assert main(["bend", "--input", str(path), "--output", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,generator,row,col,value"
    assert len(rows) == 1 + 2 * 4 * 16
    sidecar = json.loads((tmp_path / "bend.csv.json").read_text())
    assert sidecar["witnesses"]["0.0"] is False
    out.unlink()
    (tmp_path / "bend.csv.json").unlink()
    path = _float_edge_bend_file(tmp_path, _boost_generator(0, 3))
    assert main(["bend", "--input", str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: Y does not centralize the edge subgroup\n")
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    # scipy.linalg is about half the import time of the CLI, and only a
    # bending direction with Y^3 != Y needs it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, cartanlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["ball", "decompose", "stability",
                                     "properness"])
def test_radius_must_be_an_integer(tmp_path, capsys, command):
    # --radius 2.5 used to be floored to 2 without a word
    a, b = schottky_sl2_matrices()
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({
        "field": {"kind": "real"},
        "group": {"family": "SL", "n": 2},
        "generators": {"a": matrix_to_json(a), "b": matrix_to_json(b)},
        "structure": {"type": "free"},
        "cone": {"compact": True},
    }))
    outputs = []
    for radius in ("2", "2.0", "2.5"):
        out = tmp_path / f"r{radius}.csv"
        rc = main([command, "--input", str(path), "--output", str(out),
                   "--radius", radius])
        if radius == "2.5":
            assert rc == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:")
            assert "--radius 2.5" in err[0]
            assert not out.exists()
        else:
            assert rc == 0
            outputs.append(out.read_bytes()
                           + (tmp_path / f"r{radius}.csv.json").read_bytes())
    assert outputs[0] == outputs[1]


_HEADERS = {"cartan": "id,mu_1", "ball": "word,length", "proximal": "id,status",
            "decompose": "word,factor_index", "bend": "t,generator",
            "stability": "t,word", "properness": "word,mu_norm"}


@pytest.mark.parametrize("command", sorted(_HEADERS))
def test_main_runs_every_command(tmp_path, sl2_matrix_file, so22_bending_file,
                                 command):
    assert sorted(cli._COMMANDS) == sorted(_HEADERS)
    a, b = schottky_sl2_matrices()
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({
        "field": {"kind": "real"}, "group": {"family": "SL", "n": 2},
        "generators": {"a": matrix_to_json(a), "b": matrix_to_json(b)},
        "structure": {"type": "free"}, "cone": {"compact": True}}))
    src = {"cartan": sl2_matrix_file, "proximal": sl2_matrix_file,
           "bend": so22_bending_file, "stability": so22_bending_file}.get(command, pres)
    out = tmp_path / "o.csv"
    # flags a command has no use for are taken and ignored, as before
    assert main([command, "--input", str(src), "--output", str(out),
                 "--radius", "2.0", "--seed", "7"]) == 0
    assert out.read_text().startswith(_HEADERS[command] + ",")


def test_flat_parser_keeps_every_flag():
    args = cli.build_parser().parse_args(["ball", "--input", "i", "--output", "o"])
    assert vars(args) == {"command": "ball", "input": "i", "output": "o",
                          "field": None, "group": None, "radius": 3,
                          "subdivision": None, "t": None, "eps": None,
                          "rho0": None, "seed": 0}
    args = cli.build_parser().parse_args([
        "stability", "--input", "i", "--output", "o", "--field", "padic:3",
        "--group", "SL:2", "--radius", "2.0", "--subdivision", "1.5",
        "--t", "0,0.1", "--eps", "0.2", "--rho0", "4", "--seed", "11"])
    assert (args.radius, args.subdivision, args.eps, args.rho0, args.seed) == (
        2.0, 1.5, 0.2, 4.0, 11)
    assert (args.field, args.group, args.t) == ("padic:3", "SL:2", "0,0.1")


@pytest.mark.parametrize("argv", [
    ["nosuch", "--input", "in.json", "--output", "o.csv"],
    ["ball", "--output", "o.csv"],
    ["--input", "in.json", "--output", "o.csv"],
    ["ball", "--input", "in.json", "--output", "o.csv", "--seed", "1.5"],
])
def test_bad_command_line_exits_2_and_writes_nothing(tmp_path, capsys,
                                                     sl2_presentation_file, argv):
    argv = [str(sl2_presentation_file) if x == "in.json" else
            str(tmp_path / x) if x == "o.csv" else x for x in argv]
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: cartanlab")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("radius", ["0", "2"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_subdivision_exits_2(tmp_path, capsys, sl2_presentation_file,
                                        radius, value):
    # inf used to exit 0 with "subdivision": Infinity in the sidecar, which
    # is no JSON; nan exited 2 with "cannot convert float NaN to integer"
    # (and at radius 0 exited 0 with NaN in the sidecar)
    out = tmp_path / "dec.csv"
    assert main(["decompose", "--input", str(sl2_presentation_file), "--output",
                 str(out), "--radius", radius, "--subdivision", value]) == 2
    assert capsys.readouterr().err == f"error: --subdivision {value} is not finite\n"
    assert sorted(tmp_path.iterdir()) == [sl2_presentation_file]


@pytest.mark.parametrize("radius", ["0", "1"])
@pytest.mark.parametrize("value", ["-1", "0"])
def test_subdivision_that_is_not_positive_exits_2(tmp_path, capsys,
                                                  sl2_presentation_file, radius,
                                                  value):
    # at radius 0 no word reaches decompose, which refuses R <= 0: the run
    # used to exit 0 with "subdivision": -1.0 in the sidecar
    out = tmp_path / "dec.csv"
    assert main(["decompose", "--input", str(sl2_presentation_file), "--output",
                 str(out), "--radius", radius, "--subdivision", value]) == 2
    assert capsys.readouterr().err == (
        f"error: --subdivision {float(value)!r} is not positive\n")
    assert sorted(tmp_path.iterdir()) == [sl2_presentation_file]


def _t_argv(tmp_path, so22_bending_file, command, t):
    """The source of t (text is the --t flag, a list the document's
    bending.t), and the argv and input of a report on the SO(2,2) bending
    document with it."""
    source, path = "--t", so22_bending_file
    if not isinstance(t, str):
        source, path = "bending.t", _bend_doc_file(tmp_path, t)
    argv = [command, "--input", str(path), "--output", str(tmp_path / "o.csv"),
            "--radius", "1"]
    return source, argv + [f"--t={t}"] * (source == "--t"), path


@pytest.mark.parametrize("command", ["bend", "stability"])
@pytest.mark.parametrize("t, item", [
    ("0,,1", ""), ("0,x", "x"), ("y", "y"),
    pytest.param([0, "", 1], "", id="doc-empty-text"),
    pytest.param([0, "x"], "x", id="doc-text"),
    pytest.param([True], True, id="doc-bool"),
    pytest.param([None], None, id="doc-null"),
    pytest.param([[0.1]], [0.1], id="doc-array")])
def test_t_items_that_are_not_numbers_exit_2(tmp_path, capsys, so22_bending_file,
                                             command, t, item):
    # float()'s own message used to be all the --t error said; bending.t
    # read true as 1.0
    source, argv, path = _t_argv(tmp_path, so22_bending_file, command, t)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {source} item {item!r} is not a number\n"
    assert sorted(tmp_path.iterdir()) == sorted({so22_bending_file, path})


@pytest.mark.parametrize("command", ["bend", "stability"])
@pytest.mark.parametrize("t, item, earlier", [
    ("0.1,0.10", "0.10", "0.1"), ("0,-0", "-0", "0.0"), ("0,0.5,1,5e-1", "5e-1", "0.5"),
    pytest.param([0.1, 0.1, 0.10], 0.1, "0.1", id="doc-0.1"),
    pytest.param([0, -0.0], -0.0, "0.0", id="doc-minus-0"),
    pytest.param([0, 0.5, "5e-1"], "5e-1", "0.5", id="doc-text-5e-1")])
def test_repeated_t_values_exit_2(tmp_path, capsys, so22_bending_file, command, t,
                                  item, earlier):
    # a repeated t used to write its CSV block twice under one sidecar entry
    source, argv, path = _t_argv(tmp_path, so22_bending_file, command, t)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {source} item {item!r} repeats {earlier}\n")
    assert sorted(tmp_path.iterdir()) == sorted({so22_bending_file, path})


_CELLS = {
    "float": st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 5e-324, -2.5e-310, math.nan, -math.inf]),
    "float64": st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    "int": st.integers(),
    "bool": st.booleans(),
    "str": st.text(max_size=4),
}


def _old_line(row):
    return ",".join(cli._fmt(x) for x in row)


def _written(rows, template=None):
    """The text ``_write_csv`` writes for rows, three lines per write."""
    with tempfile.TemporaryDirectory() as d, mock.patch.object(cli, "_CHUNK", 3):
        path = os.path.join(d, "t.csv")
        cli._write_csv(path, ["h"], rows, template)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


@given(st.lists(st.lists(st.one_of(*_CELLS.values()), min_size=1, max_size=5),
                max_size=8))
@settings(max_examples=150, deadline=None)
def test_csv_rows_without_a_template_are_the_old_lines(rows):
    assert _written(rows) == "h\n" + "".join(_old_line(r) + "\n" for r in rows)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_bulk_float_columns_write_the_old_lines(data):
    # the big reports' layout under one template: cells of other kinds,
    # then a run of float columns given as one cell of ``_float_rows`` text
    kinds = data.draw(st.lists(st.sampled_from(["int", "bool", "str"]), max_size=3))
    width = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.tuples(
        st.tuples(*[_CELLS[k] for k in kinds]),
        st.tuples(*[_CELLS["float"] | _CELLS["float64"]] * width)), max_size=8))
    want = "h\n" + "".join(_old_line(p + f) + "\n" for p, f in rows)
    cells = cli._float_rows(np.array([f for _, f in rows]).reshape(-1, width))
    bulk = [p + (c,) for (p, _), c in zip(rows, cells)]
    assert _written(bulk, ",".join(["%s"] * (len(kinds) + 1))) == want
