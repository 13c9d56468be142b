"""Batch front-end: load JSON inputs, run analyses, emit CSV/JSON.

One flat parser takes the command name and the flags all commands
share (``cartanlab --help``).  Each command reads one JSON document (see
`serialize`), writes one CSV with a header row (big reports format float
columns in bulk and each line by one ``%`` template), and for report
commands a JSON sidecar at the CSV path + ".json".  Output is
byte-deterministic for a fixed config: iteration orders are the
breadth-first word order and floats print with 12 significant digits.
Nothing is sampled: --seed still parses, so old command lines run, but
it has no effect.

Exit codes: 0 success, 2 precondition/input failure, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain, islice, repeat

import numpy as np

from .bending import (
    BendingFamily,
    bend,
    centralizer_in_algebra,
    edge_words,
    module_decomposition_check,
    pick_Y,
    so_form_algebra,
    so_subalgebra_basis,
    zariski_density_witness,
)
from .bending import QuadFormSpace
from .cartan import _mu_rows, to_float_array
from .errors import (
    CartanLabError,
    IndeterminateError,
    NumericalError,
    PreconditionError,
)
from .projective import check_eps, eps_proximal_check, proximal_analyze
from .serialize import (
    _expect,
    _integer,
    element_from_json,
    load_matrix_document,
    load_presentation_document,
    parameters,
    read_json,
    scalar_to_str,
)
from .stability import ConeModel, mu_cone, properness_margin, stability_scans
from .transverse import RankOneModel, decompose, displacement, orbit_data
from .wordgroups import evaluate, inclusion, word_ball


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _float_cells(values) -> str:
    """The CSV cells of a run of floats: one ``%.12g`` template for all of
    them, the same text as ``_fmt`` gives each."""
    return ",".join(["%.12g"] * len(values)) % tuple(values)


_CHUNK = 256  # CSV lines per write


def _write_csv(path, header, rows, template=None):
    """The header line, then one line per row, ``_CHUNK`` lines per write.
    A big report gives one ``%`` template for all its rows (tuples), with
    its float columns as one ``%s`` cell of ``_float_rows`` text; without
    a template each cell is written by ``_fmt``.  rows is read once, so it
    may be a generator: no copy of the whole text, nor of the rows, is
    held in memory."""
    lines = (map(template.__mod__, rows) if template
             else (",".join([_fmt(x) for x in row]) for row in rows))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(islice(lines, _CHUNK)):
            fh.write("\n".join(chunk) + "\n")


def _write_sidecar(path, payload):
    with open(path + ".json", "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _radius(args) -> int:
    """The --radius flag as an int; a non-integral value is refused."""
    if not float(args.radius).is_integer():
        raise PreconditionError(f"--radius {args.radius!r} is not an integer")
    return int(args.radius)


def _t_flag(args, default) -> list:
    """The parameters of the comma-separated --t flag, default without it."""
    return parameters(args.t.split(","), "--t") if args.t else default


def _load_matrices(args):
    """A matrix document whose field and group a --field or --group flag
    replaces by the JSON object its text stands for (``padic:3`` gives
    "p": "3", ``SO:2,2`` gives "p": "2" and "q": "2"), for the document's
    own readers to read."""
    obj = read_json(args.input)
    if args.field:
        kind, _, arg = args.field.partition(":")
        obj["field"] = {"kind": kind, "p": arg, "r": arg}
    if args.group:
        family, _, arg = args.group.partition(":")
        p, _, q = arg.partition(",")
        obj["group"] = {"family": family, "n": arg, "p": p, "q": q}
    return load_matrix_document(obj)


def cmd_cartan(args) -> int:
    field, group, items = _load_matrices(args)
    mu = np.asarray(_mu_rows([g for _, g in items], group), dtype=float)
    norms = np.sqrt(sum(x * x for x in mu.T))  # squares added as ``mu_norm`` adds them
    header = ["id"] + [f"mu_{i + 1}" for i in range(mu.shape[1])] + ["mu_norm"]
    cells = _float_rows(np.column_stack([mu, norms]))
    _write_csv(args.output, header, zip([name for name, _ in items], cells), "%s,%s")
    return 0


def _float_rows(stack) -> list:
    """``_float_cells`` of every row of a 2-D real array, formatting each
    distinct bit pattern once (-0.0, 0.0 and NaN payloads stay apart)."""
    flat = np.ascontiguousarray(stack, dtype=np.float64)
    bits, inverse = np.unique(flat.view(np.int64).reshape(-1), return_inverse=True)
    texts = np.array(_float_cells(bits.view(np.float64).tolist()).split(","),
                     dtype=object)  # text k of distinct value k, picked by inverse
    return [",".join(row) for row in texts[inverse.reshape(flat.shape)].tolist()]


def _ratio_cell(x: int, d: int) -> str:
    """The text ``str(Fraction(x, d))`` gives, for d > 0, with no Fraction."""
    g = math.gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def _element_cells(g) -> str:
    """The CSV cells of one element's matrix, joined: a rational element's
    entries from its (N, d), other exact and complex entries as scalar
    text, real floats (the root of a complex ball) by ``_float_cells``."""
    if g.ratio is not None:
        N, d = g.ratio
        return ",".join([_ratio_cell(x, d) for row in N for x in row])
    mat = g.matrix
    if not isinstance(mat, np.ndarray):
        return ",".join([scalar_to_str(x) for row in mat for x in row])
    if mat.dtype.kind == "c":
        return ",".join([scalar_to_str(x) for x in mat.reshape(-1).tolist()])
    return _float_cells(mat.reshape(-1).tolist())


def cmd_ball(args) -> int:
    radius = _radius(args)
    field, group, pres, _ = load_presentation_document(read_json(args.input))
    ball = word_ball(pres, inclusion(pres), radius)
    n = group.size
    header = ["word", "length"] + [
        f"entry_{i}_{j}" for i in range(n) for j in range(n)
    ]
    if ball.stack is not None and ball.stack.dtype.kind == "f":
        cells = _float_rows(ball.stack.reshape(len(ball), -1))
    else:  # exact, or complex with the real identity at the root
        cells = [_element_cells(g) for g in ball.elements()]
    _write_csv(args.output, header,
               zip(ball.labels(pres.symbols), ball.lengths(), cells), "%s,%s,%s")
    _write_sidecar(args.output, {
        "elements": len(ball),
        "complete": ball.complete,
        "radius": radius,
        "merges": ball.merge_count,
    })
    return 0


def cmd_proximal(args) -> int:
    if args.eps is not None:
        check_eps(args.eps)
    field, group, items = _load_matrices(args)
    header = [
        "id", "status", "eigenvalue", "eigenvalue_exact", "gap_ratio",
        "attracting", "repelling", "eps_ok", "eps_certified",
    ]
    rows = []
    for name, g in items:
        try:
            pd = proximal_analyze(g.matrix, field)
        except IndeterminateError:
            rows.append([name, "indeterminate", "", "", "", "", "", "", ""])
            continue
        if pd is None:
            rows.append([name, "not_proximal", "", "", "", "", "", "", ""])
            continue
        att = ";".join(scalar_to_str(x) for x in pd.attracting.vec)
        rep = ";".join(scalar_to_str(x) for x in pd.repelling.functional)
        eps_ok = eps_cert = ""
        if args.eps is not None:
            verdict = eps_proximal_check(g.matrix, float(args.eps), field, pd=pd)
            eps_ok, eps_cert = verdict.ok, verdict.certified
        rows.append([
            name, "proximal", scalar_to_str(pd.eigenvalue),
            pd.eigenvalue_exact, pd.gap_ratio, att, rep, eps_ok, eps_cert,
        ])
    _write_csv(args.output, header, rows)
    return 0


def _model_for(group):
    if group.family == "SL" and group.n == 2 and group.field.kind != "complex":
        if group.field.kind == "padic":
            return RankOneModel.sl2_tree(group.field.p)
        return RankOneModel.sl2_real()
    if (group.family == "SO" and group.q == 1
            and group.field.kind in ("real", "quadratic")):
        return RankOneModel.hyperboloid(group.form)
    f = group.field
    over = {"real": "R", "complex": "C", "padic": f"Q_{f.p}",
            "quadratic": f"Q(sqrt {f.r})"}[f.kind]
    raise PreconditionError(
        f"no rank-one model for this group over {over} (need SL(2) over R, "
        "Q(sqrt r) or Q_p, or SO(m,1) over R or Q(sqrt r))"
    )


def cmd_decompose(args) -> int:
    ball_radius = _radius(args)
    field, group, pres, _ = load_presentation_document(read_json(args.input))
    model = _model_for(group)
    phi = inclusion(pres)
    R, what = args.subdivision, "--subdivision"
    if R is None:
        R = max(displacement(g, model) for g in pres.generators)
        what = "the largest generator displacement"
    if not 0 < R < math.inf:  # decompose's test, here too: a radius-0 ball has no word
        problem = "positive" if R <= 0 else "finite"
        raise PreconditionError(f"{what} {R!r} is not {problem}")
    orbit = orbit_data(pres, phi, model, ball_radius)
    header = [
        "word", "factor_index", "factor_word", "displacement", "gap_defect",
        "d_achieved", "ceiling", "accepted",
    ]
    rows = []
    for e, wname in zip(orbit.ball.entries, orbit.ball.labels(pres.symbols)):
        if len(e.word) == 0:
            continue
        dec = decompose(e.word, pres, model, R, phi=phi, orbit=orbit)
        if not dec.accepted:
            rows.append([wname, -1, "", "", "", "", "", False])
            continue
        for i, (w, d) in enumerate(zip(dec.factors, dec.displacements)):
            gap = dec.gap_defects[i - 1] if 0 < i <= len(dec.gap_defects) else ""
            rows.append([
                wname, i, w.format(pres.symbols), float(d), gap,
                dec.d_achieved, dec.predicted_ceiling, True,
            ])
    _write_csv(args.output, header, rows)
    _write_sidecar(args.output, {
        "subdivision": float(R),
        "ball_radius": ball_radius,
        "model": model.kind,
    })
    return 0


def _bending_family(pres, group, bending_block):
    if bending_block is None:
        raise PreconditionError("presentation file carries no bending block")
    if group.family != "SO" or group.q != 2:
        raise PreconditionError("bending needs an SO(m,2) group descriptor")
    space = QuadFormSpace(group.form)
    fixed = (_integer(bending_block, "fixed_coordinate")
             if "fixed_coordinate" in bending_block else space.dim - 1)
    sub = so_subalgebra_basis(space, fixed)
    if "Y" in bending_block:
        Y = bending_block["Y"]
    else:
        phi = inclusion(pres)
        edge = [evaluate(w, phi) for w in edge_words(pres.structure)]
        if not all(g.is_exact for g in edge):  # the centralizer is solved exactly
            raise PreconditionError("the edge group has float entries: give the "
                                    "bending direction Y in the bending block")
        Y = pick_Y(centralizer_in_algebra(edge, so_form_algebra(space)), sub)
    ts = parameters(_expect(bending_block.get("t", [0.0]), list, "bending.t"),
                    "bending.t")
    return BendingFamily(pres, Y, subalgebra=sub), ts, space.dim - 2


def cmd_bend(args) -> int:
    field, group, pres, bending_block = load_presentation_document(
        read_json(args.input))
    family, ts, m = _bending_family(pres, group, bending_block)
    # before any output: an so(J) too small for the check exits 2 and
    # writes nothing
    verdict = module_decomposition_check(family.subalgebra)
    ts = _t_flag(args, ts)
    header = ["t", "generator", "row", "col", "value"]
    stacks = []  # every bent image as floats, before any output
    witnesses = {}
    for t in ts:
        stacks.append(np.array([to_float_array(g) for g in bend(family, t).images]))
        witnesses[str(t)] = bool(
            zariski_density_witness(family.exp, t, family.subalgebra))
    n = group.size
    keys = [f"{sym},{i},{j}" for sym in pres.symbols
            for i in range(n) for j in range(n)]
    _write_csv(args.output, header, chain.from_iterable(
        zip(repeat(_fmt(t)), keys, _float_cells(s.reshape(-1).tolist()).split(","))
        for t, s in zip(ts, stacks)), "%s,%s,%s")
    _write_sidecar(args.output, {
        "witnesses": witnesses,
        "module_decomposition_ok": verdict.ok,
        "m": m,
        "density_assumption": (
            "witness certifies the Lie-algebra condition; Zariski density "
            "of the side groups in the rank-one subgroup is an input "
            "assumption of the shipped surrogates"
        ),
    })
    return 0


def cmd_stability(args) -> int:
    radius = _radius(args)
    field, group, pres, bending_block = load_presentation_document(
        read_json(args.input))
    rho0 = float(args.rho0) if args.rho0 is not None else None
    phi_ref = inclusion(pres)
    ts = _t_flag(args, [0.0])
    family = None
    if bending_block is not None:
        family, _, _ = _bending_family(pres, group, bending_block)
    elif any(t != 0.0 for t in ts):
        raise PreconditionError(
            "nonzero t needs a bending block in the presentation file")
    phis = [phi_ref if family is None else bend(family, t) for t in ts]
    reports = stability_scans(pres, phi_ref, phis, radius, rho0=rho0)
    labels = reports[0].ball.labels(pres.symbols)
    header = ["t", "word", "length", "mu_norm", "deviation"]
    _write_csv(args.output, header, chain.from_iterable(
        zip(repeat(_fmt(t)), labels, [r.length for r in rep.rows],
            _float_rows([[r.mu_norm, r.deviation] for r in rep.rows]))
        for t, rep in zip(ts, reports)), "%s,%s,%s,%s")
    fit = ("eps_hat", "c_hat", "rho0", "radius", "policy")
    _write_sidecar(args.output, {"fits": {
        str(t): {k: getattr(rep, k) for k in fit} for t, rep in zip(ts, reports)}})
    return 0


def cmd_properness(args) -> int:
    radius = _radius(args)
    obj = read_json(args.input)
    field, group, pres, _ = load_presentation_document(obj)
    cone_block = obj.get("cone")
    if not isinstance(cone_block, dict):
        raise PreconditionError("properness needs a cone object in the input")
    if _expect(cone_block.get("compact", False), bool, "cone.compact"):
        cone = ConeModel([], group.mu_length)
    else:
        axis = [element_from_json(rows, field, group) for rows in
                _expect(cone_block["matrices"], list, "cone.matrices")]
        cone = mu_cone(axis, group)
    ball = word_ball(pres, inclusion(pres), radius).require_complete()
    rho0 = float(args.rho0) if args.rho0 is not None else None
    report = properness_margin(ball.elements(), cone, rho0=rho0, radius=radius)
    header = ["word", "mu_norm", "margin"]
    cells = _float_rows([[r.mu_norm, r.margin] for r in report.rows])
    _write_csv(args.output, header, zip(ball.labels(pres.symbols), cells), "%s,%s")
    _write_sidecar(args.output, {
        "slope": report.slope,
        "intercept": report.intercept,
        "rho0": report.rho0,
        "radius": radius,
        "note": report.note,
        "cone_rays": [[float(x) for x in ray] for ray in cone.rays],
    })
    return 0


_COMMANDS = {"cartan": cmd_cartan, "ball": cmd_ball, "proximal": cmd_proximal,
             "decompose": cmd_decompose, "bend": cmd_bend,
             "stability": cmd_stability, "properness": cmd_properness}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartanlab",
        description="Cartan projections, word balls, and deformation reports",
    )
    parser.add_argument("command", choices=_COMMANDS, help="the report to run")
    parser.add_argument("--input", required=True, help="input JSON path")
    parser.add_argument("--output", required=True, help="output CSV path")
    parser.add_argument("--field", help="field override, e.g. padic:3")
    parser.add_argument("--group", help="group override, e.g. SL:2 or SO:2,2")
    parser.add_argument("--radius", type=float, default=3,
                        help="word-ball radius (integer commands)")
    parser.add_argument("--subdivision", type=float, default=None,
                        help="geodesic subdivision length for decompose")
    parser.add_argument("--t", help="comma-separated deformation parameters")
    parser.add_argument("--eps", type=float, default=None,
                        help="eps-proximality threshold for proximal (> 0)")
    parser.add_argument("--rho0", type=float, default=None,
                        help="short-element cutoff for envelope fits")
    parser.add_argument("--seed", type=int, default=0,
                        help="no effect: eps-proximality is decided exactly "
                        "and nothing is sampled")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NumericalError, IndeterminateError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (CartanLabError, KeyError, ValueError, OSError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
