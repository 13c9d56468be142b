"""Output checker and accuracy oracles.

Nothing here calls cartanlab: each check reads the report files and the
input documents and recomputes what it needs with its own arithmetic
(Python fractions, numpy on plain arrays, mpmath at 60 digits), so a
defect in a shared code path cannot hide itself.  ``check_report``
returns a list of problems; an empty list means the report holds.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import numpy as np

MU_DIGITS = 60
PADIC_RESIDUAL_DIGITS = 20
REL_TOL = 1e-9


# -- parsing -----------------------------------------------------------

def read_rows(text):
    """(header, rows) of a CSV report."""
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def exact_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def valuation(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _free_ball_size(rank, radius):
    """Reduced words of length <= radius in a free group of given rank."""
    return 1 + sum(2 * rank * (2 * rank - 1) ** (k - 1)
                   for k in range(1, radius + 1))


def is_free(doc):
    return (doc.get("structure", {"type": "free"})["type"] != "hnn"
            and not doc.get("structure", {}).get("gamma0")
            and not doc.get("relators"))


def _form(doc):
    g = doc["group"]
    return np.diag([1.0] * g["p"] + [-1.0] * g["q"])


def _preserves_form(M, J):
    scale = max(1.0, float(np.abs(M).max()) ** 2)
    return float(np.abs(M.T @ J @ M - J).max()) <= REL_TOL * scale


# -- per-command checks ------------------------------------------------

def check_stability(argv, doc, header, rows, side):
    out = []
    ts = [float(t) for t in _arg(argv, "--t", "0").split(",")]
    fits = side["fits"]
    radius = int(_arg(argv, "--radius"))
    col = {name: i for i, name in enumerate(header)}
    per_t = {}
    for row in rows:
        t = float(row[col["t"]])
        fit = fits[str(t)]
        per_t[t] = per_t.get(t, 0) + 1
        mu, dev = float(row[col["mu_norm"]]), float(row[col["deviation"]])
        bound = fit["eps_hat"] * mu + fit["c_hat"]
        if dev > bound + REL_TOL * max(1.0, bound):
            out.append(f"row {row[:2]} above the envelope: {dev} > {bound}")
    if is_free(doc):
        want = _free_ball_size(len(doc["generators"]), radius)
        if any(per_t.get(t) != want for t in ts):
            out.append(f"rows per t {per_t} != free ball size {want}")
    if 0.0 in ts and (fits["0.0"]["eps_hat"] != 0 or fits["0.0"]["c_hat"] != 0):
        out.append(f"fit at t=0 is not zero: {fits['0.0']}")
    eps = [fits[str(t)]["eps_hat"] for t in sorted(ts)]
    if any(b <= a for a, b in zip(eps, eps[1:])):
        out.append(f"eps_hat does not strictly increase over t: {eps}")
    return out


def check_ball(argv, doc, header, rows, side):
    out = []
    radius = int(_arg(argv, "--radius"))
    if side["elements"] != len(rows) or not side["complete"] \
            or side["radius"] != radius:
        out.append(f"sidecar {side} disagrees with {len(rows)} rows")
    if len(set(row[0] for row in rows)) != len(rows):
        out.append("repeated words")
    if is_free(doc):
        want = _free_ball_size(len(doc["generators"]), radius)
        if len(rows) != want:
            out.append(f"free ball has {len(rows)} elements, expected {want}")
    if doc["group"]["family"] == "SO":
        J = _form(doc)
        n = J.shape[0]
        for row in rows:
            M = np.array([float(Fraction(x)) for x in row[2:]]).reshape(n, n)
            if not _preserves_form(M, J):
                out.append(f"element {row[0]} leaves the group")
                break
    return out


def check_decompose(argv, doc, header, rows, side):
    out = []
    col = {name: i for i, name in enumerate(header)}
    tol = 1e-9
    for row in rows:
        if row[col["accepted"]] != "True":
            continue
        d = float(row[col["d_achieved"]])
        if d > float(row[col["ceiling"]]) + tol:
            out.append(f"{row[0]}: d_achieved {d} above the ceiling")
        gap = row[col["gap_defect"]]
        if gap and float(gap) < -d - tol:
            out.append(f"{row[0]}: gap {gap} below -d_achieved {-d}")
    radius = int(_arg(argv, "--radius"))
    words = {row[0] for row in rows}
    if is_free(doc):
        want = _free_ball_size(len(doc["generators"]), radius) - 1
        if len(words) != want:
            out.append(f"{len(words)} words decomposed, expected {want}")
    return out


def check_properness(argv, doc, header, rows, side):
    out = []
    slope, intercept = side["slope"], side["intercept"]
    for word, mu, margin in rows:
        floor = slope * float(mu) - intercept
        if float(margin) < floor - REL_TOL * max(1.0, abs(floor)):
            out.append(f"{word}: margin {margin} below the envelope {floor}")
    radius = int(_arg(argv, "--radius"))
    if is_free(doc) and len(rows) != _free_ball_size(
            len(doc["generators"]), radius):
        out.append(f"{len(rows)} rows for a free ball of radius {radius}")
    return out


def _proximal_expected(M, field):
    """SL_2 oracle: hyperbolic over R iff |tr| > 2; over Q_p iff v(tr) < 0."""
    tr = M[0][0] + M[1][1]
    if field["kind"] == "padic":
        return tr != 0 and valuation(tr, field["p"]) < 0
    return abs(tr) > 2


def check_proximal(argv, doc, header, rows, side):
    out = []
    field = doc["field"]
    col = {name: i for i, name in enumerate(header)}
    mats = dict(zip(doc["ids"], doc["matrices"]))
    if [row[0] for row in rows] != doc["ids"]:
        out.append("row ids differ from the input ids")
    for row in rows:
        M = exact_matrix(mats[row[0]])
        proximal = row[col["status"]] == "proximal"
        if len(M) == 2 and proximal != _proximal_expected(M, field):
            out.append(f"{row[0]}: status {row[col['status']]} is wrong")
        if not proximal:
            continue
        vec = row[col["attracting"]].split(";")
        lam = row[col["eigenvalue"]]
        if field["kind"] == "padic":
            p = field["p"]
            v = [Fraction(x) for x in vec]
            lam = Fraction(lam)
            res = [sum(M[i][j] * v[j] for j in range(len(v))) - lam * v[i]
                   for i in range(len(v))]
            if any(res):
                scale = valuation(lam, p) + min(
                    valuation(x, p) for x in v if x)
                digits = min(valuation(x, p) for x in res if x) - scale
                exact = row[col["eigenvalue_exact"]] == "True"
                if exact or digits < PADIC_RESIDUAL_DIGITS:
                    out.append(f"{row[0]}: eigenvector residual has only "
                               f"{digits} p-adic digits")
        else:
            A = np.array([[float(x) for x in r] for r in M])
            v = np.array([float(x) for x in vec])
            lam = float(lam)
            res = np.abs(A @ v - lam * v).max() / (abs(lam) * np.abs(v).max())
            if not res <= 1e-9:
                out.append(f"{row[0]}: eigenvector residual {res:.3g}")
    return out


def check_bend(argv, doc, header, rows, side):
    out = []
    if side["module_decomposition_ok"] is not True:
        out.append("module decomposition check failed")
    ts = [float(t) for t in _arg(argv, "--t").split(",")]
    want = {str(t): t != 0.0 for t in ts}
    if side["witnesses"] != want:
        out.append(f"witnesses {side['witnesses']} != {want}")
    J = _form(doc)
    n = J.shape[0]
    images = {}
    for t, gen, i, j, value in rows:
        images.setdefault((t, gen), np.zeros((n, n)))[int(i), int(j)] = \
            float(value)
    if len(images) != len(ts) * len(doc["generators"]) or \
            len(rows) != len(images) * n * n:
        out.append(f"{len(rows)} rows do not cover every image")
    for key, M in images.items():
        if not _preserves_form(M, J):
            out.append(f"image {key} does not preserve the form")
    return out


def check_cartan(argv, doc, header, rows, side):
    out = []
    if [row[0] for row in rows] != doc["ids"]:
        out.append("row ids differ from the input ids")
    return out


CHECKS = {
    "stability": check_stability,
    "ball": check_ball,
    "decompose": check_decompose,
    "properness": check_properness,
    "proximal": check_proximal,
    "bend": check_bend,
    "cartan": check_cartan,
}


def check_report(argv, doc, csv_text, sidecar_text):
    """Problems found in one report's outputs (empty when it holds)."""
    try:
        header, rows = read_rows(csv_text)
        side = json.loads(sidecar_text) if sidecar_text is not None else None
        return CHECKS[argv[0]](argv, doc, header, rows, side)
    except (KeyError, ValueError, IndexError, TypeError, ZeroDivisionError) \
            as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# -- accuracy oracles --------------------------------------------------

def true_mu(M, doc):
    """Oracle Cartan projection of an exact matrix, as floats."""
    field, group = doc["field"], doc["group"]
    if field["kind"] == "padic":
        m = -min(valuation(x, field["p"]) for row in M for x in row if x)
        return [float(m), float(-m)]
    import mpmath

    with mpmath.workdps(MU_DIGITS):
        A = mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator
                            for x in row] for row in M])
        if group["family"] == "SL" and group["n"] == 2:
            fro = sum(x * x for row in M for x in row)
            fro = mpmath.mpf(fro.numerator) / fro.denominator
            s1 = (mpmath.sqrt(fro + 2) + mpmath.sqrt(fro - 2)) / 2
            return [float(mpmath.log(s1)), float(-mpmath.log(s1))]
        ev = mpmath.eigsy(A.T * A, eigvals_only=True)
        logs = sorted((mpmath.log(e) / 2 for e in ev), reverse=True)
        k = min(group["p"], group["q"])
        return [float(x) for x in logs[:k]]


def mu_relative_errors(doc, csv_text):
    """Relative error ||mu_reported - mu_true|| / ||mu_true|| per row."""
    header, rows = read_rows(csv_text)
    k = sum(1 for h in header if h.startswith("mu_") and h != "mu_norm")
    errs = []
    for row, mat in zip(rows, doc["matrices"]):
        got = np.array([float(x) for x in row[1:1 + k]])
        want = np.array(true_mu(exact_matrix(mat), doc))
        norm = float(np.linalg.norm(want))
        diff = float(np.linalg.norm(got - want))
        errs.append(diff / norm if norm > 1e-12 else diff)
    return errs


def exact_ball_size(doc, radius):
    """Size of the exact word ball of an SO(p,q) presentation, by a
    breadth-first search of its own (inverse = J M^T J)."""
    J = [1] * doc["group"]["p"] + [-1] * doc["group"]["q"]
    n = len(J)

    def mul(A, B):
        return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(n))
                           for j in range(n)) for i in range(n))

    letters = []
    for rows in doc["generators"].values():
        M = tuple(tuple(Fraction(x) for x in row) for row in rows)
        Minv = tuple(tuple(J[i] * M[j][i] * J[j] for j in range(n))
                     for i in range(n))
        letters.append((M, Minv))
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(n))
                  for i in range(n))
    seen = {ident}
    frontier = [((), ident)]
    for _ in range(radius):
        nxt = []
        for word, g in frontier:
            for i, pair in enumerate(letters):
                for e, M in ((1, pair[0]), (-1, pair[1])):
                    if word and word[-1] == (i, -e):
                        continue
                    h = mul(g, M)
                    if h not in seen:
                        seen.add(h)
                        nxt.append((word + ((i, e),), h))
        frontier = nxt
    return len(seen)
