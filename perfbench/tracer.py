"""Outside-in tracing of cartanlab's layers.

``Tracer`` replaces, for the duration of a ``with`` block, every
module-level binding in ``cartanlab.*`` that *is* one of the target
functions (``from .x import y`` copies a binding into each importer, so
patching the defining module alone would miss most calls), plus
``GroupElement.__matmul__``, ``GroupElement.inv`` and
``numpy.linalg.svd``.  Span targets record (name, layer, start, end,
parent, report id); hot scalar targets record counts only.  Every
binding is restored on exit.  Nothing here is imported by the program.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

# (module, function) -> span group.  A group's inclusive time counts
# only its outermost spans, so recursion and nesting are not doubled.
SPAN_TARGETS = {
    ("wordgroups", "word_ball"): "wordgroups.word_ball",
    ("wordgroups", "evaluate"): "wordgroups.evaluate",
    ("wordgroups", "check_relators"): "wordgroups.check_relators",
    ("cartan", "cartan"): "cartan.cartan",
    ("exact", "det"): "exact.elim",
    ("exact", "inverse"): "exact.elim",
    ("exact", "rank"): "exact.elim",
    ("exact", "nullspace"): "exact.elim",
    ("exact", "solve"): "exact.elim",
    ("exact", "charpoly"): "exact.elim",
    ("transverse", "decompose"): "transverse.decompose",
    ("transverse", "orbit_data"): "transverse.orbit",
    ("projective", "proximal_analyze"): "projective.proximal",
    ("projective", "eps_proximal_check"): "projective.eps_check",
    ("stability", "stability_scan"): "stability.scan",
    ("stability", "properness_margin"): "stability.properness",
    ("stability", "mu_cone"): "stability.mu_cone",
    ("bending", "bend"): "bending.bend",
    ("bending", "so_subalgebra_basis"): "bending.basis",
    ("bending", "so_form_algebra"): "bending.basis",
    ("bending", "centralizer_in_algebra"): "bending.centralizer",
    ("bending", "module_decomposition_check"): "bending.module_check",
    ("bending", "bracket_closure_exact"): "bending.closure",
    ("bending", "zariski_density_witness"): "bending.witness",
    ("serialize", "read_json"): "serialize.load",
    ("serialize", "load_presentation_document"): "serialize.load",
    ("serialize", "load_matrix_document"): "serialize.load",
}

COUNT_TARGETS = {
    ("exact", "mat_mul"): "exact.mat_mul_calls",
    ("exact", "in_span"): "bending.in_span_calls",
    ("fields", "rational_valuation"): "fields.valuation_calls",
    ("transverse", "displacement"): "transverse.displacement_calls",
    ("bending", "bracket"): "bending.bracket_calls",
}


def _targets():
    """[(owner, attribute)] of every binding the tracer replaces."""
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cartanlab"
                                  or name.startswith("cartanlab."))]
    out = []
    for mod_name, fn_name in list(SPAN_TARGETS) + list(COUNT_TARGETS):
        original = getattr(sys.modules[f"cartanlab.{mod_name}"], fn_name)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    out.append((mod, attr))
    from cartanlab.cartan import GroupElement

    out += [(GroupElement, "__matmul__"), (GroupElement, "inv"),
            (np.linalg, "svd")]
    return out


def snapshot():
    """{(owner, attribute): bound object} of every traced binding."""
    return {(id(o), a): (o, a, o.__dict__[a]) for o, a in _targets()}


def is_pristine():
    """True when no tracer wrapper is installed anywhere."""
    return not any(getattr(fn, "_perfbench_wrapper", False)
                   for _, _, fn in snapshot().values())


class Tracer:
    """Span and counter recorder; use as ``with Tracer() as tr:``."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index, report]
        self.counts = Counter()
        self.inclusive = Counter()  # span group -> outermost span time
        self.self_time = Counter()  # layer -> self time
        self.report = None
        self._stack = []  # [span index, child time, group]
        self._group_depth = Counter()
        self._pending_bracket = False  # a bracket awaits its span test
        self._saved = []

    # -- spans ---------------------------------------------------------
    def _open(self, name, group):
        layer = group.split(".", 1)[0]
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           self.report])
        self._stack.append([len(self.spans) - 1, 0.0, group])
        self._group_depth[group] += 1

    def _close(self):
        idx, child, group = self._stack.pop()
        span = self.spans[idx]
        span[3] = time.perf_counter()
        dur = span[3] - span[2]
        self.self_time[span[1]] += dur - child
        self._group_depth[group] -= 1
        if self._group_depth[group] == 0:
            self.inclusive[group] += dur
        if self._stack:
            self._stack[-1][1] += dur

    def innermost_layer(self):
        return self.spans[self._stack[-1][0]][1] if self._stack else "none"

    def run_report(self, report_id, fn, *args):
        """Call fn(*args) under the root ``cli`` span of one report."""
        self.report = report_id
        self._open(report_id, "cli.main")
        try:
            return fn(*args)
        finally:
            self._close()
            self.report = None

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, fn, group):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        observe = _OBSERVERS.get(fn.__name__)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[f"{group}.calls"] += 1
            tracer._open(name, group)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "IndeterminateError":
                    tracer.counts[f"{group}.indeterminate"] += 1
                raise
            finally:
                tracer._close()
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        wrapper._perfbench_wrapper = True
        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts
        tracer = self

        if fn.__name__ == "in_span":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                result = fn(*args, **kwargs)
                top = tracer._stack[-1] if tracer._stack else None
                if top is not None and top[2] == "bending.closure" \
                        and tracer._pending_bracket:
                    tracer._pending_bracket = False
                    counts["bending.closure_tested"] += 1
                    counts["bending.closure_added"] += not result
                return result
        elif fn.__name__ == "bracket":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                tracer._pending_bracket = True
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

        wrapper._perfbench_wrapper = True
        return wrapper

    def _method_wrappers(self, matmul, inv, svd):
        counts = self.counts
        tracer = self

        @functools.wraps(matmul)
        def traced_matmul(a, b):
            exact = a.is_exact and b.is_exact
            counts["cartan.matmul_exact" if exact else "cartan.matmul_float"] += 1
            return matmul(a, b)

        @functools.wraps(inv)
        def traced_inv(a):
            counts["cartan.inv_calls"] += 1
            return inv(a)

        @functools.wraps(svd)
        def traced_svd(*args, **kwargs):
            counts[f"{tracer.innermost_layer()}.svd_calls"] += 1
            return svd(*args, **kwargs)

        for w in (traced_matmul, traced_inv, traced_svd):
            w._perfbench_wrapper = True
        return traced_matmul, traced_inv, traced_svd

    def __enter__(self):
        wrappers = {}
        for (mod_name, fn_name), group in SPAN_TARGETS.items():
            fn = getattr(sys.modules[f"cartanlab.{mod_name}"], fn_name)
            wrappers[id(fn)] = self._span_wrapper(fn, group)
        for (mod_name, fn_name), key in COUNT_TARGETS.items():
            fn = getattr(sys.modules[f"cartanlab.{mod_name}"], fn_name)
            wrappers[id(fn)] = self._count_wrapper(fn, key)
        from cartanlab.cartan import GroupElement

        methods = dict(zip(
            ("__matmul__", "inv", "svd"),
            self._method_wrappers(GroupElement.__matmul__, GroupElement.inv,
                                  np.linalg.svd),
        ))
        try:
            for owner, attr in _targets():
                original = owner.__dict__[attr]
                if owner is GroupElement or owner is np.linalg:
                    replacement = methods[attr]
                else:
                    replacement = wrappers[id(original)]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


# -- return-value observers (counts of work done by a call) ------------

def _observe_word_ball(counts, args, ball):
    rank = args[0].rank
    by_length = Counter(len(e.word) for e in ball.entries)
    radius = args[2] if len(args) > 2 else max(by_length, default=0)
    tested = 1 + sum(
        by_length.get(k, 0) * (2 * rank - (k > 0)) for k in range(radius)
    )
    counts["wordgroups.ball_elements"] += len(ball.entries)
    counts["wordgroups.ball_merges"] += len(ball.merges)
    counts["wordgroups.ball_words"] += tested


def _observe_evaluate(counts, args, _result):
    counts["wordgroups.evaluate_letters"] += len(args[0])


def _observe_decompose(counts, _args, dec):
    counts["transverse.accepted"] += bool(dec.accepted)


def _observe_eps(counts, _args, verdict):
    counts["projective.eps_samples"] += verdict.samples_checked
    counts["projective.eps_certified"] += bool(verdict.certified)


def _observe_scan(counts, _args, report):
    counts["stability.rows"] += len(report.rows)


def _observe_cartan(counts, args, _mu):
    kind = args[0].group.field.kind
    counts["cartan.calls_padic" if kind == "padic" else "cartan.calls_real"] += 1


_OBSERVERS = {
    "word_ball": _observe_word_ball,
    "evaluate": _observe_evaluate,
    "decompose": _observe_decompose,
    "eps_proximal_check": _observe_eps,
    "stability_scan": _observe_scan,
    "cartan": _observe_cartan,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, traced_wall: float):
    """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
    c, inc = tr.counts, tr.inclusive
    cli_self = tr.self_time["cli"]
    return {
        "wordgroups.word_ball_s": inc["wordgroups.word_ball"],
        "wordgroups.ball_elements": c["wordgroups.ball_elements"],
        "wordgroups.ball_merges": c["wordgroups.ball_merges"],
        "wordgroups.ball_yield": _ratio(c["wordgroups.ball_elements"],
                                        c["wordgroups.ball_words"]),
        "wordgroups.evaluate_s": inc["wordgroups.evaluate"],
        "wordgroups.evaluate_calls": c["wordgroups.evaluate.calls"],
        "wordgroups.evaluate_letters": c["wordgroups.evaluate_letters"],
        "wordgroups.check_relators_s": inc["wordgroups.check_relators"],
        "cartan.self_s": tr.self_time["cartan"],
        "cartan.calls_real": c["cartan.calls_real"],
        "cartan.calls_padic": c["cartan.calls_padic"],
        "cartan.matmul_exact": c["cartan.matmul_exact"],
        "cartan.matmul_float": c["cartan.matmul_float"],
        "cartan.inv_calls": c["cartan.inv_calls"],
        "cartan.svd_calls": c["cartan.svd_calls"],
        "exact.elim_s": inc["exact.elim"],
        "exact.elim_calls": c["exact.elim.calls"],
        "exact.mat_mul_calls": c["exact.mat_mul_calls"],
        "fields.valuation_calls": c["fields.valuation_calls"],
        "transverse.decompose_s": inc["transverse.decompose"],
        "transverse.decompose_calls": c["transverse.decompose.calls"],
        "transverse.accepted_ratio": _ratio(
            c["transverse.accepted"], c["transverse.decompose.calls"]),
        "transverse.orbit_s": inc["transverse.orbit"],
        "transverse.displacement_calls": c["transverse.displacement_calls"],
        "projective.proximal_s": inc["projective.proximal"],
        "projective.eps_check_s": inc["projective.eps_check"],
        "projective.eps_samples": c["projective.eps_samples"],
        "projective.eps_certified_ratio": _ratio(
            c["projective.eps_certified"], c["projective.eps_check.calls"]),
        "projective.indeterminate_ratio": _ratio(
            c["projective.proximal.indeterminate"],
            c["projective.proximal.calls"]),
        "stability.scan_s": inc["stability.scan"],
        "stability.rows": c["stability.rows"],
        "stability.properness_s": inc["stability.properness"],
        "bending.bend_s": inc["bending.bend"],
        "bending.closure_s": inc["bending.closure"],
        "bending.witness_s": inc["bending.witness"],
        "bending.in_span_calls": c["bending.in_span_calls"],
        "bending.closure_yield": _ratio(c["bending.closure_added"],
                                        c["bending.closure_tested"]),
        "bending.svd_calls": c["bending.svd_calls"],
        "serialize.load_s": inc["serialize.load"],
        "cli.self_s": cli_self,
        "trace.coverage_frac": _ratio(traced_wall - cli_self, traced_wall),
    }


def span_records(tr: Tracer, origin: float):
    """Spans as JSON-ready rows, times in seconds from ``origin``."""
    return [[name, layer, round(s - origin, 7), round(e - origin, 7), parent,
             report] for name, layer, s, e, parent, report in tr.spans]
