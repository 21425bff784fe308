"""Spans and counters around gapvir's public functions, installed from outside.

``Tracer.install`` replaces functions at their module and class attributes
with wrappers; ``uninstall`` puts the originals back.  Nothing under ``src/``
is edited.  A module-level function is replaced in every gapvir module that
binds it (``gapvir.cli`` imports ``gram`` by name, for instance), so calls
through any of those names are seen.

Spans are ``[name, start_ns, end_ns, parent, request]`` lists kept in memory;
``parent`` is the index of the enclosing span or -1.  Fine-grained calls
(``act_gen``, ``Scalar`` construction, ``bracket_gens``, ``act_vector``,
``sugawara_l``) only bump counters.
"""

import functools
import sys
import time

# The end-to-end metric and workload each per-layer metric should move.
DEEP = "requests_per_s, request_s_p50 on oracle-deep; unchanged on cli-mixed-small"
LDL = "requests_per_s on oracle-deep; secondarily reducibility-sweep"
SWEEP = "requests_per_s on reducibility-sweep; small on oracle-deep"
SMALL = ("request_s_p50, request_s_p90, requests_per_s on cli-mixed-small; "
         "about zero on oracle-deep")

# Per-layer metrics: (name, unit, what it should move).
# "<span>_s" is the inclusive time of the outermost spans of that name;
# "<span>_self_s" subtracts the time covered by child spans.
LAYER_METRICS = [
    ("forms.gram_s", "s", DEEP),
    ("forms.gram_entries", "count", DEEP),
    ("verma.act_s", "s", DEEP),
    ("verma.act_gen_calls", "count", DEEP),
    ("scalars.constructed", "count", DEEP),
    ("forms.definiteness_s", "s", LDL),
    ("forms.ldl_pivots", "count", LDL),
    ("linalg.nullspace_s", "s", SWEEP),
    ("linalg.rank_s", "s", SWEEP),
    ("linalg.matrix_cells", "count", SWEEP),
    ("verma.singular_vectors_s", "s", SWEEP),
    ("algebra.bracket_s", "s", SMALL),
    ("algebra.bracket_gens_calls", "count", SMALL),
    ("algebra.involution_s", "s", SMALL),
    ("series.axiom_check_s", "s", SMALL),
    ("series.act_vector_calls", "count", SMALL),
    ("oscillator.sugawara_s", "s", SMALL),
    ("oscillator.sugawara_calls", "count", SMALL),
    ("verma.pbw_basis_s", "s", SMALL),
    ("cli.self_s", "s", SMALL),
    ("unitarity.closed_form_s", "s", "requests_per_s on oracle-deep"),
    ("unitarity.oracle_self_s", "s", "requests_per_s on oracle-deep"),
    ("verma.act_gen_distinct", "count", "peak_rss_mb on oracle-deep"),
    ("verma.basis_dim_max", "count", "peak_rss_mb on oracle-deep"),
    ("trace.overhead", "ratio", "none: traced wall time / untraced wall time, same requests"),
]

# Counters that must repeat exactly between two traced passes over the same requests.
EXACT_COUNTERS = (
    "scalars.constructed", "verma.act_gen_calls", "verma.act_gen_distinct",
    "forms.gram_entries", "forms.ldl_pivots", "linalg.matrix_cells",
    "algebra.bracket_gens_calls", "series.act_vector_calls", "oscillator.sugawara_calls",
)

ROOT_SPAN = "cli.main"
# Attribute set on every wrapper, so that a leftover wrapper can be found.
MARK = "_bench_wrapper"


def self_times(spans):
    """Per span, its duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for k, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(k)
    out = []
    for k, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c in sorted(children[k], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def span_totals(spans):
    """{name: (inclusive ns, self ns)}; inclusive counts only the outermost span
    of a name, so a recursive call is not counted twice."""
    selfs = self_times(spans)
    totals = {}
    for k, (name, start, end, parent, _) in enumerate(spans):
        incl, own = totals.get(name, (0, 0))
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            incl += end - start
        totals[name] = (incl, own + selfs[k])
    return totals


class Tracer:
    """Installs wrappers on gapvir, records spans and counters, removes them again."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1
        self.counts = {name: 0 for name in EXACT_COUNTERS}
        self.counts["verma.basis_dim_max"] = 0
        self._seen = {}
        self._patches = []

    # -- recording --------------------------------------------------------

    def reset(self):
        """Forget spans and zero the counters (in place: the wrappers hold the dict)."""
        self.spans = []
        self.stack = []
        for name in self.counts:
            self.counts[name] = 0

    def begin_request(self, request):
        self.request = request
        self._seen = {}

    def end_request(self):
        self.counts["verma.act_gen_distinct"] += sum(len(keys) for _, keys in self._seen.values())
        self._seen = {}

    def run_span(self, name, func, *args, **kwargs):
        spans = self.spans
        stack = self.stack
        k = len(spans)
        span = [name, 0, 0, stack[-1] if stack else -1, self.request]
        spans.append(span)
        stack.append(k)
        span[1] = time.perf_counter_ns()
        try:
            return func(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, func, after=None):
        run_span = self.run_span

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = run_span(name, func, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _act_gen(self, func):
        counts = self.counts
        tracer = self

        @functools.wraps(func)
        def act_gen(module, g, mono):
            counts["verma.act_gen_calls"] += 1
            entry = tracer._seen.get(id(module))
            if entry is None:
                # keep the module alive so its id is not reused within the request
                entry = tracer._seen[id(module)] = (module, set())
            entry[1].add((g, mono))
            return func(module, g, mono)

        return act_gen

    def _add(self, name, amount):
        self.counts[name] += amount

    def _basis_dim(self, args, basis):
        counts = self.counts
        counts["verma.basis_dim_max"] = max(counts["verma.basis_dim_max"], len(basis))

    # -- install / uninstall ---------------------------------------------------

    def _patch_class(self, cls, attr, wrap):
        original = cls.__dict__[attr]
        wrapped = wrap(original)
        setattr(wrapped, MARK, True)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def _patch_function(self, module, attr, wrap):
        original = getattr(module, attr)
        wrapped = wrap(original)
        setattr(wrapped, MARK, True)
        for name, mod in list(sys.modules.items()):
            if name != "gapvir" and not name.startswith("gapvir."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self):
        from gapvir import algebra, forms, linalg, oscillator, series, unitarity, verma
        from gapvir.scalars import Scalar

        if self._patches:
            raise RuntimeError("tracer already installed")
        add = self._add
        fn = self._patch_function
        cls = self._patch_class
        try:
            fn(unitarity, "unitarity_verdict", lambda f: self._spanned("unitarity.verdict", f))
            fn(unitarity, "classify", lambda f: self._spanned("unitarity.classify", f))
            fn(unitarity, "highest_weight_unitary",
               lambda f: self._spanned("unitarity.closed_form", f))
            fn(unitarity, "unitarity_oracle", lambda f: self._spanned("unitarity.oracle", f))
            fn(forms, "gram", lambda f: self._spanned(
                "forms.gram", f, lambda a, g: add("forms.gram_entries", g.dim() ** 2)))
            fn(forms, "definiteness", lambda f: self._spanned(
                "forms.definiteness", f,
                lambda a, v: add("forms.ldl_pivots", v.inertia[0] + v.inertia[1])))
            fn(forms, "reducibility_report", lambda f: self._spanned("forms.reducibility", f))
            fn(forms, "kac_scan", lambda f: self._spanned("forms.kac_scan", f))
            for name in ("nullspace", "rank"):
                fn(linalg, name, lambda f, name=name: self._spanned(
                    "linalg." + name, f,
                    lambda a, r: add("linalg.matrix_cells", len(a[0]) * a[1])))
            fn(algebra, "involution_axiom_report",
               lambda f: self._spanned("algebra.involution", f))
            fn(series, "series_predicates", lambda f: self._spanned("series.predicates", f))
            fn(oscillator, "virasoro_relation_check",
               lambda f: self._spanned("oscillator.sugawara", f))
            cls(verma.VermaModule, "act", lambda f: self._spanned("verma.act", f))
            cls(verma.VermaModule, "singular_vectors",
                lambda f: self._spanned("verma.singular_vectors", f))
            cls(verma.VermaModule, "pbw_basis",
                lambda f: self._spanned("verma.pbw_basis", f, self._basis_dim))
            cls(verma.VermaModule, "act_gen", self._act_gen)
            cls(algebra.GapVirasoro, "bracket", lambda f: self._spanned("algebra.bracket", f))
            cls(algebra.GapVirasoro, "bracket_gens",
                lambda f: self._counted("algebra.bracket_gens_calls", f))
            cls(series.SeriesModule, "axiom_check",
                lambda f: self._spanned("series.axiom_check", f))
            cls(series.SeriesModule, "act_vector",
                lambda f: self._counted("series.act_vector_calls", f))
            cls(oscillator.OscillatorModule, "sugawara_l",
                lambda f: self._counted("oscillator.sugawara_calls", f))
            cls(Scalar, "__init__", lambda f: self._counted("scalars.constructed", f))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched_sites(self):
        """(owner, attribute, original) for every replaced attribute."""
        return list(self._patches)

    # -- results ----------------------------------------------------------------

    def metrics(self):
        """Per-layer values in seconds and counts, from the recorded spans and counters."""
        totals = span_totals(self.spans)

        def incl(name):
            return totals.get(name, (0, 0))[0] / 1e9

        def own(name):
            return totals.get(name, (0, 0))[1] / 1e9

        out = dict(self.counts)
        out.update({
            "forms.gram_s": incl("forms.gram"),
            "verma.act_s": incl("verma.act"),
            "forms.definiteness_s": incl("forms.definiteness"),
            "linalg.nullspace_s": incl("linalg.nullspace"),
            "linalg.rank_s": incl("linalg.rank"),
            "verma.singular_vectors_s": incl("verma.singular_vectors"),
            "algebra.bracket_s": incl("algebra.bracket"),
            "algebra.involution_s": incl("algebra.involution"),
            "series.axiom_check_s": incl("series.axiom_check"),
            "oscillator.sugawara_s": incl("oscillator.sugawara"),
            "verma.pbw_basis_s": incl("verma.pbw_basis"),
            "cli.self_s": own(ROOT_SPAN),
            "unitarity.closed_form_s": incl("unitarity.closed_form"),
            "unitarity.oracle_self_s": own("unitarity.oracle"),
        })
        return out
