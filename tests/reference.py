"""Independent reference routes that only the tests use.

The window checks here recompute every action, image and bracket for every
pair, as the library's checks once did, so a table that drops, reuses or
caches the wrong entry shows up as a difference.  The intermediate-series
action is rebuilt from the module's a, b and F rather than taken from its
``act_basis``, unless ``module_action`` is passed in.  ``act_gen``
straightens on Scalars in the unscaled PBW basis, with a memo of its own,
and ``act`` and ``singular_vectors`` are built on it; ``pairing`` is the
per-entry contravariant form, on that action, that the recursive Gram
assembly must match.  ``pbw_basis`` enumerates a level's monomials by
recursion over partitions, and ``gen_element`` wraps one basis label as an
element.  ``working_copy`` and ``row_reduce`` are the Fraction (or Scalar)
reduced row echelon form, pivoting on the entry of fewest bits, that the
library's rank and nullspace ran before they eliminated fraction-free.
``kac_wall_inertia`` classifies the Kac walls on Scalars through kac_factor
and phi_virasoro.  ``split_terms`` is the character walk that split element
texts, ``sugawara_sum`` the quadratic part of L_n applied one mode pair at a
time through ``VermaModule.act``, and ``sugawara_checks`` the relation loop
over every ordered (m, n).
``apply_involution`` and ``chevalley`` extend an anti-involution and the
Chevalley automorphism to elements of the algebra.
``discrete_series_match`` solves for a discrete-series point on Fractions.
``gram_rows`` is the recursive Gram assembly reading each (g, x) through
``VermaModule.evaluate``'s {z id: value} dict, which the table-direct rows
must equal.  ``definiteness`` is the LDL* the library ran before it
eliminated the scaled integer rows: on Fractions for a real matrix, on
Scalars otherwise, updating the upper triangle with exact Schur complements,
so its pivots, witness and inertia are the ones the fraction-free
elimination must reproduce.
``FractionScalar`` is the library's Scalar as it was when it stored a pair
of Fractions; the differential test checks every operation of Scalar
against it.
"""

import re
import weakref
from fractions import Fraction
from math import floor, isqrt

from gapvir.algebra import KIND_C, KIND_I, KIND_L, AntiInvolution, Element, Gen, add_term
from gapvir.errors import ConfigError, ScalarParseError
from gapvir.errors import GramIntegrityError
from gapvir.forms import (INDEFINITE, DefinitenessVerdict, _signed_partition_counts, kac_factor,
                          phi_virasoro, verdict_kind)
from gapvir.linalg import entry_size, nullspace
from gapvir.oscillator import shifted_weight
from gapvir.scalars import ONE, ZERO, Scalar, int_parts, scalar
from gapvir.verma import EMPTY_MONOMIAL, ModuleVector, PBWMonomial, partition_count

_memos = weakref.WeakKeyDictionary()  # module -> {(g, mono): {mono: Scalar}}


def _rank(g):
    if g.kind == KIND_L:
        return (1, -g.n, 0)
    return (0, -g.n, g.i)


def _prepended(g, mono):
    if g.kind == KIND_L:
        return PBWMonomial((-g.n,) + mono.lparts, mono.iparts)
    return PBWMonomial(mono.lparts, ((-g.n, g.i),) + mono.iparts)


def gen_element(alg, g, coeff=1):
    return Element(alg.p, {g: scalar(coeff)})


def weight_of(alg, g):
    """ad-L_0 eigenvalue: -n for L_n, -(n + i/p) for I_n^i, 0 for C_j."""
    if g.kind == KIND_L:
        return Fraction(-g.n)
    if g.kind == KIND_I:
        return -Fraction(g.n * alg.p + g.i, alg.p)
    return Fraction(0)


def graded_dim(module, d):
    """The monomial count at p-level d."""
    return module.graded_dims(d)[d]


def pbw_basis(module, d):
    """The monomials of p-level d in canonical descending order, by partitions of d into
    the sector's factor sizes, largest part first."""
    p = module.alg.p
    sizes = module._part_sizes(d)
    out = []

    def build(remaining, max_size, chosen):
        if remaining == 0:
            lparts = tuple(sorted((s // p for s in chosen if s % p == 0), reverse=True))
            iparts = tuple(sorted((((s + (p - s % p)) // p, p - s % p)
                                   for s in chosen if s % p != 0), reverse=True))
            out.append(PBWMonomial(lparts, iparts))
            return
        for s in sizes:
            if s <= min(remaining, max_size):
                build(remaining - s, s, chosen + (s,))

    build(d, d if d else 1, ())
    out.sort(reverse=True)
    return out


def act_gen(module, g, mono):
    """g mono in the unscaled PBW basis, as {monomial: Scalar}, straightened rightmost-first."""
    memo = _memos.setdefault(module, {})
    key = (g, mono)
    if key not in memo:
        memo[key] = _act_gen_raw(module, g, mono)
    return memo[key]


def _act_gen_raw(module, g, mono):
    alg = module.alg
    p = alg.p
    if g.kind == KIND_C:
        c = module.hw.c_value(g.n)
        return {mono: c} if c else {}
    if g.kind == KIND_L:
        if not module.sector.include_l:
            raise ConfigError("L-generators do not act on this sector")
        if g.n == 0:
            c = module.hw.l0 + Scalar(Fraction(mono.plevel(p), p))
            return {mono: c} if c else {}
    elif g.i not in module.sector.i_indices:
        return {}
    lowering = g.n < 0
    lead = mono.leading()
    if lead is None:
        return {_prepended(g, mono): ONE} if lowering else {}
    if lowering and _rank(g) >= _rank(lead):
        return {_prepended(g, mono): ONE}
    tail = mono.tail()
    out = {}
    for m2, c2 in act_gen(module, g, tail).items():
        for m3, c3 in act_gen(module, lead, m2).items():
            add_term(out, m3, c2 * c3)
    for h, ch in alg.bracket_gens(g, lead):
        for m2, c2 in act_gen(module, h, tail).items():
            add_term(out, m2, ch * c2)
    return out


def act(module, g, vec):
    """g vec by the reference straightening, as a ModuleVector."""
    out = {}
    for mono, c in vec.terms.items():
        for m2, c2 in act_gen(module, g, mono).items():
            add_term(out, m2, c * c2)
    return ModuleVector(module, out)


def singular_vectors(module, d):
    """VermaModule.singular_vectors with the raising blocks from the reference straightening."""
    basis = module.pbw_basis(d)
    p = module.alg.p
    rows = []
    for g in module.raising_set(d):
        target = d + int(weight_of(module.alg, g) * p)
        if target < 0:
            continue
        index = {m: k for k, m in enumerate(module.pbw_basis(target))}
        block = [[ZERO] * len(basis) for _ in index]
        for b, mono in enumerate(basis):
            for m2, c2 in act_gen(module, g, mono).items():
                block[index[m2]][b] = c2
        rows += block
    return [ModuleVector(module, {m: c for m, c in zip(basis, sol) if c})
            for sol in nullspace(rows, len(basis))] if basis else []


def working_copy(rows):
    """Mutable copy of rows: bare Fractions for a real matrix, Scalars otherwise."""
    if all(type(v) is not Scalar or not v.im for row in rows for v in row):
        return [[v.re if type(v) is Scalar else Fraction(v) if type(v) is int else v
                 for v in row] for row in rows]
    return [[scalar(v) for v in row] for row in rows]


def row_reduce(rows, ncols):
    """In-place reduced row echelon form of working_copy rows; returns the pivot columns.

    Column c's pivot is its smallest nonzero entry below the rows already
    reduced, the first such row on a tie.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        candidates = [k for k in range(r, len(rows)) if rows[k][c]]
        if not candidates:
            continue
        pivot_row = min(candidates, key=lambda k: entry_size(rows[k][c]))
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        row = rows[r]
        inv = 1 / row[c]
        # entries left of c vanish, so an update touches the nonzero ones from c on
        support = [j for j in range(c, ncols) if row[j]]
        for j in support:
            row[j] = row[j] * inv
        for k, other in enumerate(rows):
            f = other[c]
            if k != r and f:
                for j in support:
                    other[j] = other[j] - f * row[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def kac_wall_inertia(psi, max_n):
    """forms.kac_wall_inertia with every wall classified on Scalars by kac_factor and phi_virasoro."""
    h, c = psi.l0, psi.c_value(0)
    up = down = max_n + 1
    for a in range(1, max_n + 1):
        for b in range(a, max_n // a + 1):
            level = a * b
            if phi_virasoro(h, c, a, b).re <= 0:
                up, down = min(up, level), min(down, level)
                continue
            sum_ab = kac_factor(0, c, a, b) + kac_factor(0, c, b, a)
            if (sum_ab * sum_ab - 4 * phi_virasoro(0, c, a, b)).re < 0:
                continue
            if -sum_ab.re < 2 * h.re:
                down = min(down, level)
            else:
                up = min(up, level)
    parity = _signed_partition_counts([(s, True) for s in range(1, max_n + 1)], max_n)
    return [(partition_count(n), 0, 0) if n < up else (even, odd, 0)
            for n, (even, odd) in enumerate(parity[:max(up, down)])]


def act_basis(module, g, k, j):
    """Image of the basis vector (k, j) of an intermediate-series module, from scratch."""
    p = module.alg.p
    if j not in module.columns:
        raise ConfigError("column %d is not in col(F)" % j)
    if g.kind == KIND_C:
        return ZERO, None
    if g.kind == KIND_L:
        shift = module.a + Scalar(Fraction(j, p))
        return -(shift + Scalar(k) + module.b * g.n), (g.n + k, j)
    coeff = module.f.entry(g.i, j)
    if not coeff:
        return ZERO, None
    fused = g.i + j
    return coeff, (g.n + k + fused // p, fused % p)


def module_action(module, g, k, j):
    """The module's own act_basis, for comparing on a module whose action is patched."""
    return module.act_basis(g, k, j)


def act_vector(module, g, terms, act=act_basis):
    out = {}
    for (k, j), c in terms.items():
        coeff, target = act(module, g, k, j)
        val = c * coeff
        if target is not None and val:
            add_term(out, target, val)
    return out


def axiom_check(module, window, act=act_basis):
    """SeriesModule.axiom_check, acting afresh (by act) for every (x, y, j, k)."""
    alg = module.alg
    gens = alg.basis_window(-window, window)
    for gx in gens:
        for gy in gens:
            bracket = alg.bracket_gens(gx, gy)
            for j in module.columns:
                for k in range(-window, window + 1):
                    start = {(k, j): Scalar.one()}
                    lhs = act_vector(module, gx, act_vector(module, gy, start, act), act)
                    for m, c in act_vector(module, gy, act_vector(module, gx, start, act),
                                           act).items():
                        add_term(lhs, m, -c)
                    rhs = {}
                    for h, ch in bracket:
                        for m, c in act_vector(module, h, {(k, j): ch}, act).items():
                            add_term(rhs, m, c)
                    if lhs != rhs:
                        return {"pass": False,
                                "witness": {"x": str(gx), "y": str(gy), "k": k, "j": j}}
    return {"pass": True, "witness": None}


def column_restriction_matches(module, j, window):
    """The L-action on column j matches the rank-one module at a + j/p."""
    shift = module.a + Scalar(Fraction(j, module.alg.p))
    for n in range(-window, window + 1):
        for k in range(-window, window + 1):
            coeff, target = module.act_basis(module.alg.L(n), k, j)
            expected = -(shift + Scalar(k) + module.b * n)
            if coeff != expected or target != (n + k, j):
                return False
    return True


def delta_form_contravariant(module, beta, window, act=act_basis):
    """series.delta_form_contravariant, acting afresh (by act) for every (g, u, w)."""
    alg = module.alg
    theta = AntiInvolution.plus(alg.p, 1, beta)
    gens = [alg.L(n) for n in range(-window, window + 1)]
    gens += [alg.I(n, i) for n in range(-window, window + 1) for i in range(1, alg.p)]
    basis = [(k, j) for k in range(-window, window + 1) for j in module.columns]
    for g in gens:
        gh, ch = theta.image_of(g)
        for u in basis:
            img = act_vector(module, g, {u: Scalar.one()}, act)
            for w in basis:
                lhs = img.get(w, ZERO)
                rhs = act_vector(module, gh, {w: ch}, act).get(u, ZERO).conj()
                if lhs != rhs:
                    return False
    return True


def _involution(theta, x):
    acc = {}
    for g, c in x.items():
        h, s = theta.image_of(g)
        add_term(acc, h, c.conj() * s)
    return {g: c for g, c in acc.items() if c}


def apply_involution(alg, theta, x):
    """Conjugate-linear extension of theta to an element."""
    if theta.p != alg.p or x.p != alg.p:
        raise ConfigError("involution and element disagree on p")
    return Element(alg.p, _involution(theta, x.terms))


def _bracket(alg, x, y):
    acc = {}
    for gx, cx in x.items():
        for gy, cy in y.items():
            for g, s in alg.bracket_gens(gx, gy):
                add_term(acc, g, cx * cy * s)
    return {g: c for g, c in acc.items() if c}


def _span_tag(g):
    if g.kind == KIND_C:
        return "C0" if g.n == 0 else "C+"
    return g.kind


def involution_axiom_report(alg, theta, lo=-4, hi=4):
    """algebra.involution_axiom_report, applying theta afresh for every generator and pair."""
    window = alg.basis_window(lo, hi)
    checks = {"square": True, "conjugateLinear": True,
              "antiMultiplicative": True, "stability": True}
    probe = Scalar(Fraction(2, 3), Fraction(1, 5))
    allowed = {"L": {"L", "C0"}, "C0": {"C0"}, "I": {"I", "C+"}, "C+": {"C+"}}
    for g in window:
        x = {g: Scalar.one()}
        if _involution(theta, _involution(theta, x)) != x:
            checks["square"] = False
        scaled = {h: probe.conj() * c for h, c in _involution(theta, x).items()}
        if _involution(theta, {g: probe}) != scaled:
            checks["conjugateLinear"] = False
        if not {_span_tag(h) for h in _involution(theta, x)} <= allowed[_span_tag(g)]:
            checks["stability"] = False
    for gx in window:
        x = {gx: Scalar.one()}
        tx = _involution(theta, x)
        for gy in window:
            y = {gy: Scalar.one()}
            if _involution(theta, _bracket(alg, x, y)) != _bracket(alg, _involution(theta, y), tx):
                checks["antiMultiplicative"] = False
    return checks


def split_terms(s):
    """algebra._split_terms as a walk over the characters: split on ' + ' only where the
    parentheses opened so far are all closed."""
    parts = []
    depth = 0
    cur = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and s.startswith(" + ", i):
            parts.append("".join(cur))
            cur = []
            i += 3
            continue
        cur.append(ch)
        i += 1
    parts.append("".join(cur))
    return [t for t in (t.strip() for t in parts) if t]


def sugawara_checks(osc, window, max_level):
    """The sugawara-check relation list, one virasoro_relation_check per ordered (m, n) of
    the mode window, the diagonal and both orders of each pair included."""
    from gapvir.oscillator import virasoro_relation_check

    checks = []
    for m in range(-window, window + 1):
        for n in range(-window, window + 1):
            rep = virasoro_relation_check(osc, m, n, max_level)
            checks.append({k: rep[k] for k in ("m", "n", "maxLevel", "pass")})
    return checks, all(c["pass"] for c in checks)


def sugawara_sum(module, j_set, phi_c, n, vec):
    """oscillator.sugawara_sum applying each mode pair with module.act, term by term."""
    p = module.alg.p
    out = ModuleVector(module)
    if vec.is_zero():
        return out
    d = vec.max_plevel()
    bound = (d - 1) // p if d >= 1 else -1
    for j in sorted(j_set):
        pref = (2 * phi_c(j)).inv()
        for k in range(n - 1 - bound, bound + 1):
            l = n - k - 1
            if k < l:
                first, second = module.alg.I(l, p - j), module.alg.I(k, j)
            else:
                first, second = module.alg.I(k, j), module.alg.I(l, p - j)
            tmp = module.act(first, vec)
            if not tmp.is_zero():
                out = out + pref * module.act(second, tmp)
    return out


def theta_tilde_apply(module, theta, mono, vec):
    """Apply theta(f_k)...theta(f_1) for mono = f_1...f_k to a module vector."""
    out = vec
    factors = [Gen(KIND_L, -n) for n in mono.lparts] + [Gen(KIND_I, -m, i) for m, i in mono.iparts]
    for f in factors:
        g, c = theta.image_of(f)
        if out.is_zero():
            break
        out = c * act(module, g, out)
    return out


def pairing(module, theta, u, w):
    """<u, w> for arbitrary module vectors, conjugate-linear in w."""
    total = ZERO
    for mono, c in w.terms.items():
        moved = theta_tilde_apply(module, theta, mono, u)
        coeff = moved.terms.get(EMPTY_MONOMIAL)
        if coeff:
            total = total + c.conj() * coeff
    return total


def gram_rows(module, theta, d):
    """Rows of G' at levels 0..d, each (g, x) read through VermaModule.evaluate."""
    levels = [[[1]]]
    for e in range(1, d + 1):
        ids, _, groups = module.level(e)
        rows = [[0] * len(ids) for _ in ids]
        for f, lower_level, b0, b1 in groups:
            g, c = theta.image_of(f)
            if int_parts(c)[1:] == (0, 1):  # an int c keeps int rows int
                c = int_parts(c)[0]
            lower, index = levels[lower_level], module.level(lower_level)[1]
            j0 = len(lower) - (b1 - b0)
            for row, x in zip(rows, ids):
                sums = None
                for z, cz in module.evaluate(g, x).items():
                    tails = lower[index[z]][j0:]
                    sums = ([cz * t if t else 0 for t in tails] if sums is None
                            else [s + cz * t if t else s for s, t in zip(sums, tails)])
                if sums:
                    row[b0:b1] = [c * s if s else 0 for s in sums]
        levels.append(rows)
    return levels


def discrete_series_match(hw):
    """unitarity.discrete_series_match on Fractions, as the library solved it before ints."""
    psi = shifted_weight(hw)
    c, h = psi.c_value(0), psi.l0
    if not (c.is_real() and h.is_real()) or c.re >= 1:
        return None
    m = (isqrt(floor(24 / (1 - c.re) + 1)) - 1) // 2  # 4N + 1 = (2m + 1)^2
    n = m * (m + 1)
    square = 4 * n * h.re + 1
    if m < 2 or c.re != 1 - Fraction(6, n) or square < 0:
        return None
    k = isqrt(floor(square))
    r, s = divmod(k, m)
    return {"m": m, "r": r, "s": s} if k * k == square and r < s else None


def chevalley(alg, x):
    """Order-two linear automorphism exchanging raising and lowering parts.

    L_n -> -L_{-n}, I_n^i -> -I_{-n-1}^{p-i}, C_j -> -C_j.  The labels
    are those of the plus-type anti-involution with alpha = beta_i = 1; its
    I-mode shift is the unique choice compatible with the mixed bracket,
    since I_{-n-1}^{p-i} is the basis label of weight opposite to I_n^i.
    """
    theta = AntiInvolution.plus(alg.p)
    acc = {}
    for g, c in x.terms.items():
        add_term(acc, theta.image_of(g)[0], -c)
    return Element(alg.p, acc)


def definiteness(g):
    """forms.definiteness by exact Schur complements of G's entries, lowest-size pivot first."""
    entries = [[scalar(v) for v in row] for row in g.entries]
    n = g.dim()
    if any(entries[b][a] != entries[a][b].conj() for a in range(n) for b in range(a, n)):
        raise GramIntegrityError("gram matrix is not Hermitian")
    if all(not v.im for row in entries for v in row):
        a = [[v.re for v in row] for row in entries]
        conj = real = lambda v: v  # noqa: E731
    else:
        a = [list(row) for row in entries]
        conj, real = Scalar.conj, lambda v: v.re  # noqa: E731
    # Only a[r][c] with r <= c is kept up to date; below the diagonal the
    # entry is the conjugate of its mirror.  active stays in ascending order.
    active = list(range(n))

    def column(k):
        return {r: a[r][k] if r <= k else conj(a[k][r]) for r in active}

    n_pos = n_neg = n_zero = 0
    pivot_trail = []
    witness = ()
    while active:
        nonzero = [k for k in active if a[k][k]]
        if nonzero:
            best = min(nonzero, key=lambda k: entry_size(a[k][k]))
            d = real(a[best][best])
            pivot_trail.append(best)
            if d > 0:
                n_pos += 1
            else:
                n_neg += 1
            active.remove(best)
            dinv = 1 / d
            col = column(best)
            colc = {r: conj(v) for r, v in col.items()}
            for k, r in enumerate(active):
                cr = col[r]
                if not cr:
                    continue
                f = cr * dinv
                row = a[r]
                for c in active[k:]:
                    if colc[c]:
                        row[c] = row[c] - f * colc[c]
            if not witness and n_pos and n_neg:
                witness = tuple(pivot_trail)
            continue
        # all remaining diagonals vanish
        pair = next(((ii, jj) for ii in active for jj in active if ii < jj and a[ii][jj]), None)
        if pair is None:
            n_zero += len(active)
            break
        ii, jj = pair
        gg = a[ii][jj]
        n_pos += 1
        n_neg += 1
        if not witness:
            witness = (ii, jj)
        active.remove(ii)
        active.remove(jj)
        gi = 1 / gg
        gci = 1 / conj(gg)
        coli = column(ii)
        colj = column(jj)
        for k, r in enumerate(active):
            row = a[r]
            for c in active[k:]:
                corr = (colj[r] * gi * conj(coli[c])
                        + coli[r] * gci * conj(colj[c]))
                if corr:
                    row[c] = row[c] - corr
    inertia = (n_pos, n_neg, n_zero)
    kind = verdict_kind(inertia)
    return DefinitenessVerdict(kind, witness if kind == INDEFINITE else (), inertia)


_Q0 = Fraction(0)  # the one zero imaginary part shared by real results
_RAT = r"\d+(?:/\d+)?"
_TERM_RE = re.compile(
    r"^(?P<sign>[+-]?)(?:(?P<coef>%s)(?P<star>\*?)(?P<imag>i?)|(?P<lone_i>i))$" % _RAT
)


def _fmt_fraction(q):
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class FractionScalar:
    """The library's Scalar as a pair (re, im) of Fractions, the reference for its
    arithmetic on (a + b*i)/d.  It keeps a part that is already a Fraction as
    it is, and the arithmetic skips the imaginary parts when both operands are
    real.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=_Q0, im=_Q0):
        _set_re(self, re if type(re) is Fraction else Fraction(re))
        _set_im(self, im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("FractionScalar is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(0, 0)

    @classmethod
    def one(cls):
        return cls(1, 0)

    @classmethod
    def parse(cls, text):
        """Parse the canonical "p/q+r/s*i" form; zero parts may be omitted."""
        s = text.replace(" ", "")
        if not s:
            raise ScalarParseError("empty scalar string")
        # split into signed terms; fractions never contain interior +/-
        terms = re.findall(r"[+-]?[^+-]+", s)
        if not terms or "".join(terms) != s:
            raise ScalarParseError("cannot parse scalar %r" % text)
        re_part = None
        im_part = None
        for term in terms:
            m = _TERM_RE.match(term)
            if not m:
                raise ScalarParseError("bad term %r in scalar %r" % (term, text))
            sign = -1 if m.group("sign") == "-" else 1
            if m.group("lone_i"):
                value = Fraction(sign)
                is_imag = True
            else:
                if m.group("imag") and not m.group("star"):
                    raise ScalarParseError("bad term %r in scalar %r" % (term, text))
                try:
                    value = sign * Fraction(m.group("coef"))
                except ZeroDivisionError:
                    raise ScalarParseError("zero denominator in scalar %r" % text) from None
                is_imag = bool(m.group("imag"))
            if is_imag:
                if im_part is not None:
                    raise ScalarParseError("duplicate imaginary part in %r" % text)
                im_part = value
            else:
                if re_part is not None:
                    raise ScalarParseError("duplicate real part in %r" % text)
                re_part = value
        return cls(re_part or 0, im_part or 0)

    # -- coercion ------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, FractionScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionScalar(other)
        return None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is FractionScalar else self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return FractionScalar(self.re + o.re)
        return FractionScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is FractionScalar else self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return FractionScalar(self.re - o.re)
        return FractionScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is FractionScalar else self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return FractionScalar(self.re * o.re)
        return FractionScalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __neg__(self):
        if not self.im:
            return FractionScalar(-self.re)
        return FractionScalar(-self.re, -self.im)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if not self.im and (n >= 0 or self.re):  # one Fraction power; 0^-n goes to inv()
            return FractionScalar(self.re ** n)
        base = self if n >= 0 else self.inv()
        out = FractionScalar.one()
        for _ in range(abs(n)):
            out = out * base
        return out

    def conj(self):
        if not self.im:
            return self
        return FractionScalar(self.re, -self.im)

    def inv(self):
        n = self.norm2()
        if not n:
            raise ZeroDivisionError("scalar division by zero")
        return FractionScalar(self.re / n, -self.im / n)

    def norm2(self):
        """|z|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.re and not self.im

    def is_real(self):
        return not self.im

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- rendering -------------------------------------------------------

    def __str__(self):
        if not self.im:
            return _fmt_fraction(self.re)
        imag = _fmt_fraction(abs(self.im)) + "*i"
        if not self.re:
            return imag if self.im > 0 else "-" + imag
        sign = "+" if self.im > 0 else "-"
        return _fmt_fraction(self.re) + sign + imag

    def __repr__(self):
        return "FractionScalar(%r)" % str(self)


_set_re = FractionScalar.re.__set__
_set_im = FractionScalar.im.__set__
