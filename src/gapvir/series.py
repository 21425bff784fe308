"""Modules of intermediate series V(a, b, F) and their predicates.

The basis is indexed by pairs (k, j) with k an integer and j a column of the
coefficient matrix F; the pair stands for the fused index k + j/p.  Actions:

    L_m (k, j)   -> -(a + k + j/p + b m)  at (m+k, j)
    I_m^i (k, j) -> F[i][j]               at the fused index m + k + (i+j)/p
    C_s          -> 0

When i + j reaches p the fused index carries into the integer part, so the
target pair is (m + k + (i+j)//p, (i+j) mod p); the window axiom check fails
for any other convention.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import lcm

from .algebra import KIND_C, KIND_L, AntiInvolution, add_term, check_beta
from .errors import ConfigError
from .scalars import ZERO, Scalar, cancels, int_parts, scalar


@dataclass(frozen=True)
class FMatrix:
    """(p-1) x p coefficient matrix, rows 1..p-1, columns 0..p-1."""

    p: int
    rows: tuple

    @classmethod
    def make(cls, p, rows):
        if not (isinstance(rows, (list, tuple))
                and all(isinstance(r, (list, tuple)) for r in rows)):
            raise ConfigError("F must be a list of rows, each a list of scalars")
        rows = tuple(tuple(scalar(v) for v in row) for row in rows)
        if len(rows) != p - 1 or any(len(r) != p for r in rows):
            raise ConfigError("F must be (p-1) x p")
        return cls(p, rows)

    def entry(self, i, j):
        """F_{i,j} with 1 <= i <= p-1 and 0 <= j <= p-1."""
        return self.rows[i - 1][j]

    def col_set(self):
        return sorted({j for j in range(self.p)
                       if any(self.entry(i, j) for i in range(1, self.p))})

    def row_set(self):
        return sorted({i for i in range(1, self.p)
                       if any(self.entry(i, j) for j in range(self.p))})

    def to_strings(self):
        return [[str(v) for v in row] for row in self.rows]


def validate_f(f):
    """All compatibility and column-closure violations, empty when valid."""
    p = f.p
    violations = []
    for r in range(1, p):
        for s in range(1, p):
            for i in range(p):
                lhs = f.entry(s, i) * f.entry(r, (i + s) % p)
                rhs = f.entry(r, i) * f.entry(s, (i + r) % p)
                if lhs != rhs:
                    violations.append({"kind": "compatibility", "r": r, "s": s, "i": i})
    cols = set(f.col_set())
    for i in f.row_set():
        for j in cols:
            if (i + j) % p not in cols:
                violations.append({"kind": "column-closure", "i": i, "j": j})
    return violations


class SeriesModule:
    """V(a, b, F) with exact basis bookkeeping on pairs (k, j)."""

    def __init__(self, alg, a, b, f, allow_invalid=False):
        if f.p != alg.p:
            raise ConfigError("F matrix and algebra disagree on p")
        self.alg = alg
        self.a = scalar(a)
        self.b = scalar(b)
        self.f = f
        self.violations = validate_f(f)
        if self.violations and not allow_invalid:
            raise ConfigError("invalid F matrix: %s" % self.violations[0])
        self.columns = f.col_set()
        # the L-action's terms on one denominator den: a + j/p at each column j, and b
        (a0, a1, ad), (b0, b1, bd) = int_parts(self.a), int_parts(self.b)
        den = lcm(alg.p * ad, bd)
        self._shifts = {j: (a0 * den // ad + j * den // alg.p, a1 * den // ad) for j in self.columns}
        self._l_terms = den, b0 * den // bd, b1 * den // bd

    def act_basis(self, g, k, j):
        """Image of the basis vector at (k, j): a (coefficient, target) pair."""
        p = self.alg.p
        shift = self._shifts.get(j)
        if shift is None:
            raise ConfigError("column %d is not in col(F)" % j)
        if g.kind == KIND_C:
            return ZERO, None
        if g.kind == KIND_L:  # -(a + j/p + k + b n)
            den, b0, b1 = self._l_terms
            return Scalar(-shift[0] - k * den - b0 * g.n, -shift[1] - b1 * g.n, den), (g.n + k, j)
        coeff = self.f.entry(g.i, j)
        if not coeff:
            return ZERO, None
        fused = g.i + j
        return coeff, (g.n + k + fused // p, fused % p)

    def act_vector(self, g, terms):
        """Action on a dict {(k, j): Scalar}."""
        out = {}
        for (k, j), c in terms.items():
            coeff, target = self.act_basis(g, k, j)
            val = c * coeff
            if target is not None and val:
                add_term(out, target, val)
        return out

    def axiom_check(self, window):
        """Bracket action equals commutator of actions on a finite window.

        Every (x, y, j, k) of the window is compared, in this order, and the first failure is
        the witness.  Each image g v is read from act_basis once per check (_Images, and a row
        per generator on the window's pairs).  Where x comes before y, x y v - y x v - [x, y] v
        is a sum of at most four terms (a + b i)/d that must cancel.  At (y, x) the commutator
        is exactly minus that at (x, y), which has passed, and at (x, x) it is 0: the sums left
        are [x, y] v + [y, x] v, which tests the bracket's antisymmetry, and [x, x] v.
        """
        alg = self.alg
        gens = alg.basis_window(-window, window)
        vs = [(k, j) for j in self.columns for k in range(-window, window + 1)]
        image, rows, earlier = cache(lambda g: _Images(self, g, True)), {}, {}
        row = lambda g: rows.get(g) or rows.setdefault(g, [image(g)[v] for v in vs])
        for n, gx in enumerate(gens):
            for m, gy in enumerate(gens):
                bracket = alg.bracket_gens(gx, gy)
                if m > n:
                    earlier[gx, gy] = bracket
                    pairs = ((row(gy), image(gx), 1), (row(gx), image(gy), -1))
                else:  # the commutator is 0, or minus that of (y, x), which is [y, x] v
                    acc, pairs = {}, ()
                    for h, c in bracket + earlier.pop((gy, gx), []):
                        add_term(acc, h, c)
                    bracket = acc.items()
                hs = [(row(h), *int_parts(-c)) for h, c in bracket]
                for i, v in enumerate(vs) if pairs or hs else ():
                    terms = []
                    for firsts, outer, sign in pairs:
                        first = firsts[i]
                        second = first and outer[first[3]]
                        if second:
                            (a, b, d, _), (a2, b2, d2, to) = first, second
                            terms.append((sign * (a * a2 - b * b2), sign * (a * b2 + b * a2),
                                          d * d2, to))
                    for r, a, b, d in hs:
                        if r[i]:
                            a2, b2, d2, to = r[i]
                            terms.append((a * a2 - b * b2, a * b2 + b * a2, d * d2, to))
                    if terms and not cancels(terms):
                        return {"pass": False,
                                "witness": {"x": str(gx), "y": str(gy), "k": v[0], "j": v[1]}}
        return {"pass": True, "witness": None}


class _Images(dict):
    """One generator's images g v by pair v, each read from act_basis on first use: (a, b,
    d, target) with the coefficient's int parts if parts, else (coefficient, target); None
    when zero.  A column outside col(F) is never stored and raises each time."""

    def __init__(self, module, g, parts):
        self.act, self.parts = partial(module.act_basis, g), parts

    def __missing__(self, v):
        coeff, target = self.act(*v)
        self[v] = None if target is None or not coeff else (
            (*int_parts(coeff), target) if self.parts else (coeff, target))
        return self[v]


def delta_form_contravariant(module, beta, window):
    """Check <g u, w> = <u, theta(g) w> for the orthonormal delta form.

    g u and theta(g) w are read from one table of _Images, as in axiom_check; every
    pair (u, w) is compared.
    """
    alg = module.alg
    theta = AntiInvolution.plus(alg.p, 1, beta)
    gens = [alg.L(n) for n in range(-window, window + 1)]
    gens += [alg.I(n, i) for n in range(-window, window + 1)
             for i in range(1, alg.p)]
    basis = [(k, j) for k in range(-window, window + 1) for j in module.columns]
    image = cache(lambda g: _Images(module, g, False))
    for g in gens:
        gh, ch = theta.image_of(g)
        backs = [image(gh)[w] for w in basis]
        for u in basis:
            img = image(g)[u]
            for w, back in zip(basis, backs):
                lhs = img[0] if img and img[1] == w else ZERO
                if lhs != ((ch * back[0]).conj() if back and back[1] == u else ZERO):
                    return False
    return True


def series_predicates(module, beta):
    """Closed-form reducibility and unitarity verdicts with per-condition flags.

    The reducibility formula is evaluated literally on the supplied matrix;
    the validation status travels alongside so callers can see when the
    matrix fails the closure constraints that every honest single-column
    matrix necessarily violates.
    """
    a, b, f = module.a, module.b, module.f
    p = module.alg.p
    beta = check_beta(p, beta)

    cols = module.columns
    reducible = (len(cols) == 1 and a.is_real() and a.re.denominator == 1
                 and not a.im and b in (Scalar(0), Scalar(1)))

    failures = []
    if not a.is_real():
        failures.append("a-not-real")
    if b.re != Fraction(1, 2):
        failures.append("b-real-part-not-one-half")
    sym_ok = True
    for j in cols:
        for i in range(1, p):
            lhs = beta[p - i - 1] * f.entry(p - i, (i + j) % p)
            if lhs != f.entry(i, j).conj():
                sym_ok = False
    if not sym_ok:
        failures.append("delta-form-symmetry")
    unitary = not failures

    report = {
        "reducible": reducible,
        "unitary": unitary,
        "failures": failures,
        "colF": cols,
        "fValidation": module.violations,
        "aIsZero": a.is_zero(),
    }
    if unitary:
        report["deltaFormSelfTest"] = delta_form_contravariant(module, beta, 3)
    return report
