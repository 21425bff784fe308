"""The gap-p Virasoro algebra.

Fix an integer p >= 2.  The algebra has basis L_n (Virasoro part), I_n^i with
1 <= i <= p-1 (fractional-weight Heisenberg part) and central elements C_j
with 0 <= j <= floor(p/2), subject to

    [L_m, L_n]     = (m-n) L_{m+n} + (m^3-m)/12 * C_0            (if m+n = 0)
    [L_m, I_n^i]   = -(n + i/p) I_{m+n}^i
    [I_m^i, I_n^j] = (m + i/p) C_{min(i,p-i)}      (if i+j = p and m+n+1 = 0)

with every C central.  Central indices obey the alias C_i = C_{p-i}, which is
normalized away at construction: stored indices always satisfy j <= floor(p/2).
"""

import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import ConfigError
from .scalars import ONE, Scalar, cancels, int_parts, named_scalar, scalar

KIND_L = "L"
KIND_I = "I"
KIND_C = "C"


class Gen(namedtuple("Gen", "kind n i", defaults=(0, 0))):
    """A basis label: L[n], I[n,i] or C[j] (C-index already alias-normalized)."""

    __slots__ = ()

    def __str__(self):
        if self.kind == KIND_L:
            return "L[%d]" % self.n
        if self.kind == KIND_I:
            return "I[%d,%d]" % (self.n, self.i)
        return "C[%d]" % self.n


def _sort_key(g):
    rank = {KIND_L: 0, KIND_I: 1, KIND_C: 2}[g.kind]
    return (rank, g.n, g.i)


def add_term(acc, key, c):
    """Add a nonzero c at key of a sparse combination; a key whose sum cancels is dropped."""
    old = acc.get(key)
    if old is None:
        acc[key] = c
        return
    c = old + c
    if c:
        acc[key] = c
    else:
        del acc[key]


class Combination:
    """A finite Q(i)-linear combination of hashable keys, with no zero terms.

    ``space`` is what the keys live over; combinations over different spaces
    are never added or equal.  Subclasses name it and order keys for printing.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=None):
        """terms: a dict (distinct keys) or a list of (key, coefficient) pairs, merged by key."""
        self.space = space
        if isinstance(terms, dict):
            self.terms = {k: s for k, c in terms.items() if (s := scalar(c))}
            return
        self.terms = {}
        for k, c in terms or ():
            c = scalar(c)
            if c:
                add_term(self.terms, k, c)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.space != other.space:
            raise ConfigError("combinations over different spaces")
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return type(self)(self.space, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = scalar(c)
        if not c:
            return type(self)(self.space)
        return type(self)(self.space, {k: c * v for k, v in self.terms.items()})

    __mul__ = __rmul__

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return (isinstance(other, type(self)) and self.space == other.space
                and self.terms == other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in self._ordered_keys():
            c = self.terms[k]
            cs = str(c)
            if not c.is_real():
                cs = "(%s)" % cs  # keep the coefficient's "*i" out of the term grammar
            parts.append("%s*%s" % (cs, k))
        return " + ".join(parts)


class Element(Combination):
    """A finite Q(i)-linear combination of basis labels of one algebra."""

    __slots__ = ()

    @property
    def p(self):
        return self.space

    def _ordered_keys(self):
        return sorted(self.terms, key=_sort_key)

    def __repr__(self):
        return "Element(p=%d, %s)" % (self.p, self)


@dataclass(frozen=True)
class AntiInvolution:
    """A conjugate-linear anti-involution theta of the gap-p algebra.

    kind "plus":  L_n -> a^n L_{-n},  I_n^i -> a^n b_{p-i} I_{-n-1}^{p-i},
                  C_0 -> C_0,         C_i -> a^{-1} b_i b_{p-i} C_i,
                  with a real nonzero and conj(b_i) b_{p-i} = a for all i.
    kind "minus": L_n -> -a^n L_n,    I_n^i -> a^n b_i I_n^i,
                  C_0 -> -C_0,        C_i -> -a^{-1} b_i b_{p-i} C_i,
                  with a and every b_i of modulus one.
    """

    p: int
    kind: str
    alpha: Scalar
    beta: tuple

    def __post_init__(self):
        if self.kind not in ("plus", "minus"):
            raise ConfigError("involution kind must be 'plus' or 'minus'")
        if len(self.beta) != self.p - 1:
            raise ConfigError("need %d beta values, got %d" % (self.p - 1, len(self.beta)))
        if self.alpha.is_zero():
            raise ConfigError("alpha must be nonzero")
        if self.kind == "plus":
            if not self.alpha.is_real():
                raise ConfigError("plus involution needs real alpha")
            for i in range(1, self.p):
                if self._b(i).conj() * self._b(self.p - i) != self.alpha:
                    raise ConfigError(
                        "plus involution needs conj(beta_%d)*beta_%d = alpha" % (i, self.p - i))
        else:
            if self.alpha.norm2() != 1:
                raise ConfigError("minus involution needs |alpha| = 1")
            for i in range(1, self.p):
                if self._b(i).norm2() != 1:
                    raise ConfigError("minus involution needs |beta_%d| = 1" % i)

    def _b(self, i):
        return self.beta[i - 1]

    @classmethod
    def plus(cls, p, alpha=1, beta=None):
        alpha = scalar(alpha)
        if beta is None:
            beta = [ONE] * (p - 1)
        return cls(p, "plus", alpha, tuple(scalar(b) for b in beta))

    @classmethod
    def minus(cls, p, alpha=1, beta=None):
        alpha = scalar(alpha)
        if beta is None:
            beta = [ONE] * (p - 1)
        return cls(p, "minus", alpha, tuple(scalar(b) for b in beta))

    def image_of(self, g):
        """Image of one basis label as a (Gen, Scalar) pair."""
        a = self.alpha
        if self.kind == "plus":
            if g.kind == KIND_L:
                return Gen(KIND_L, -g.n), a ** g.n
            if g.kind == KIND_I:
                return Gen(KIND_I, -g.n - 1, self.p - g.i), (a ** g.n) * self._b(self.p - g.i)
            if g.n == 0:
                return g, ONE
            return g, (a ** -1) * self._b(g.n) * self._b(self.p - g.n)
        if g.kind == KIND_L:
            return g, -(a ** g.n)
        if g.kind == KIND_I:
            return g, (a ** g.n) * self._b(g.i)
        if g.n == 0:
            return g, -ONE
        return g, -(a ** -1) * self._b(g.n) * self._b(self.p - g.n)


def check_beta(p, beta):
    """Coerce a list of p-1 involution parameters with conj(beta_i) beta_{p-i} = 1, or raise."""
    if not isinstance(beta, (list, tuple)):
        raise ConfigError("beta must be a list of %d values" % (p - 1))
    beta = [named_scalar(b, "beta_%d", i) for i, b in enumerate(beta, 1)]
    if len(beta) != p - 1:
        raise ConfigError("need %d beta values" % (p - 1))
    for i in range(1, p):
        if beta[i - 1].conj() * beta[p - i - 1] != ONE:
            raise ConfigError("beta must satisfy conj(beta_i) beta_{p-i} = 1")
    return beta


class GapVirasoro:
    """The gap-p Virasoro algebra for one fixed p >= 2."""

    def __init__(self, p):
        if not isinstance(p, int) or p < 2:
            raise ConfigError("p must be an integer >= 2")
        self.p = p

    # -- basis labels --------------------------------------------------

    def L(self, n):
        return Gen(KIND_L, n)

    def I(self, n, i):
        if not 1 <= i <= self.p - 1:
            raise ConfigError("I-index must satisfy 1 <= i <= p-1, got %d" % i)
        return Gen(KIND_I, n, i)

    def C(self, j):
        if not 0 <= j <= self.p - 1:
            raise ConfigError("C-index must satisfy 0 <= j <= p-1, got %d" % j)
        return Gen(KIND_C, min(j, self.p - j))

    def basis_window(self, lo, hi):
        """All basis labels with mode in [lo, hi], plus every central C_j."""
        gens = [self.L(n) for n in range(lo, hi + 1)]
        gens += [self.I(n, i) for n in range(lo, hi + 1) for i in range(1, self.p)]
        gens += [self.C(j) for j in range(0, self.p // 2 + 1)]
        return gens

    # -- structure -----------------------------------------------------

    def bracket_gens(self, a, b):
        """[a, b] for basis labels, as a list of (Gen, Scalar) terms."""
        return [(h, Scalar(c, 0, 2 * self.p)) for h, c in bracket_scaled(self.p, a, b)]

    def bracket(self, x, y):
        """Bilinear extension of the basis relations."""
        if x.p != self.p or y.p != self.p:
            raise ConfigError("bracket operands built over a different p")
        return Element(self.p, _bracket_terms(self.bracket_gens, x.terms, y.terms))

    # -- text ------------------------------------------------------------

    def parse_element(self, text):
        """Parse "c*L[n] + c*I[n,i] + c*C[j]" sums; bare labels mean coefficient 1."""
        s = text.strip()
        if s == "0":
            return Element(self.p)
        return Element(self.p, [self._parse_term(chunk) for chunk in _split_terms(s)])

    def _parse_term(self, chunk):
        m = re.match(r"^(?:(?P<coef>\([^)]*\)|[^*\[\]]*)\*)?(?P<kind>[LIC])\[(?P<idx>[-0-9,\s]+)\]$",
                     chunk.replace(" ", ""))
        if not m:
            raise ConfigError("cannot parse term %r" % chunk)
        coef = m.group("coef")
        c = ONE if coef is None else scalar(coef.strip("()"))
        idx = [int(t) for t in m.group("idx").split(",")]
        kind = m.group("kind")
        if kind == KIND_L:
            if len(idx) != 1:
                raise ConfigError("L takes one index: %r" % chunk)
            return self.L(idx[0]), c
        if kind == KIND_I:
            if len(idx) != 2:
                raise ConfigError("I takes two indices: %r" % chunk)
            return self.I(idx[0], idx[1]), c
        if len(idx) != 1:
            raise ConfigError("C takes one index: %r" % chunk)
        return self.C(idx[0]), c


def bracket_scaled(p, a, b):
    """[a, b] of basis labels as (Gen, 2p s) terms, ints: the one source of the constants."""
    if a.kind == KIND_C or b.kind == KIND_C:
        return []
    if a.kind == KIND_L and b.kind == KIND_L:
        m, n = a.n, b.n
        out = []
        if m != n:
            out.append((Gen(KIND_L, m + n), 2 * p * (m - n)))
        if m + n == 0 and m ** 3 != m:  # 6 divides m^3 - m
            out.append((Gen(KIND_C, 0), p * (m ** 3 - m) // 6))
        return out
    if a.kind != b.kind:
        # [L_m, I_n^i] = -(n + i/p) I_{m+n}^i = -[I_n^i, L_m]; n + i/p is never 0
        heis = b if a.kind == KIND_L else a
        coeff = 2 * (heis.n * p + heis.i)
        return [(Gen(KIND_I, a.n + b.n, heis.i), -coeff if heis is b else coeff)]
    # I with I: needs i+j = p and m+n+1 = 0
    if a.i + b.i == p and a.n + b.n + 1 == 0:
        return [(Gen(KIND_C, min(a.i, p - a.i)), 2 * (a.n * p + a.i))]
    return []


def _bracket_terms(bracket_gens, x, y):
    """[x, y] on term dicts {Gen: Scalar}, from the given basis bracket."""
    acc = {}
    for gx, cx in x.items():
        for gy, cy in y.items():
            terms = bracket_gens(gx, gy)
            if terms:
                c = cx * cy
                for g, s in terms:
                    add_term(acc, g, c * s)
    return acc


def _involute(image_of, terms):
    """theta of (Gen, Scalar) terms with distinct labels, extended conjugate-linearly."""
    acc = {}
    for g, c in terms:
        h, s = image_of(g)
        val = c.conj() * s
        if val:  # an image with a zero coefficient adds no term
            add_term(acc, h, val)
    return acc


def _split_terms(s):
    """Split a rendered element on ' + ' outside parentheses, so a parenthesized coefficient
    stays whole: str.split, then each piece rejoins the one before while that is unbalanced."""
    parts = s.split(" + ")
    if "(" in s or ")" in s:
        merged, depth = [], 0
        for part in parts:
            merged += [merged.pop() + " + " + part] if depth else [part]
            depth += part.count("(") - part.count(")")
        parts = merged
    return [t for t in (t.strip() for t in parts) if t]


# -- seeded sampling and axiom checks ----------------------------------------


def sample_involution(alg, rng, kind):
    """Draw a random valid anti-involution from a seeded generator.

    Plus type: when p is even the constraint at i = p/2 forces alpha to be a
    positive square norm, so alpha is derived from the middle beta; otherwise
    alpha is a free nonzero rational.  Minus type: unit-modulus values are
    drawn at Pythagorean points so the modulus condition is exact.
    """
    p = alg.p

    def rand_rational(nonzero=False):
        while True:
            q = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            if nonzero and not q:
                continue
            return q

    def rand_scalar_nonzero():
        while True:
            s = Scalar(rand_rational(), rand_rational())
            if s:
                return s

    def rand_unit():
        while True:
            a = rng.randint(-4, 4)
            b = rng.randint(-4, 4)
            if a or b:
                n = a * a + b * b
                return Scalar(a * a - b * b, 2 * a * b, n)

    if kind == "plus":
        beta = [None] * (p - 1)
        if p % 2 == 0:
            mid = rand_scalar_nonzero()
            beta[p // 2 - 1] = mid
            alpha = Scalar(mid.norm2())
        else:
            alpha = Scalar(rand_rational(nonzero=True))
        for i in range(1, (p + 1) // 2):
            b = rand_scalar_nonzero()
            beta[i - 1] = b
            beta[p - i - 1] = alpha / b.conj()
        return AntiInvolution.plus(p, alpha, beta)
    return AntiInvolution.minus(p, rand_unit(), [rand_unit() for _ in range(p - 1)])


def involution_axiom_report(alg, theta, lo=-4, hi=4):
    """Exact axiom checks for one anti-involution on the mode window [lo, hi].

    Covers theta^2 = id, conjugate-linearity, anti-multiplicativity, and stability of the
    Virasoro and Heisenberg spans.  theta is monomial: theta.image_of and bracket_gens are
    read once per label and ordered pair met, as int parts (a, b, d).  Every generator and
    every pair (x, y) is compared: theta([x, y]) - [theta(y), theta(x)] is a sum of terms
    (a + b i)/d that must cancel at each label.
    """
    if theta.p != alg.p:
        raise ConfigError("involution and element disagree on p")
    window = alg.basis_window(lo, hi)
    image_of = cache(theta.image_of)
    image = cache(lambda g: (image_of(g)[0], *int_parts(image_of(g)[1])))  # (h, a, b, d)
    brackets = cache(lambda x, y: [(h, *int_parts(c)) for h, c in alg.bracket_gens(x, y)])
    images = [(g, *image(g)) for g in window]
    checks = {"square": True, "conjugateLinear": True,
              "antiMultiplicative": True, "stability": True}
    probe = Scalar(Fraction(2, 3), Fraction(1, 5))
    allowed = {"L": {"L", "C0"}, "C0": {"C0"}, "I": {"I", "C+"}, "C+": {"C+"}}
    for g, h, a, b, d in images:
        h2, a2, b2, d2 = image(h)  # theta(theta(g)) = conj(s) s2 h2
        if h2 != g or a * a2 + b * b2 != d * d2 or a * b2 != b * a2:
            checks["square"] = False
        if (_involute(image_of, [(g, probe * ONE)])
                != {h: probe.conj() * c for h, c in _involute(image_of, [(g, ONE)]).items()}):
            checks["conjugateLinear"] = False
        if (a or b) and _span_tag(h) not in allowed[_span_tag(g)]:
            checks["stability"] = False
    for gx, hx, ax, bx, dx in images:
        for gy, hy, ay, by, dy in images:
            terms = []
            for h, a, b, d in brackets(gx, gy):  # theta([x, y]): conj(c) theta(h)
                k, a2, b2, d2 = image(h)
                terms.append((a * a2 + b * b2, a * b2 - b * a2, d * d2, k))
            sa, sb = ay * ax - by * bx, ay * bx + by * ax  # [theta(y), theta(x)]: s_y s_x [hy, hx]
            for k, a, b, d in brackets(hy, hx) if sa or sb else ():
                terms.append((sb * b - sa * a, -sa * b - sb * a, dy * dx * d, k))
            if terms and not cancels(terms):
                checks["antiMultiplicative"] = False
    return checks


def _span_tag(g):
    if g.kind == KIND_C:
        return "C0" if g.n == 0 else "C+"
    return g.kind
