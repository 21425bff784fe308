"""Fock-space realization: Virasoro operators as normal-ordered quadratics.

On the Heisenberg Verma module with symmetric index set J the full algebra
acts: I-generators with index in J act as themselves, those outside J by
zero, C_0 by |J|, and

    L_n = sum_{j in J} 1/(2 phi(C_j)) sum_k :I_k^j I_{n-k-1}^{p-j}:
          + [n = 0] * sum_{j in J} j(p-j)/(4p^2),

with :A_k B_l: = A_k B_l if k < l and B_l A_k otherwise.  On a vector of
p-level d the mode sum truncates exactly: a term is nonzero only if its
rightmost factor does not drop below level zero, so only modes
max(k, n-k-1) <= (d-1)/p survive (all modes when both factors create).  The
bound is recomputed per call from the vector itself.  OscillatorModule
applies L_n monomial by monomial and memoizes each monomial's image, so a
relation check over many (m, n) reuses them.

The quadratic sum is generic over any module whose sector contains the J
indices, which lets the same code drive both the Fock realization and
tensor-splitting checks inside the unrestricted Verma module.
"""

from fractions import Fraction

from .algebra import KIND_C, KIND_I, KIND_L, Gen, add_term
from .errors import ConfigError
from .scalars import ZERO, Scalar, scalar
from .verma import HighestWeight, ModuleVector, Sector, VermaModule


def gap_weight_sum(p, j_set):
    """sum_{j in J} j(p-j)/(4p^2), the L_0 eigenvalue of the Fock vacuum."""
    return Scalar(sum(Fraction(j * (p - j), 4 * p * p) for j in j_set))


def virasoro_weight(p, h, c):
    """Weight with only L_0 and C_0 values set; the Heisenberg centers vanish."""
    central = [scalar(c)] + [ZERO] * (p // 2)
    return HighestWeight(p, scalar(h), tuple(central))


def shifted_weight(hw):
    """psi, the Virasoro factor's weight: C_0 less |J|, L_0 less gap_weight_sum(J)."""
    j_set = hw.j_set()
    return virasoro_weight(hw.p, hw.l0 - gap_weight_sum(hw.p, j_set),
                           hw.c_value(0) - len(j_set))


def sugawara_sum(module, j_set, phi_c, n, vec):
    """Apply the normal-ordered quadratic part of L_n to a module vector: each pair of modes
    is composed on the table's ids (VermaModule.evaluate), summed per monomial x and j, and
    scaled back once, a path x -> z -> z2 carrying K^(2 + |x| - |z2|)."""
    p, table = module.alg.p, module.table
    d = vec.max_plevel()
    bound = (d - 1) // p if d >= 1 else -1
    out = {}
    for mono, c in vec.terms.items():
        x = table.intern(mono)
        for j in sorted(j_set):
            acc = {}
            for k in range(n - 1 - bound, bound + 1):
                l = n - k - 1
                pair = Gen(KIND_I, k, j), Gen(KIND_I, l, p - j)
                first, second = pair[::-1] if k < l else pair
                for z, c1 in module.evaluate(first, x).items():
                    for z2, c2 in module.evaluate(second, z).items():
                        acc[z2] = acc.get(z2, 0) + c1 * c2
            pref = c * (2 * phi_c(j)).inv()
            for z2, v in acc.items():
                if v:
                    m2 = table.monomials[z2]
                    add_term(out, m2, pref * module.unscaled(v, m2.length() - mono.length() - 2))
    return ModuleVector(module, out)


class OscillatorModule:
    """The Fock module of a weight, with the extended action of the full algebra."""

    def __init__(self, alg, hw):
        if hw.p != alg.p:
            raise ConfigError("weight and algebra disagree on p")
        self.alg = alg
        self.hw = hw
        self.j_set = hw.j_set()
        if not self.j_set:
            raise ConfigError("the Fock realization needs a nonempty J")
        self.fock = VermaModule(alg, hw, Sector.heisenberg(self.j_set))
        self._l_images = {}  # sugawara_l(n, monomial's basis vector) by (n, monomial)

    def vacuum(self):
        return self.fock.highest_vector()

    def act(self, g, vec):
        """Extended action: I and C through the Heisenberg rules, L through L_n above."""
        if g.kind == KIND_L:
            return self.sugawara_l(g.n, vec)
        if g.kind == KIND_C:
            if g.n == 0:
                return Scalar(len(self.j_set)) * vec
            c = self.hw.c_value(g.n)
            return c * vec if c else ModuleVector(self.fock)
        return self.fock.act(g, vec)

    def sugawara_l(self, n, vec):
        """L_n on a Fock vector, summed from the memoized images of its monomials."""
        out = {}
        for mono, c in vec.terms.items():
            image = self._l_images.get((n, mono))
            if image is None:
                x = self.fock.basis_vector(mono)
                image = sugawara_sum(self.fock, self.j_set, self.hw.c_value, n, x)
                if n == 0:
                    image = image + gap_weight_sum(self.alg.p, self.j_set) * x
                self._l_images[n, mono] = image
            for m2, c2 in image.terms.items():
                add_term(out, m2, c * c2)
        return ModuleVector(self.fock, out)

    def central_charge(self):
        return len(self.j_set)


def virasoro_relation_check(osc, m, n, max_level):
    """Check the Virasoro relation for osc's realized L_m, L_n on all levels <= max_level."""
    central = Fraction(m ** 3 - m, 12) * osc.central_charge() if m + n == 0 else Fraction(0)
    failures = []
    for d in range(0, max_level + 1):
        for mono in osc.fock.pbw_basis(d):
            x = osc.fock.basis_vector(mono)
            lhs = osc.sugawara_l(m, osc.sugawara_l(n, x)) - osc.sugawara_l(n, osc.sugawara_l(m, x))
            rhs = Scalar(m - n) * osc.sugawara_l(m + n, x)
            if central:
                rhs = rhs + Scalar(central) * x
            if lhs != rhs:
                failures.append({"level": d, "monomial": mono.text()})
    return {
        "m": m,
        "n": n,
        "maxLevel": max_level,
        "pass": not failures,
        "failures": failures,
    }
