"""Contravariant Gram forms on Verma levels and exact definiteness verdicts.

The form is fixed by contravariance <x u, w> = <u, theta(x) w> and
<v, v> = 1 on the highest weight vector, for a plus-type anti-involution
theta; it is linear in its first slot and conjugate-linear in its second,
and its entry at (x, y), y = f_1...f_k, is the coefficient of v in
theta(f_k)...theta(f_1) x v.  Levels are assembled recursively (Shapovalov
style): with y = f y', (g, c) = theta(f) and d' the p-level of y', the column
of G_d at y is c * sum_z act_gen(g, x)[z] * G_{d'}[z, y'] over the level-d'
basis z, for each x of level d, by associativity.  Every level below d is
built once and cached on the module, by theta and then level; the tests
keep the per-entry route as the independent reference.  The recursion runs
on verma's rescaled monomials x' = K^|x| x, so the cached rows are
G' = D G D, D = diag(K^|x|): ints for a real weight and theta coefficients
+-1.  A positive diagonal congruence keeps hermiticity, inertia and kernel
dimension (Sylvester's law); gram converts G' to G only when a report reads
its entries.

Definiteness is decided by LDL* with complete symmetric pivoting: the
nonzero diagonal entry of fewest bits (linalg.entry_size) goes first, the
lowest index on a tie.  When every remaining diagonal entry vanishes but an
off-diagonal one does not, the first such pair (i, j), i < j, gives a 2x2
principal block [[0,g],[g*,0]] with one positive and one negative inertia
count, which leading principal minors alone would miss.  Sylvester's law
turns the exact pivot signs into an exact inertia triple (verdict_kind).
The elimination runs on G' itself, fraction-free on linalg.cleared rows: a
pivot d sets row r to |d| row_r - sgn(d) a_rb row_b, a 2x2 block to
a_ij a_ji row_r - a_ri a_ij row_j - a_rj a_ji row_i, and linalg.primitive
divides out the row's gcd.  Each step scales a row of the Schur complement
by a positive number, so no later pivot changes sign; full rows are kept,
since rows scaled apart are not symmetric.  The pivot rule reads
a[k][k] / s_k, the diagonal of G's own Schur complement: s_k, a reduced pair
of ints, is K^(2|x_k|) times the row's clearing denominator and later
multipliers over its gcds.  So pivots, witness and inertia are the LDL*'s on G.

split_inertia reaches the same triples without the full Gram matrix: for a
real weight and real beta the form is that of Fock(J) (x) Virasoro(psi),
psi = shifted_weight(hw); a monomial with an I^i factor, i not in J, lies in
the radical (its brackets end in C_i = 0).  The Fock form is diagonal, so its
inertia is a count by sign (fock_sign_counts); kac_wall_inertia decides the
Virasoro levels (multiples of p) where psi is off every Kac wall, and only
the others run an LDL*.

reducibility_report decides every weight on the full sector by the split.
J is symmetric, so [I^j, I^i] = 0 for j in J and i not in J: the
Sugawara-shifted L commutes with Fock(J), and the module is Fock(J) (x)
M_rest(psi), M_rest the Verma module of psi's complement sector (L and the
I^i with i not in J).  Fock(J) is irreducible, so the singular count at every
level, VermaModule.singular_count (the level's dimension less the integer
rank of the K-scaled raising rows), is that of M_rest(psi), for any weight.
For a real weight, gramKernel and verdict come from split_inertia; a complex
weight has no Gram fields.  The brute routes (the full Gram matrix, the full
module's singular count) re-derive the levels up to split_check_level, and
crossCheck records whether the routes agree (singular counts alone for a
complex weight); the CLI exits 1 when they do not.  The restricted sectors
stay brute.

The closed forms are Virasoro statements: phi_virasoro is built from two
kac_factor values.  kac_zeros scans for its zeros, run at (h, c) by kac_scan
and at psi by phiCriterion, on ints through _kac_walls for a real weight, the
classifier kac_wall_inertia shares.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .algebra import AntiInvolution
from .errors import GramIntegrityError, UnsupportedInvolutionError
from .linalg import cleared, primitive
from .oscillator import shifted_weight, virasoro_weight
from .scalars import ZERO, Scalar, int_parts, scalar, sign_of_real
from .verma import Sector, VermaModule, partition_count

PD = "positive-definite"
PSD_SINGULAR = "positive-semidefinite-singular"
INDEFINITE = "indefinite"
NEGATIVE = "negative-containing"


@dataclass
class GramMatrix:
    """Gram matrix G of basis for theta's form: rows are gram's G' = D G D, or G itself
    when built directly (module None); entries converts rows to G on first read."""

    level: int
    basis: list
    rows: list
    theta: object
    module: object = None

    @cached_property
    def entries(self):
        if self.module is None:
            return self.rows
        powers = [self.module.scale ** m.length() for m in self.basis]
        return [[Scalar(a, b, d * ka * kb) if a or b else ZERO
                 for kb, (a, b, d) in zip(powers, map(int_parts, row))]
                for ka, row in zip(powers, self.rows)]

    def dim(self):
        return len(self.basis)

    def is_hermitian(self):
        """Whether G is Hermitian, checked on rows: D is a positive diagonal."""
        rows = self.rows
        return all([r[a] for r in rows] == [v.conj() if type(v) is Scalar else v for v in row]
                   for a, row in enumerate(rows))

    def to_strings(self):
        return [[str(v) for v in row] for row in self.entries]


@dataclass
class DefinitenessVerdict:
    kind: str
    witness: tuple = ()
    inertia: tuple = (0, 0, 0)

    @property
    def kernel_dim(self):
        """Sylvester: the zero-pivot count is the kernel dimension."""
        return self.inertia[2]

    def describe(self):
        out = {"kind": self.kind, "kernelDim": self.kernel_dim,
               "inertia": list(self.inertia)}
        if self.witness:
            out["witness"] = list(self.witness)
        return out


def gram(module, theta, d):
    """Gram matrix of the level-d basis for the contravariant form of theta."""
    if theta.kind != "plus":
        raise UnsupportedInvolutionError(
            "contravariant Gram forms need a plus-type involution")
    levels, images = module._gram_cache.setdefault(theta, ([], {}))
    while len(levels) <= d:
        levels.append(_gram_level(module, theta, levels, images))
    return GramMatrix(d, module.pbw_basis(d), levels[d], theta, module)


def _gram_level(module, theta, levels, images):
    """Rows of the rescaled Gram matrix G' at level d = len(levels), by the module docstring.

    levels holds the rows of levels 0..d-1, and images theta's image of each
    leading factor met so far.  Columns that share a leading factor share one
    act_gen call per row.
    """
    d = len(levels)
    if not d:
        return [[1]]
    basis = module.pbw_basis(d)
    n = len(basis)
    rows = [[0] * n for _ in range(n)]
    by_lead = {}
    for b, y in enumerate(basis):
        lead, tail = module.table.split(y)
        by_lead.setdefault(lead, []).append((b, tail))
    p = module.alg.p
    for f, cols in by_lead.items():
        if f not in images:
            g, c = theta.image_of(f)
            if int_parts(c)[1:] == (0, 1):  # an int c keeps int rows int
                c = int_parts(c)[0]
            images[f] = g, c
        g, c = images[f]
        lower_level = cols[0][1].plevel(p)
        lower = levels[lower_level]
        index = {m: k for k, m in enumerate(module.pbw_basis(lower_level))}
        cols = [(b, index[tail]) for b, tail in cols]
        for a, x in enumerate(basis):
            image = [(lower[index[z]], cz) for z, cz in module.act_gen(g, x).items()]
            row = rows[a]
            for b, j in cols:
                s = 0
                for lower_row, cz in image:
                    e = lower_row[j]
                    if e:
                        s = s + cz * e
                if s:
                    row[b] = c * s
    return rows


def definiteness(g):
    """Exact definiteness verdict for a Hermitian Gram matrix, by the module docstring's LDL*."""
    if not g.is_hermitian():
        raise GramIntegrityError("gram matrix is not Hermitian")
    gaussian = any(type(v) is Scalar and int_parts(v)[1] for row in g.rows for v in row)
    # a[r] is a positive multiple of row r of the Schur complement of rows;
    # a[r][r] is s[r] times G's own Schur diagonal; idx[r] is position r's basis index
    a, s = [], []
    for x, row in zip(g.basis, g.rows):
        row, den = cleared(row, gaussian)
        a.append(row)
        s.append((den if g.module is None else den * g.module.scale ** (2 * x.length()), 1))
    idx = list(range(len(a)))
    sizes = [_pivot_size(row[r], s[r]) for r, row in enumerate(a)]

    def renew(r, row, mult):
        row, c = primitive(row, gaussian)
        a[r] = row
        if c:  # s[r] times mult / c, reduced by one gcd: every factor is positive
            num, den = s[r][0] * mult, s[r][1] * c
            e = gcd(num, den)
            s[r] = num // e, den // e
        sizes[r] = _pivot_size(row[r], s[r])

    n_pos = n_neg = n_zero = 0
    trail, witness = [], ()
    while a:
        live = [r for r, size in enumerate(sizes) if size is not None]
        if live:
            b = min(live, key=sizes.__getitem__)
            pivot = a.pop(b)
            trail.append(idx.pop(b))
            del s[b], sizes[b]
            d = _integer(pivot.pop(b))
            n_pos, n_neg = (n_pos + 1, n_neg) if d > 0 else (n_pos, n_neg + 1)
            m = abs(d)
            for r, row in enumerate(a):
                f = row.pop(b)
                if f:
                    f = f if d > 0 else -f
                    renew(r, [m * x - f * y for x, y in zip(row, pivot)], m)
            if not witness and n_pos and n_neg:
                witness = tuple(trail)
            continue
        # all remaining diagonals vanish
        pair = next(((i, j) for i, r in enumerate(a) for j in range(i + 1, len(a)) if r[j]), None)
        if pair is None:
            n_zero += len(a)
            break
        i, j = pair
        n_pos, n_neg = n_pos + 1, n_neg + 1
        if not witness:
            witness = (idx[i], idx[j])
        row_j, row_i = a.pop(j), a.pop(i)
        del idx[j], idx[i], s[j], s[i], sizes[j], sizes[i]
        g_ij, g_ji = row_i[j], row_j[i]
        prod = _integer(g_ij * g_ji)
        del row_i[j], row_i[i], row_j[j], row_j[i]
        for r, row in enumerate(a):
            f_j, f_i = row.pop(j), row.pop(i)
            if f_i or f_j:
                u, w = f_i * g_ij, f_j * g_ji
                renew(r, [prod * x - u * y - w * z for x, y, z in zip(row, row_j, row_i)], prod)
    inertia = (n_pos, n_neg, n_zero)
    kind = verdict_kind(inertia)
    return DefinitenessVerdict(kind, witness if kind == INDEFINITE else (), inertia)


def _pivot_size(v, s):
    """Bits of the diagonal v / s, s a reduced pair (num, den), for the pivot rule; None at 0."""
    if not v:
        return None
    num, den = s
    v = _integer(v)
    c = gcd(v, num)
    return (v // c * den).bit_length() + (num // c).bit_length()


def _integer(v):
    """An int, or a real Gaussian integer as an int."""
    return int_parts(v)[0] if type(v) is Scalar else v


def verdict_kind(inertia):
    """The definiteness verdict of an inertia triple (positive, negative, zero)."""
    n_pos, n_neg, n_zero = inertia
    if n_neg == 0:
        return PSD_SINGULAR if n_zero else PD
    return INDEFINITE if n_pos else NEGATIVE


# -- split route ----------------------------------------------------------------


def _signed_partition_counts(parts, max_level):
    """[positive, negative] partition counts at levels 0..max_level, parts given as (size, flips).

    A partition's sign is the product of its parts' signs, so adding a part
    of size s moves the counts at d - s to d, swapped when the part flips.
    """
    counts = [[1, 0]] + [[0, 0] for _ in range(max_level)]
    for s, flip in parts:
        for d in range(s, max_level + 1):
            pos, neg = counts[d - s]
            counts[d][0] += neg if flip else pos
            counts[d][1] += pos if flip else neg
    return counts


def fock_sign_counts(module, theta, max_level):
    """[positive, negative] norm counts of an L-free sector's monomials, levels 0..max_level.

    The factor I_{-m}^i has norm c [g, I_{-m}^i] with (g, c) = theta(I_{-m}^i),
    and a monomial's norm is a positive multiple of its factors' product, so a
    partition DP over the factor sizes counts the monomials of each sign.
    """
    alg, p = module.alg, module.alg.p
    parts = []
    for s in module._part_sizes(max_level):
        i = -s % p  # the factor of size s = m p - i
        f = alg.I(-((s + i) // p), i)
        g, c = theta.image_of(f)
        norm = sum((c * coeff * module.hw.c_value(h.n) for h, coeff in alg.bracket_gens(g, f)),
                   ZERO)
        parts.append((s, sign_of_real(norm) < 0))
    return _signed_partition_counts(parts, max_level)


def kac_wall_inertia(psi, max_n):
    """Virasoro-sector inertia that the Kac walls decide at levels 0..N, N <= max_n.

    psi is a real weight (h', c'), theta has alpha = 1.  By Kac's determinant
    formula det G_n vanishes exactly where some phi_virasoro(h, c', a, b),
    ab <= n, a monic quadratic in h, does: a wall entering at level ab, which
    _kac_walls places on, around, above or below h'.  The form is PD as
    h -> +infinity and has sign (-1)^length on partitions as h -> -infinity,
    so a level with no wall at or above h' is PD, and one with none at or
    below h' has inertia (#even-length, #odd-length, 0).  Both certified sets
    are prefixes; the triples of levels 0..N are returned.
    """
    up = down = max_n + 1  # first level with a wall at or above h', at or below h'
    for a, b, phi, below in _kac_walls(psi.l0, psi.c_value(0), [  # phi symmetric in a, b
            (a, b) for a in range(1, max_n + 1) for b in range(a, max_n // a + 1)]):
        if phi <= 0:
            up, down = min(up, a * b), min(down, a * b)
        elif below:
            down = min(down, a * b)
        elif below is not None:
            up = min(up, a * b)
    parity = _signed_partition_counts([(s, True) for s in range(1, max_n + 1)], max_n)
    return [(partition_count(n), 0, 0) if n < up else (even, odd, 0)
            for n, (even, odd) in enumerate(parity[:max(up, down)])]


def split_inertia(alg, hw, theta, max_level):
    """Inertia triples of the full module's form at levels 0..max_level, by the split, and
    the number of Virasoro levels, 0 included, that the Kac walls certified.

    Needs a real weight and real beta, and alpha = 1.  pos = sum F+ V+ + F- V-,
    neg = sum F+ V- + F- V+ over Fock level d - n p and Virasoro level n; the
    rest of partition_count(d) is the zero count, a partial J's radical
    included.  V is kac_wall_inertia's where certified, else psi's LDL.
    """
    p = alg.p
    fock = fock_sign_counts(VermaModule(alg, hw, Sector.heisenberg(hw.j_set())), theta,
                            max_level)
    psi = shifted_weight(hw)
    vira = VermaModule(alg, psi, Sector.virasoro())
    vir = kac_wall_inertia(psi, max_level // p)
    certified = len(vir)
    vir += [definiteness(gram(vira, theta, n * p)).inertia
            for n in range(len(vir), max_level // p + 1)]
    out = []
    for d in range(max_level + 1):
        pos = neg = 0
        for n, (v_pos, v_neg, _) in enumerate(vir[:d // p + 1]):
            f_pos, f_neg = fock[d - n * p]
            pos += f_pos * v_pos + f_neg * v_neg
            neg += f_pos * v_neg + f_neg * v_pos
        out.append((pos, neg, partition_count(d) - pos - neg))
    return out, certified


def split_check_level(p, max_level):
    """The highest level the brute routes re-derive after a split to max_level: those
    whose full dimension is at most partition_count(max_level // p), the largest
    Virasoro-sector level the split eliminated, so the split bounds their cost."""
    cap = partition_count(max_level // p)
    top = max_level // p
    while top < max_level and partition_count(top + 1) <= cap:
        top += 1
    return top


# -- closed-form Gram factors -----------------------------------------------


def kac_factor(h, c, a, b):
    """The linear Kac factor h + (a^2-1)(c-13)/24 + (ab-1)/2 at (a, b)."""
    return scalar(h) + Scalar(a * a - 1, 0, 24) * (scalar(c) - 13) + Scalar(a * b - 1, 0, 2)


def phi_virasoro(h, c, a, b):
    """Exact value of the degree-two Gram factor for the Virasoro sub-case."""
    return (kac_factor(h, c, a, b) * kac_factor(h, c, b, a)
            + Scalar((a * a - b * b) ** 2, 0, 16))


def kac_zeros(h, c, max_ab):
    """[a, b] with a, b >= 1, a*b <= max_ab and phi_virasoro(h, c, a, b) = 0, a-major order:
    by _kac_walls on ints when h and c are real, on Scalars otherwise."""
    h, c = scalar(h), scalar(c)
    pairs = [(a, b) for a in range(1, max_ab + 1) for b in range(1, max_ab // a + 1)]
    if h.is_real() and c.is_real():
        return [[a, b] for a, b, phi, _ in _kac_walls(h, c, pairs) if not phi]
    return [[a, b] for a, b in pairs if phi_virasoro(h, c, a, b).is_zero()]


def _kac_walls(h, c, pairs):
    """(a, b, phi, below) for real h, c and each (a, b) in pairs, on ints: phi has the sign
    of phi_virasoro(h, c, a, b); below is None if phi <= 0 or no root is real, else whether
    both roots lie below h.  With h = x/y, (c - 13)/24 = t = T/D and kac_factor's A = alpha/2D,
    B = beta/2D: 16 D^2 y^2 phi = 4 (2Dx + alpha y)(2Dx + beta y) + ((a^2 - b^2) D y)^2, the
    discriminant (a^2 - b^2)^2 (t^2 - 1/4) < 0 iff a != b and 4 T^2 < D^2, and the vertex
    -(A + B)/2 < h iff -(alpha + beta) y < 4 D x."""
    x, _, y = int_parts(h)
    t, _, den = int_parts(c)
    t, den = t - 13 * den, 24 * den
    no_roots = 4 * t * t < den * den  # for every wall with a != b
    for a, b in pairs:
        u = (a * b - 1) * den
        alpha, beta = 2 * (a * a - 1) * t + u, 2 * (b * b - 1) * t + u
        phi = (4 * (2 * den * x + alpha * y) * (2 * den * x + beta * y)
               + ((a * a - b * b) * den * y) ** 2)
        yield a, b, phi, (None if phi <= 0 or (a != b and no_roots)
                          else -(alpha + beta) * y < 4 * den * x)


# -- reducibility oracle ------------------------------------------------------


def reducibility_report(module, max_level, max_ab=None):
    """Level-by-level singular-vector and Gram-kernel scan, routed as in the module docstring.

    crossCheck is None on a restricted sector; a complex weight has no Gram
    fields.
    """
    hw, alg, p = module.hw, module.alg, module.alg.p
    theta = AntiInvolution.plus(p)
    full = module.sector == Sector.full(p)
    if full and hw.is_real():
        inertia = split_inertia(alg, hw, theta, max_level)[0]
    elif hw.is_real():
        inertia = [_brute_inertia(module, theta, d) for d in range(max_level + 1)]
    else:
        inertia = [None] * (max_level + 1)
    # the full module is Fock(J) (x) M_rest(psi), and Fock(J) is irreducible
    rest = (VermaModule(alg, shifted_weight(hw), Sector.complement(p, hw.j_set())) if full
            else module)
    levels = []
    for d, dim in enumerate(module.graded_dims(max_level)):
        known = inertia[d] is not None
        levels.append({"d": d, "dim": dim, "singular": _brute_singular(rest, d),
                       "gramKernel": inertia[d][2] if known else None,
                       "verdict": verdict_kind(inertia[d]) if known else None})
    cross = None
    if full:
        top = split_check_level(p, max_level)
        agreement = all((inertia[d] is None or _brute_inertia(module, theta, d) == inertia[d])
                        and _brute_singular(module, d) == levels[d]["singular"]
                        for d in range(top + 1))
        cross = {"bruteMaxLevel": top, "agreement": agreement}
    report = {
        "phi": hw.describe(),
        "p": hw.p,
        "levels": levels,
        "firstSingularLevel": next((e["d"] for e in levels if e["singular"] or e["gramKernel"]),
                                   None),
        "crossCheck": cross,
    }
    if max_ab:
        psi = shifted_weight(hw)
        full_j = full and hw.j_set() == frozenset(range(1, p))
        report["phiCriterion"] = {
            "applicable": full_j,
            "zeros": kac_zeros(psi.l0, psi.c_value(0), max_ab) if full_j else [],
        }
    return report


def _brute_singular(module, d):
    return module.singular_count(d) if d else 0


def _brute_inertia(module, theta, d):
    return definiteness(gram(module, theta, d)).inertia


# -- Virasoro sub-case scan ----------------------------------------------------


def virasoro_module(alg, h, c):
    return VermaModule(alg, virasoro_weight(alg.p, h, c), Sector.virasoro())


def kac_scan(alg, c_values, h_values, max_vir_level, max_ab):
    """Compare the closed-form zero set with brute-force singular vectors.

    For each central charge, collects the grid weights where some criterion
    factor vanishes (index product bounded by max_ab) and the grid weights
    where a singular vector exists at Virasoro level <= max_vir_level.  The
    scan records which logical direction the comparison supports.
    """
    p = alg.p
    per_c = []
    all_equal = True
    for c in c_values:
        zero_h = []
        singular_h = []
        for h in h_values:
            if kac_zeros(h, c, max_ab):
                zero_h.append(str(scalar(h)))
            module = virasoro_module(alg, h, c)
            if any(module.singular_count(p * lvl)
                   for lvl in range(1, max_vir_level + 1)):
                singular_h.append(str(scalar(h)))
        equal = zero_h == singular_h
        all_equal = all_equal and equal
        per_c.append({
            "c": str(scalar(c)),
            "criterionZeroWeights": zero_h,
            "singularVectorWeights": singular_h,
            "setsEqual": equal,
        })
    return {
        "grid": per_c,
        "setsEqual": all_equal,
        "direction": ("zero of the criterion marks a reducible module"
                      if all_equal else "unresolved: sets differ"),
    }
