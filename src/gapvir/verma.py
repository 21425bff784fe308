"""PBW bases and straightening for Verma modules over the gap-p algebra.

Grading is by "p-level", the L_0-eigenvalue shift from the highest weight
times p: a factor L_{-n} adds n*p and I_{-m}^i adds m*p - i, so monomials of
p-level d match the partitions of d (unrestricted module), and dimensions
are a partition DP over the sector's factor sizes.  A monomial is kept in
canonical order: L-factors left of I-factors, L-factors by depth descending,
I-factors by (m, i) descending; negative-mode I-factors commute (their
bracket needs m + m' = 1).  It is its leading factor f times a tail at level
d - |f| led by a factor ranking at most f, so pbw_basis fills the levels
upward from the cached ones below, with no recursion.

Straightening is rightmost-first: a generator applied to a canonical monomial
is prepended (when the canonical order allows) or commuted past the leading
factor, trading the pair for a bracket term at lower p-level; a raising
generator that would take the p-level below 0 gives 0.  With K
(VermaModule.scale) the lcm of 2p and every denominator in phi(L_0) and the
phi(C_j), act_gen(g, x)[z] is K^e times the coefficient of z in g x,
e = 1 + |x| - |z|, |x| the factor count.  It is affine in the weight, since
a lowering generator only reorders and a raising one is consumed by the
first L_0 or C_j it turns into; with K = 2pk and
W = K (phi(L_0), phi(C_0), ..., phi(C_{floor(p/2)})),

    act_gen(g, x)[z] = k^e A_z + k^(e-1) sum_j B_{z,j} W_j

with ints A_z and B_{z,j} free of the weight and the sector (every structure
constant times 2p is an int).  One Straightening per p keeps them for every
module of that p in the process, filled lazily on an explicit stack, and
each sector's level plans: ids, positions, and columns by leading factor, a
run of the basis whose tails are, in order, the last monomials of the lower
level (both orders are lexicographic).  VermaModule.evaluate turns an entry
into {z id: value} at the module's own k and W (ints for a real weight,
Gaussian Scalars for a complex one); the Gram and raising rows read it once
per entry, by id, and act_gen keys it by monomial and memoizes it for act.
act and singular_vectors divide K back out; singular_count ranks the entries
as they stand, which differ from the unscaled ones by row and column factors.
"""

from bisect import bisect_right
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from itertools import chain
from math import lcm

from .algebra import KIND_C, KIND_I, KIND_L, Combination, Gen, add_term, bracket_scaled
from .errors import ConfigError, ScalarParseError
from .linalg import nullspace, rank
from .scalars import ONE, Scalar, int_parts, scalar


class PBWMonomial(namedtuple("PBWMonomial", "lparts iparts", defaults=((), ()))):
    """Ordered product of lowering generators applied to the highest weight vector.

    lparts: depths n of the L_{-n} factors, descending.
    iparts: pairs (m, i) of the I_{-m}^i factors, descending lexicographically.
    """

    __slots__ = ()

    def length(self):
        return len(self.lparts) + len(self.iparts)

    def plevel(self, p):
        return sum(n * p for n in self.lparts) + sum(m * p - i for m, i in self.iparts)

    def leading(self):
        """Label of the leftmost factor; None on the empty monomial."""
        if self.lparts:
            return Gen(KIND_L, -self.lparts[0])
        if self.iparts:
            m, i = self.iparts[0]
            return Gen(KIND_I, -m, i)
        return None

    def tail(self):
        if self.lparts:
            return PBWMonomial(self.lparts[1:], self.iparts)
        return PBWMonomial(self.lparts, self.iparts[1:])

    def text(self):
        body = "".join("L[%d]" % -n for n in self.lparts)
        body += "".join("I[%d,%d]" % (-m, i) for m, i in self.iparts)
        return body + "|hw"

    def __str__(self):
        return self.text()


EMPTY_MONOMIAL = PBWMonomial((), ())


def _rank(g):
    """Canonical factor order: any L-factor outranks any I-factor."""
    if g.kind == KIND_L:
        return (1, -g.n, 0)
    return (0, -g.n, g.i)


class Straightening:
    """The weight-free table of one p (module docstring) in _TABLES: bases by sector, ids of
    monomials (intern; monomials[id]) with their splits, and action(g, x), x an id: a flat
    zr, c, zr', c', ... with zr = z << 32 | r, r = q w + j, w = p // 2 + 3, and c = A_z
    (j = 0, q = e) or B_{z,j-1} (j >= 1, q = e - 1).  So r adds up along a product: a
    prepend has r = 0, and a bracket term, which carries one k, adds w."""

    def __init__(self, p):
        self.p, self.width, self.bases = p, p // 2 + 3, {}  # bases: sector -> levels
        self.monomials, self._ids = [EMPTY_MONOMIAL], {EMPTY_MONOMIAL: 0}
        self._splits = [(None, None, None, 0)]  # id -> (lead, its _rank, tail id, p-level)
        self._actions = defaultdict(dict)  # g -> {x id: entry}
        self._brackets = {}  # (g, leading factor) -> bracket_scaled terms
        self.plans = {}  # sector -> {d: VermaModule.level(d)}

    def intern(self, mono):
        """The id of mono, numbering it and its tails first if new (no recursion)."""
        ids = self._ids
        hit = ids.get(mono)
        if hit is None:
            new = []
            while mono not in ids:
                new.append((mono, mono.tail()))
                mono = new[-1][1]
            for mono, tail in reversed(new):
                lead, tail = mono.leading(), ids[tail]
                hit = ids[mono] = len(self.monomials)
                self.monomials.append(mono)
                self._splits.append((lead, _rank(lead), tail,
                                     self._splits[tail][3] - lead.n * self.p - lead.i))
        return hit

    def action(self, g, x):
        """The entry of g on the id x, filled on an explicit stack of _commute generators."""
        if x not in self._actions[g] and not self._direct(g, x):
            stack = [self._commute(g, x)]
            while stack:
                need = next(stack[-1], None)
                if need is None:
                    stack.pop()
                else:
                    stack.append(self._commute(*need))
        return self._actions[g][x]

    def _direct(self, g, x):
        """Store the entry of g on x and return True, unless g must commute past x's lead."""
        lead, lead_rank, _, level = self._splits[x]
        if g.kind == KIND_C:
            out = (x << 32 | 2 + g.n, 1)
        elif g.kind == KIND_L and g.n == 0:
            out = (x << 32 | self.width, 2 * level, x << 32 | 1, 1) if level else (x << 32 | 1, 1)
        elif g.n < 0 and (lead is None or _rank(g) >= lead_rank):
            m = self.monomials[x]
            out = self.intern(PBWMonomial((-g.n,) + m.lparts, m.iparts) if g.kind == KIND_L
                              else PBWMonomial(m.lparts, ((-g.n, g.i),) + m.iparts)) << 32, 1
        elif level < g.n * self.p + g.i:  # only a raising g, which lowers it by n p + i
            out = ()
        else:
            return False
        self._actions[g][x] = out
        return True

    def _commute(self, g, x):
        """Yield each missing (h, y) that g f = f g + [g, f] needs, f x's lead; store g on x."""
        actions, w = self._actions, self.width
        lead, _, tail, _ = self._splits[x]
        brackets = self._brackets.get((g, lead))
        if brackets is None:
            brackets = self._brackets[g, lead] = bracket_scaled(self.p, g, lead)
        for h in [g] + [h for h, _ in brackets]:
            if tail not in actions[h] and not self._direct(h, tail):
                yield h, tail
        moved, lead_acts = actions[g][tail], actions[lead]
        for zr in moved[::2]:
            if zr >> 32 not in lead_acts and not self._direct(lead, zr >> 32):
                yield lead, zr >> 32
        out, it = {}, iter(moved)
        for zr, c in zip(it, it):
            r, it2 = zr & 0xFFFFFFFF, iter(lead_acts[zr >> 32])
            for zr2, c2 in zip(it2, it2):
                out[zr2 + r] = out.get(zr2 + r, 0) + c * c2
        for h, s in brackets:
            it = iter(actions[h][tail])
            for zr, c in zip(it, it):
                out[zr + w] = out.get(zr + w, 0) + s * c
        if not all(out.values()):
            out = {zr: c for zr, c in out.items() if c}
        actions[g][x] = tuple(chain.from_iterable(out.items()))


_TABLES = {}  # p -> Straightening, filled on first use


class _Factors(dict):
    """u_j k^q at r = q len(u) + j (Straightening), for one module, each made on first read."""

    def __init__(self, u, k):
        self.u, self.k = u, k

    def __missing__(self, r):
        value = self[r] = self.u[r % len(self.u)] * self.k ** (r // len(self.u))
        return value


@dataclass(frozen=True)
class Sector:
    """Which lowering generators a Verma sub-case uses.

    The unrestricted module takes every generator; the Virasoro sub-case only
    L-factors; Heisenberg-type sub-cases only I-factors with index in a fixed
    symmetric set.  Generators of I-type outside the set act as zero (the
    trivial extension), while L-generators on an L-free sector are rejected.
    """

    include_l: bool
    i_indices: frozenset

    @classmethod
    def full(cls, p):
        return cls(True, frozenset(range(1, p)))

    @classmethod
    def virasoro(cls):
        return cls(True, frozenset())

    @classmethod
    def heisenberg(cls, indices):
        return cls(False, frozenset(indices))

    @classmethod
    def complement(cls, p, j_set):
        return cls(True, frozenset(range(1, p)) - frozenset(j_set))


@dataclass(frozen=True)
class HighestWeight:
    """Values of the highest weight on L_0 and C_0..C_{floor(p/2)}."""

    p: int
    l0: Scalar
    c: tuple

    def __post_init__(self):
        if self.p < 2:
            raise ConfigError("p must be >= 2")
        if len(self.c) != self.p // 2 + 1:
            raise ConfigError("need %d central values C_0..C_%d"
                              % (self.p // 2 + 1, self.p // 2))

    @classmethod
    def make(cls, p, l0, c_values):
        return cls(p, scalar(l0), tuple(scalar(v) for v in c_values))

    @classmethod
    def read(cls, p, found, source, given=None):
        """The weight named by l0, c0..c_{p//2} in given flags, else in found; 0 if absent."""
        l0, *central = indexed_values(p, found, source, "c", 0, p // 2, "0", ("l0",), given)
        return cls.make(p, l0, central)

    def c_value(self, j):
        """phi(C_j) for 0 <= j <= p-1, through the alias C_j = C_{p-j}."""
        return self.c[min(j, self.p - j)]

    def j_set(self):
        """The symmetric set J = {i : phi(C_i) != 0}."""
        return frozenset(i for i in range(1, self.p) if self.c_value(i))

    def is_real(self):
        return self.l0.is_real() and all(v.is_real() for v in self.c)

    def describe(self):
        out = {"p": self.p, "l0": str(self.l0)}
        for j, v in enumerate(self.c):
            out["c%d" % j] = str(v)
        return out


def indexed_values(p, found, source, prefix, first, last, fill, extra=(), given=None):
    """Scalars of extra + prefix<first>..prefix<last>: the flag, else found[name], else fill.

    An error names the flag or the source key the value came from.
    """
    given = given or {}
    names = list(extra) + ["%s%d" % (prefix, i) for i in range(first, last + 1)]

    def where(name):
        return "--" + name if name in given else "%s key %r" % (source, name)

    for name in list(given) + list(found):
        if name not in names:
            keys = "%s%d..%s%d" % (prefix, first, prefix, last)
            allowed = "--" + keys.replace("..", "..--") if name in given else ", ".join((*extra, keys))
            raise ConfigError("%s is out of range: p=%d allows %s" % (where(name), p, allowed))
    values = []
    fill = scalar(fill)
    for name in names:
        try:
            values.append(scalar(given.get(name, found.get(name, fill))))
        except ScalarParseError as exc:
            named = "%s %s" % (where(name), given[name]) if name in given else where(name)
            raise ScalarParseError("%s: %s" % (named, exc)) from None
    return values


class ModuleVector(Combination):
    """Finite combination of PBW monomials over one module."""

    __slots__ = ()

    @property
    def module(self):
        return self.space

    def max_plevel(self):
        p = self.module.alg.p
        return max((m.plevel(p) for m in self.terms), default=0)

    def _ordered_keys(self):
        return sorted(self.terms, reverse=True)


class VermaModule:
    """A Verma module (or restricted sub-case) with exact straightening."""

    def __init__(self, alg, hw, sector=None):
        if hw.p != alg.p:
            raise ConfigError("highest weight built for p=%d, algebra has p=%d"
                              % (hw.p, alg.p))
        self.alg = alg
        self.hw = hw
        self.sector = sector if sector is not None else Sector.full(alg.p)
        self.scale = lcm(2 * alg.p, *(int_parts(v)[2] for v in (hw.l0,) + hw.c))
        self.table = _TABLES.get(alg.p) or _TABLES.setdefault(alg.p, Straightening(alg.p))
        u = (1,) + tuple(Scalar(a * (self.scale // d), b * (self.scale // d)) if b
                         else a * (self.scale // d) for a, b, d in map(int_parts, (hw.l0,) + hw.c))
        self._factor = _Factors(u, self.scale // (2 * alg.p))  # u = (1, W)
        self._act_cache = {}  # (g, monomial id) -> act_gen(g, monomial)
        self._gram_cache = {}  # id(theta) -> (theta, Gram rows by level, images), by forms.gram
        self._bases = self.table.bases.setdefault(self.sector, [[EMPTY_MONOMIAL]])
        self._plans = self.table.plans.setdefault(self.sector, {})

    # -- basis ---------------------------------------------------------

    def _part_sizes(self, d):
        """Allowed factor sizes up to d: size n*p for L_{-n}, m*p - i for I_{-m}^i."""
        p = self.alg.p
        sizes = []
        for s in range(1, d + 1):
            r = s % p
            if r == 0:
                if self.sector.include_l:
                    sizes.append(s)
            elif (p - r) in self.sector.i_indices:
                sizes.append(s)
        return sizes

    def pbw_basis(self, d):
        """All monomials of p-level d, in canonical descending order (module docstring)."""
        if d < 0:
            raise ConfigError("p-level must be >= 0")
        levels, p = self._bases, self.alg.p
        sizes = self._part_sizes(d) if d >= len(levels) else ()
        for e in range(len(levels), d + 1):
            out = []
            for s in sizes[:bisect_right(sizes, e)]:
                if s % p == 0:
                    n = s // p
                    out += [PBWMonomial((n,) + y.lparts, y.iparts) for y in levels[e - s]
                            if not y.lparts or y.lparts[0] <= n]
                else:
                    f = ((s + p - s % p) // p, p - s % p)
                    out += [PBWMonomial((), (f,) + y.iparts) for y in levels[e - s]
                            if not y.lparts and (not y.iparts or y.iparts[0] <= f)]
            out.sort(reverse=True)
            levels.append(out)
        return levels[d]

    def graded_dims(self, max_level):
        """Monomial counts at p-levels 0..max_level, by a partition DP over the factor sizes."""
        if max_level < 0:
            raise ConfigError("p-level must be >= 0")
        return part_counts(self._part_sizes(max_level), max_level)

    def highest_vector(self):
        return ModuleVector(self, {EMPTY_MONOMIAL: ONE})

    def basis_vector(self, mono):
        return ModuleVector(self, {mono: ONE})

    # -- action ----------------------------------------------------------

    def unscaled(self, c, e):
        """The Scalar c K^e: with e = |z| - |x| - 1, act_gen(g, x)[z] in the unscaled basis."""
        k = self.scale ** abs(e)
        a, b, d = int_parts(c)
        return Scalar(a * k, b * k, d) if e >= 0 else Scalar(a, b, d * k)

    def act(self, g, vec):
        """Action of a basis generator on a module vector."""
        out = {}
        for mono, c in vec.terms.items():
            for m2, c2 in self.act_gen(g, mono).items():
                add_term(out, m2, c * self.unscaled(c2, m2.length() - mono.length() - 1))
        return ModuleVector(self, out)

    def act_gen(self, g, mono):
        """act_gen(g, mono) (module docstring) as {monomial: entry}, memoized."""
        key = (g, self.table.intern(mono))
        hit = self._act_cache.get(key)
        if hit is None:
            monomials = self.table.monomials
            hit = self._act_cache[key] = {monomials[z]: c for z, c in self.evaluate(*key).items()}
        return hit

    def entries(self, g):
        """g's table entries {x id: entry}; None for an I outside the sector, which acts as 0."""
        if g.kind == KIND_L and not self.sector.include_l:
            raise ConfigError("L-generators do not act on this sector")
        if g.kind == KIND_I and g.i not in self.sector.i_indices:
            return None
        return self.table._actions[g]

    def evaluate(self, g, x):
        """The table's entry of g on the id x at this module's k and W, as {z id: entry}."""
        entries = self.entries(g)
        if entries is None:
            return {}
        entry, factor = entries.get(x) or self.table.action(g, x), self._factor
        if len(entry) == 2:  # one term, the common case
            c = entry[1] * factor[entry[0] & 0xFFFFFFFF]
            return {entry[0] >> 32: c} if c else {}
        out, it = {}, iter(entry)
        for zr, c in zip(it, it):
            z = zr >> 32
            out[z] = out.get(z, 0) + c * factor[zr & 0xFFFFFFFF]
        return out if all(out.values()) else {z: c for z, c in out.items() if c}

    def level(self, d):
        """Level d's plan (module docstring): ids, {id: position}, and [f, d - |f|, b0, b1]
        for each leading factor f, which leads columns b0..b1-1."""
        plan = self._plans.get(d)
        if plan is None:
            ids, splits = list(map(self.table.intern, self.pbw_basis(d))), self.table._splits
            groups = []
            for b, x in enumerate(ids if d else ()):
                f, _, tail, _ = splits[x]
                if not groups or groups[-1][0] != f:
                    groups.append([f, splits[tail][3], b, b])
                groups[-1][3] = b + 1
            plan = self._plans[d] = ids, {x: b for b, x in enumerate(ids)}, groups
        return plan

    # -- raising structure ---------------------------------------------

    def raising_set(self, d):
        """Raising generators whose joint kernel at p-level d is the singular space.

        With L, {L_1, L_2, I_0^i} (L_1 shifts I-modes up); an L-free sector
        needs each I_n^i that can act at level d, so n p + i <= d.
        """
        i_indices = sorted(self.sector.i_indices)
        if self.sector.include_l:
            return [self.alg.L(1), self.alg.L(2)] + [self.alg.I(0, i) for i in i_indices]
        return [self.alg.I(n, i) for n in range(d // self.alg.p + 1) for i in i_indices]

    def _raising_rows(self, d, unscale):
        """The level-d ids and the raising set's blocks stacked, as rows {column: entry}:
        evaluate(g, x)[z] at (z, x), unscaled if asked.  No rows on an empty basis."""
        if d < 1:
            raise ConfigError("singular vectors live at p-level >= 1")
        ids, monomials, rows = self.level(d)[0], self.table.monomials, []
        for g in self.raising_set(d) if ids else ():
            target = d - g.n * self.alg.p - g.i  # g lowers the p-level by n p + i
            if target < 0:
                continue
            index = self.level(target)[1]
            block = [{} for _ in index]
            for b, x in enumerate(ids):
                for z, c in self.evaluate(g, x).items():
                    block[index[z]][b] = (self.unscaled(c, monomials[z].length()
                                                        - monomials[x].length() - 1)
                                          if unscale else c)
            rows += block
        return ids, rows

    def singular_vectors(self, d):
        """Exact basis of level-d vectors killed by the raising set."""
        ids, rows = self._raising_rows(d, True)
        return [ModuleVector(self, {self.table.monomials[x]: c for x, c in zip(ids, sol) if c})
                for sol in nullspace(rows, len(ids))] if ids else []

    def singular_count(self, d):
        """dim of the level-d singular space: dim - rank of the raising rows, taken on the
        evaluated entries c; the unscaled c K^(|z| - |x| - 1) scales them by a row factor
        K^|z| and a column factor K^-(|x| + 1), which keep the rank."""
        ids, rows = self._raising_rows(d, False)
        return len(ids) - rank(rows, len(ids)) if ids else 0


def part_counts(sizes, top):
    """Partitions of 0..top into parts of the given sizes, each in 1..top, by a DP over them."""
    ways = [1] + [0] * top
    for s in sizes:
        for k in range(s, top + 1):
            ways[k] += ways[k - s]
    return ways


def partition_count(n, cache={0: 1}):
    """Partition numbers by Euler's pentagonal recurrence (independent of enumeration)."""
    if n < 0:
        return 0
    if n in cache:
        return cache[n]
    for m in range(max(cache) + 1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 else -1
            if g1 <= m:
                total += sign * cache[m - g1]
            if g2 <= m:
                total += sign * cache[m - g2]
            k += 1
        cache[m] = total
    return cache[n]
