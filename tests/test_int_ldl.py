"""The fraction-free LDL* in forms.definiteness against the Fraction/Scalar LDL* it replaced.

reference.definiteness eliminates G's own entries by exact Schur complements.
The fraction-free route eliminates the scaled integer rows, so it must pick
the same pivots: the same (kind, inertia, witness) on every input.
"""

import random
from fractions import Fraction

import pytest

import reference
from gapvir import forms
from gapvir.algebra import AntiInvolution, GapVirasoro
from gapvir.errors import GramIntegrityError
from gapvir.forms import INDEFINITE, PD, PSD_SINGULAR, GramMatrix, definiteness, gram
from gapvir.scalars import Scalar, scalar
from gapvir.verma import HighestWeight, Sector, VermaModule

UNIT_GAUSSIAN = ["1", "-1", "i", "-i", "3/5+4/5*i", "5/13-12/13*i", "-8/17+15/17*i"]


def outcome(route, g):
    try:
        v = route(g)
    except GramIntegrityError:
        return "not-hermitian"
    return v.kind, v.inertia, v.witness


def symmetric(rng, n, entry):
    """Seeded symmetric matrix of entry() values: full, low-rank, zero-diagonal or 2x2 blocks."""
    shape = rng.choice(("full", "low-rank", "zero-diagonal", "blocks"))
    if shape == "low-rank":
        vecs = [[entry() for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
        signs = [rng.choice((-1, 1)) for _ in vecs]
        return [[sum((s * v[a] * v[b] for s, v in zip(signs, vecs)), 0 * entry())
                 for b in range(n)] for a in range(n)]
    m = [[0 * entry() for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            if shape == "full" or (shape == "zero-diagonal" and a != b):
                m[a][b] = m[b][a] = entry()
    if shape == "blocks":  # [[0, g], [g, 0]] blocks on the diagonal, a few couplings
        for a in range(0, n - 1, 2):
            m[a][a + 1] = m[a + 1][a] = entry()
        for _ in range(rng.randint(0, n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                m[a][b] = m[b][a] = entry()
    return m


def test_definiteness_matches_the_reference_on_seeded_matrices():
    rng = random.Random(1606)
    kinds = set()
    for case in range(240):
        n = rng.randint(1, 9)
        kind = ("int", "fraction", "gaussian")[case % 3]
        if kind == "int":
            rows = symmetric(rng, n, lambda: rng.randint(-9, 9))
        else:
            rows = symmetric(rng, n,
                             lambda: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 8))))
        if kind == "gaussian":
            unit = [scalar(rng.choice(UNIT_GAUSSIAN)) for _ in range(n)]
            rows = [[unit[a] * rows[a][b] * unit[b].conj() for b in range(n)] for a in range(n)]
        g = GramMatrix(0, list(range(n)), rows, None)
        got = outcome(definiteness, g)
        assert got == outcome(reference.definiteness, g), (kind, rows)
        kinds.add((kind, got[0]))
        assert sum(got[1]) == n
    assert {(k, v) for k in ("int", "fraction", "gaussian")
            for v in (PD, PSD_SINGULAR, INDEFINITE)} <= kinds


def test_definiteness_matches_the_reference_on_seeded_matrices_to_dim_12():
    # the dims the oracle's levels reach (11) and one beyond, in every seeded shape
    rng = random.Random(2912)
    dims = set()
    for case in range(150):
        n = rng.randint(1, 12)
        kind = ("int", "fraction", "gaussian")[case % 3]
        if kind == "int":
            rows = symmetric(rng, n, lambda: rng.randint(-99, 99))
        else:
            rows = symmetric(rng, n,
                             lambda: Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 8, 25))))
        if kind == "gaussian":
            unit = [scalar(rng.choice(UNIT_GAUSSIAN)) for _ in range(n)]
            rows = [[unit[a] * rows[a][b] * unit[b].conj() for b in range(n)] for a in range(n)]
        g = GramMatrix(0, list(range(n)), rows, None)
        got = outcome(definiteness, g)
        assert got == outcome(reference.definiteness, g), (kind, rows)
        assert sum(got[1]) == n
        dims.add(n)
    assert dims == set(range(1, 13))


def zero_diagonal_pairs():
    # every diagonal vanishes: 2x2 steps first, then the 1x1 steps they leave
    yield [[0, 2, 1], [2, 0, 3], [1, 3, 0]]
    yield [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 5], [0, 0, 5, 0]]
    yield [[0, 0, 0], [0, 0, 4], [0, 4, 0]]  # a kernel before the first pair
    yield [[0, "1*i", "2"], ["-1*i", "0", "1-1*i"], ["2", "1+1*i", "0"]]


@pytest.mark.parametrize("rows", list(zero_diagonal_pairs()))
def test_zero_diagonal_pairs_match_the_reference(rows):
    rows = [[scalar(v) if isinstance(v, str) else v for v in row] for row in rows]
    g = GramMatrix(0, list(range(len(rows))), rows, None)
    assert outcome(definiteness, g) == outcome(reference.definiteness, g)
    assert definiteness(g).witness == next((a, b) for a, row in enumerate(rows)
                                           for b in range(a + 1, len(rows)) if row[b])


def gram_cases():
    """(p, weight, sector, beta): indefinite, PSD-singular and complex-beta Gram levels."""
    yield 2, ("-1/5", ["1/2", "1"]), None, None          # indefinite from level 2
    yield 2, ("1/16", ["1/2", "1"]), None, None          # Ising: singular levels
    yield 2, ("-1/5", ["-1/2", "0"]), "virasoro", None
    yield 2, ("13/48", ["3/2", "0"]), "virasoro", None
    yield 2, ("1", ["3", "1/5"]), None, ["3/5-4/5*i"]    # not Hermitian
    yield 3, ("1/4", ["9", "1"]), None, None
    yield 3, ("0", ["1", "0"]), None, ["i", "i"]         # J empty: real rows, complex beta
    yield 3, ("-1/3", ["5/2", "1"]), None, ["i", "i"]    # not Hermitian
    yield 3, ("1/9", ["-2", "0"]), "virasoro", None
    yield 4, ("0", ["1", "0", "1"]), None, None          # partial J = {2}: a radical
    yield 4, ("1/3", ["5", "-1", "2"]), None, ["1", "-1", "1"]
    yield 4, ("-1/4", ["7", "0", "0"]), "virasoro", None


@pytest.mark.parametrize("p, weight, sector, beta", list(gram_cases()))
def test_gram_levels_match_the_reference(p, weight, sector, beta):
    hw = HighestWeight.make(p, *weight)
    alpha = scalar(beta[0]).norm2() if beta else 1
    theta = AntiInvolution.plus(p, alpha, beta)
    module = VermaModule(GapVirasoro(p), hw, Sector.virasoro() if sector else None)
    levels = range(0, 8 * p + 1, p) if sector else range(8 - p)
    for d in levels:
        g = gram(module, theta, d)
        assert outcome(definiteness, g) == outcome(reference.definiteness, g), d


def test_gram_cases_cover_every_verdict():
    seen = set()
    for p, weight, sector, beta in gram_cases():
        hw = HighestWeight.make(p, *weight)
        theta = AntiInvolution.plus(p, scalar(beta[0]).norm2() if beta else 1, beta)
        module = VermaModule(GapVirasoro(p), hw, Sector.virasoro() if sector else None)
        seen.update(o if o == "not-hermitian" else o[0]
                    for o in (outcome(definiteness, gram(module, theta, d)) for d in range(5)))
    assert {PD, PSD_SINGULAR, INDEFINITE, "not-hermitian"} <= seen


def test_definiteness_never_builds_the_entries(monkeypatch):
    module = VermaModule(GapVirasoro(2), HighestWeight.make(2, "-1/5", ["1/2", "1"]))
    theta = AntiInvolution.plus(2)
    made = []
    init = Scalar.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    for d in range(7):
        g = gram(module, theta, d)
        monkeypatch.setattr(Scalar, "__init__", counted)
        verdict = definiteness(g)
        monkeypatch.setattr(Scalar, "__init__", init)
        assert "entries" not in vars(g) and not made
        assert verdict.inertia == reference.definiteness(g).inertia
        assert "entries" in vars(g)  # the reference reads G, converted once
    assert verdict.inertia == (6, 5, 0) and verdict.witness == (0, 9)


def test_rows_stay_primitive(monkeypatch):
    # without the gcd a row would grow by its pivot's size at every step
    module = VermaModule(GapVirasoro(2), HighestWeight.make(2, "-1/5", ["-1/2", "0"]),
                         Sector.virasoro())
    g = gram(module, AntiInvolution.plus(2), 12)  # dim 11, indefinite
    start = max(abs(v).bit_length() for row in g.rows for v in row)
    sizes = []
    pivot_size = forms._pivot_size

    def recorded(v, s):
        sizes.append(abs(v).bit_length())
        return pivot_size(v, s)

    monkeypatch.setattr(forms, "_pivot_size", recorded)
    assert definiteness(g).kind == INDEFINITE
    assert len(sizes) > 2 * g.dim() and max(sizes) < 2 * start
