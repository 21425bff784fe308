"""The weight-free straightening table against the reference straightening.

verma.Straightening keeps, per p, ints A_z and B_{z,j} with
act_gen(g, x)[z] = k^e A_z + k^(e-1) sum_j B_{z,j} W_j, and every module of
that p evaluates them at its own k and W.  Here every entry up to a p-level
is checked against reference.py's unscaled Scalar straightening, for weights
that share one table; the fill itself must build no Scalar and call no
bracket_gens, and must not recurse.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from gapvir import verma
from gapvir.algebra import GapVirasoro
from gapvir.scalars import Scalar
from gapvir.verma import HighestWeight, PBWMonomial, Sector, Straightening, VermaModule
import reference

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def weights(rng, p):
    """Real, complex, zero-l0 and partial-J weights of one p, seeded."""
    def q():
        return Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 4, 7, 16)))

    real = [q() for _ in range(p // 2 + 2)]
    partial = [real[1], 0] + real[3:]  # phi(C_1) = 0: J is empty for p <= 3
    return {
        "real": HighestWeight.make(p, real[0], real[1:]),
        "complex": HighestWeight(p, Scalar(q(), q()), tuple(Scalar(q(), q())
                                                            for _ in range(p // 2 + 1))),
        "zero-l0": HighestWeight.make(p, 0, real[1:]),
        "partial-J": HighestWeight.make(p, real[0], partial),
    }


def generators(alg, sector):
    p = alg.p
    gens = [alg.C(j) for j in range(p // 2 + 1)]
    gens += [alg.I(n, i) for n in (-2, -1, 0, 1, 2) for i in range(1, p)]
    if sector.include_l:
        gens += [alg.L(n) for n in (-2, -1, 0, 1, 2, 3)]
    return gens


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_every_entry_matches_the_reference(p):
    rng = random.Random("weight-free-%d" % p)
    alg = GapVirasoro(p)
    top = 10 if p < 5 else 8
    modules = []
    for name, hw in weights(rng, p).items():
        sectors = [Sector.full(p), Sector.complement(p, hw.j_set())]
        modules += [(name, VermaModule(alg, hw, sector)) for sector in sectors]
    assert len({id(module.table) for _, module in modules}) == 1  # one table for the p
    for name, module in modules:
        monos = [x for d in range(top + 1) for x in module.pbw_basis(d)]
        for g in generators(alg, module.sector):
            for x in monos:
                expected = reference.act_gen(module, g, x)
                got = module.act_gen(g, x)
                assert set(got) == set(expected), (name, g, x)
                for z, c in got.items():
                    assert module.unscaled(c, z.length() - x.length() - 1) == expected[z], \
                        (name, g, x, z)


def test_filling_builds_no_scalar_and_calls_no_bracket_gens(monkeypatch):
    calls = {"Scalar": 0, "bracket_gens": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    modules = [VermaModule(GapVirasoro(p), HighestWeight.make(p, "1/3", ["2"] + ["1"] * (p // 2)))
               for p in (2, 3, 4)]
    monkeypatch.setattr(Scalar, "__init__", counted("Scalar", Scalar.__init__))
    monkeypatch.setattr(GapVirasoro, "bracket_gens",
                        counted("bracket_gens", GapVirasoro.bracket_gens))
    for basis in modules:
        alg, table = basis.alg, Straightening(basis.alg.p)
        for d in range(1, 9):
            for g in basis.raising_set(d) + [alg.L(-1), alg.I(-1, 1), alg.L(0), alg.C(0)]:
                for x in basis.pbw_basis(d):
                    table.action(g, table.intern(x))
        assert table._actions
    assert calls == {"Scalar": 0, "bracket_gens": 0}


def test_deep_monomial_fills_without_recursion():
    """L_1 L_{-1}^n v = n (2h + n - 1) L_{-1}^(n-1) v at n = 2000, on a cold table in a
    fresh process with the default recursion limit."""
    code = """
import sys
from gapvir.algebra import GapVirasoro
from gapvir.verma import HighestWeight, PBWMonomial, VermaModule
n = 2000
module = VermaModule(GapVirasoro(2), HighestWeight.make(2, "1/3", ["1/2", "1"]))
x = PBWMonomial((1,) * n, ())
(z, c), = module.act_gen(module.alg.L(1), x).items()
assert z == PBWMonomial((1,) * (n - 1), ()), z
print(module.unscaled(c, z.length() - x.length() - 1))
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(2000 * (Fraction(2, 3) + 1999))


def test_one_table_per_p():
    alg = GapVirasoro(3)
    a = VermaModule(alg, HighestWeight.make(3, "1/2", ["2", "1"]))
    b = VermaModule(GapVirasoro(3), HighestWeight.make(3, "1/5+i", ["3", "0"]),
                    Sector.virasoro())
    assert a.table is b.table is verma._TABLES[3]
    assert VermaModule(GapVirasoro(2), HighestWeight.make(2, 0, [1, 1])).table is not a.table
    x = PBWMonomial((1,), ((1, 1),))
    assert a.table.monomials[a.table.intern(x)] == x
