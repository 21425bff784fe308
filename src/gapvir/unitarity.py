"""Unitarity predicates for highest weight modules and the final classifier.

The closed form for a highest weight to carry a unitary irreducible quotient
has two clauses: positivity data on the Heisenberg sector (one condition per
index in J), and the Virasoro condition on the shifted weight
psi = shifted_weight(hw), with c' = psi(C_0) and h' = psi(L_0): either the
continuum region

    c' >= 1   and   h' >= 0

or an exact hit on a discrete-series point

    c' = 1 - 6/(m(m+1)),   h' = ((m r + s)^2 - 1)/(4 m (m+1)),

for some m >= 2 and 0 <= r < s < m, which discrete_series_match solves for
exactly, every m included.  The Heisenberg clause is computed in two
variants: the literal "real and nonzero" reading and the strict "positive"
reading.  Level-one Gram diagonals equal (i/p) beta_i phi(C_i), so the
Gram oracle settles which variant the form itself enforces; the verdict uses
the strict variant and any point where the variants differ is flagged.

The oracle gives the inertia of the contravariant form at every level by one
of two routes.  For a real weight and real beta it takes the split route,
Fock(J) (x) Virasoro(shifted weight) (forms.split_inertia), whose Virasoro
levels off the Kac walls need no elimination (forms.kac_wall_inertia); the
full Gram route then re-derives every level up to forms.split_check_level,
those whose full dimension is at most that of the largest Virasoro-sector
level the split eliminated, and the two must agree.  Any other weight or
beta takes the full Gram route at every level.
"""

from fractions import Fraction
from math import floor, isqrt

from .algebra import AntiInvolution, check_beta
from .errors import ConfigError, GramIntegrityError
from .forms import (PD, PSD_SINGULAR, definiteness, gram, split_check_level, split_inertia,
                    verdict_kind)
from .oscillator import gap_weight_sum, shifted_weight
from .scalars import Scalar, scalar, sign_of_real
from .series import FMatrix, SeriesModule, series_predicates
from .verma import HighestWeight, VermaModule

def heisenberg_condition(hw, beta):
    """Per-index report on beta_i phi(C_i) for i in J: reality and sign."""
    beta = check_beta(hw.p, beta)
    out = {}
    for i in sorted(hw.j_set()):
        value = beta[i - 1] * hw.c_value(i)
        real_nonzero = value.is_real() and not value.is_zero()
        out[i] = {
            "value": str(value),
            "realNonzero": real_nonzero,
            "positive": real_nonzero and sign_of_real(value) > 0,
        }
    return out


def discrete_series(p, j_set, m):
    """All discrete-series weight points for one m >= 2, as weights of the full module."""
    if m < 2:
        raise ConfigError("discrete series needs m >= 2")
    # psi's c' and h' shifted back by |J| and gap_weight_sum(J)
    j_set = frozenset(j_set)
    n = m * (m + 1)
    c0 = Scalar(len(j_set) + 1 - Fraction(6, n))
    base_l0 = gap_weight_sum(p, j_set)
    points = []
    for r in range(m):
        for s in range(r + 1, m):
            l0 = base_l0 + Scalar((m * r + s) ** 2 - 1, 0, 4 * n)
            points.append({"m": m, "r": r, "s": s, "c0": c0, "l0": l0})
    return points


def discrete_series_match(hw):
    """Exact discrete-series hit for a weight, or None; a complex weight never hits.

    On psi = shifted_weight(hw), N = m(m+1) = 6/(1 - c') fixes m, then
    k = m r + s is fixed by k^2 = 4N h' + 1.  Integer square roots give the
    only candidates, and each counts only if its equation holds exactly.
    """
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


def highest_weight_unitary(hw, beta):
    """Closed-form unitarity verdict with both Heisenberg-clause variants."""
    heis = heisenberg_condition(hw, beta)
    clause1_literal = all(rec["realNonzero"] for rec in heis.values())
    clause1_strict = all(rec["positive"] for rec in heis.values())

    psi = shifted_weight(hw)
    continuum = False
    discrete = None
    note = None
    if psi.l0.is_real() and psi.c_value(0).is_real():
        continuum = psi.c_value(0).re >= 1 and psi.l0.re >= 0
        discrete = discrete_series_match(hw)
    else:
        note = "complex L_0 or C_0: the order conditions do not apply"
    clause2 = continuum or discrete is not None

    return {
        "heisenberg": heis,
        "clause1Literal": clause1_literal,
        "clause1Strict": clause1_strict,
        "continuum": continuum,
        "discreteSeries": discrete,
        "clause2": clause2,
        "closedForm": clause1_strict and clause2,
        "closedFormLiteral": clause1_literal and clause2,
        "variantDiscrepancy": clause1_literal != clause1_strict,
        "note": note,
    }


def unitarity_oracle(alg, hw, beta, max_level):
    """Per-level inertia of the form of theta with alpha = 1 and the given beta.

    Each level names its route: for a real weight and real beta, "kac-wall"
    on a level d >= p whose Virasoro levels 1..d // p the Kac walls certify,
    "split" on the others; "full" otherwise.  A level whose full Gram matrix fails to be Hermitian
    is reported as "not-hermitian": no contravariant Hermitian form exists
    for that weight and involution, which settles the verdict negatively
    just as a negative eigenvalue would.
    """
    beta = check_beta(hw.p, beta)
    theta = AntiInvolution.plus(hw.p, 1, beta)
    if hw.is_real() and all(b.is_real() for b in beta):
        # Virasoro levels 1..certified-1 are certified; a level below p has none to certify
        levels, certified = split_inertia(alg, hw, theta, max_level)
        return [_oracle_level(d, inertia, "kac-wall" if 1 <= d // hw.p < certified else "split")
                for d, inertia in enumerate(levels)]
    module = VermaModule(alg, hw)
    return [_full_level(module, theta, d) for d in range(max_level + 1)]


def _oracle_level(d, inertia, route):
    return {"d": d, "verdict": verdict_kind(inertia), "kernelDim": inertia[2],
            "inertia": list(inertia), "route": route}


def _full_level(module, theta, d):
    try:
        return _oracle_level(d, definiteness(gram(module, theta, d)).inertia, "full")
    except GramIntegrityError:
        return {"d": d, "verdict": "not-hermitian", "kernelDim": None, "inertia": None,
                "route": "full"}


def full_gram_cross_check(alg, hw, beta, oracle):
    """Re-derive split-route levels by the full Gram route; None if no level was split.

    It takes the levels up to forms.split_check_level, which bounds the full
    route's cost by the split's own.
    """
    if oracle[0]["route"] != "split":
        return None
    top = split_check_level(hw.p, len(oracle) - 1)
    module = VermaModule(alg, hw)
    theta = AntiInvolution.plus(hw.p, 1, check_beta(hw.p, beta))
    agreement = all(_full_level(module, theta, e["d"])["inertia"] == e["inertia"]
                    for e in oracle[:top + 1])
    return {"fullGramMaxLevel": top, "agreement": agreement}


def oracle_is_psd(levels):
    return all(e["verdict"] in (PD, PSD_SINGULAR) for e in levels)


def unitarity_verdict(alg, hw, beta, max_level):
    """Closed form, oracle, the oracle's cross-check and their agreement, for reports."""
    closed = highest_weight_unitary(hw, beta)
    oracle = unitarity_oracle(alg, hw, beta, max_level)
    cross = full_gram_cross_check(alg, hw, beta, oracle)
    agreement = (closed["closedForm"] == oracle_is_psd(oracle)
                 and (cross is None or cross["agreement"]))
    return {
        "verdict": "unitary" if closed["closedForm"] else "not-unitary",
        "clauses": closed,
        "oracle": oracle,
        "crossCheck": cross,
        "agreement": agreement,
        "variantDiscrepancy": closed["variantDiscrepancy"],
    }


def lowest_weight_dualize(lw, beta):
    """Map lowest-weight data to the equivalent highest-weight problem.

    Twisting by the Chevalley involution turns a lowest weight chi into the
    highest weight -chi and permutes the involution parameters i -> p-i.
    """
    beta = check_beta(lw.p, beta)
    dual = HighestWeight(lw.p, -lw.l0, tuple(-v for v in lw.c))
    return dual, tuple(reversed(beta))


def classify(alg, descriptor, max_level=6):
    """Route a module descriptor to its bucket of the unitary classification.

    Buckets: 1 = intermediate series, 2 = highest weight, 3 = lowest weight.
    """
    kind = descriptor.get("type")
    beta = descriptor.get("beta")  # check_beta rejects a missing or non-list beta
    if kind == "intermediate-series":
        missing = [k for k in ("a", "b", "f") if k not in descriptor]
        if missing:
            raise ConfigError("intermediate-series descriptor needs %s" % ", ".join(missing))
        f = FMatrix.make(alg.p, descriptor["f"])
        module = SeriesModule(alg, scalar(descriptor["a"]), scalar(descriptor["b"]), f,
                              allow_invalid=True)
        pred = series_predicates(module, beta)
        notes = []
        if pred["fValidation"]:
            notes.append("the coefficient matrix violates its constraints; "
                         "predicate values are formal")
        if pred["unitary"] and pred["aIsZero"]:
            notes.append("a = 0: the module criterion accepts it, the final "
                         "classification lists a nonzero; both readings reported")
        return {
            "bucket": 1 if pred["unitary"] else None,
            "verdict": "unitary" if pred["unitary"] else "not-unitary",
            "details": pred,
            "notes": notes,
        }
    if kind == "highest-weight":
        hw = _weight_from(descriptor, alg.p)
        res = unitarity_verdict(alg, hw, beta, max_level)
        res["bucket"] = 2 if res["verdict"] == "unitary" else None
        return res
    if kind == "lowest-weight":
        lw = _weight_from(descriptor, alg.p)
        dual, dual_beta = lowest_weight_dualize(lw, beta)
        res = unitarity_verdict(alg, dual, dual_beta, max_level)
        res["bucket"] = 3 if res["verdict"] == "unitary" else None
        res["dualWeight"] = dual.describe()
        return res
    raise ConfigError("descriptor type must be intermediate-series, "
                      "highest-weight or lowest-weight")


def _weight_from(descriptor, p):
    found = {k: v for k, v in descriptor.items() if k not in ("type", "beta")}
    return HighestWeight.read(p, found, "descriptor")
