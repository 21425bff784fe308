"""Seeded request streams for the benchmark workloads, with expected answers.

Every request carries an answer derived in this file from the mathematics,
never from gapvir itself: partition numbers, the defining bracket relations,
Kac determinant factors, the unitary series and the closed forms of single
Gram entries.  ``check`` compares a CLI report with that answer.

A workload is a stream of rounds.  Every round has the same composition (which
subcommands, families, levels and sizes); the seed draws only the numbers.
So every seed asks for the same kind and amount of work, and a run that stops
at a round boundary keeps that mix.
"""

import itertools
import json
import os
import random
from fractions import Fraction as Q

ORACLE_LEVEL = 12
SWEEP_LEVELS = (8, 9, 10, 11, 12)


class Request:
    """One CLI call: its argv, a family label and the expected answer.

    ``argv`` is given as [command, flag, value, flag, value, ...] and stored as
    [command, "flag=value", ...], so that a negative value is not read as a flag.
    """

    __slots__ = ("command", "family", "argv", "expected")

    def __init__(self, command, family, argv, expected):
        self.command = command
        self.family = family
        self.argv = [argv[0]] + ["%s=%s" % (argv[k], argv[k + 1])
                                 for k in range(1, len(argv), 2)]
        self.expected = expected

    def __repr__(self):
        return "Request(%s/%s %r)" % (self.command, self.family, self.argv)


# -- exact helpers -------------------------------------------------------------


def fmt(q):
    """A rational in gapvir's scalar grammar ("p/q" or "n")."""
    return str(Q(q))


def fmt_complex(re, im):
    if not im:
        return fmt(re)
    imag = fmt(abs(im)) + "*i"
    if not re:
        return imag if im > 0 else "-" + imag
    return fmt(re) + ("+" if im > 0 else "-") + imag


def parse_scalar(text):
    """(re, im) of a scalar rendered as "p/q", "p/q*i" or "p/q+r/s*i"."""
    text = text.strip()
    if not text.endswith("*i"):
        return Q(text), Q(0)
    body = text[:-2]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut <= 0:
        return Q(0), Q(body)
    return Q(body[:cut]), Q(body[cut:])


def rand_q(rng, lo, hi, den):
    """Uniform draw from the rationals k/den in [lo, hi]."""
    return Q(rng.randint(int(lo * den), int(hi * den)), den)


def graded_dims(p, max_level, sector, j_set):
    """Dimensions by p-level, as partition counts: L_{-n} is a part of size n*p and
    I_{-m}^i a part of size m*p - i (only i in j_set on the Heisenberg sector)."""
    parts = [s for s in range(1, max_level + 1)
             if (s % p == 0 and sector != "heisenberg")
             or (s % p and (sector == "full" or (sector == "heisenberg" and p - s % p in j_set)))]
    ways = [1] + [0] * max_level
    for s in parts:
        for k in range(s, max_level + 1):
            ways[k] += ways[k - s]
    return ways


def gap_weight_sum(p, j_set):
    """L_0 value of the Fock vacuum: sum over J of j(p-j)/(4p^2)."""
    return sum((Q(j * (p - j), 4 * p * p) for j in j_set), Q(0))


def kac_is_zero(h, c, r, s):
    """Whether the Kac factor (h - h_{r,s})(h - h_{s,r}) vanishes; h = (re, im), c real.

    The factor is (h + A)(h + B) + (r^2 - s^2)^2/16 with
    A = (r^2-1)(c-13)/24 + (rs-1)/2 and B the same with r and s exchanged.
    """
    x, y = h
    a = Q(r * r - 1, 24) * (c - 13) + Q(r * s - 1, 2)
    b = Q(s * s - 1, 24) * (c - 13) + Q(r * s - 1, 2)
    real = (x + a) * (x + b) - y * y + Q((r * r - s * s) ** 2, 16)
    return real == 0 and y * (2 * x + a + b) == 0


def first_kac_level(p, h, c, max_level):
    """First p-level with a singular vector in Fock(J full) x Vir(h, c), or None.

    With J = {1..p-1} and every phi(C_j) nonzero the module is the Fock module
    tensored with a Virasoro Verma module of weight (h, c); the radical starts
    at Virasoro level min{rs : Kac factor (r, s) vanishes}, i.e. p-level p*rs.
    """
    for n in range(1, max_level // p + 1):
        if any(n % r == 0 and kac_is_zero(h, c, r, n // r) for r in range(1, n + 1)):
            return p * n
    return None


def kac_h(t, r, s):
    """h_{r,s} at central charge 13 - 6(t + 1/t); rational for rational t."""
    return ((r * t - s) ** 2 - (t - 1) ** 2) / (4 * t)


# -- the defining brackets ------------------------------------------------------


def _c_label(p, j):
    return ("C", min(j, p - j))


def bracket_basis(p, a, b):
    """[a, b] for basis labels ("L", n), ("I", n, i), ("C", j) as {label: Q}."""
    if a[0] == "C" or b[0] == "C":
        return {}
    if a[0] == "L" and b[0] == "L":
        m, n = a[1], b[1]
        out = {}
        if m != n:
            out[("L", m + n)] = Q(m - n)
        if m + n == 0 and m ** 3 - m:
            out[("C", 0)] = Q(m ** 3 - m, 12)
        return out
    if a[0] == "L":
        n, i = b[1], b[2]
        coeff = -(n + Q(i, p))
        return {("I", a[1] + n, i): coeff} if coeff else {}
    if b[0] == "L":
        return {g: -c for g, c in bracket_basis(p, b, a).items()}
    (_, m, i), (_, n, j) = a, b
    if i + j == p and m + n + 1 == 0:
        return {_c_label(p, i): m + Q(i, p)}
    return {}


def bracket(p, x, y):
    out = {}
    for ga, ca in x.items():
        for gb, cb in y.items():
            for g, c in bracket_basis(p, ga, gb).items():
                out[g] = out.get(g, 0) + ca * cb * c
    return {g: c for g, c in out.items() if c}


def label_text(g):
    if g[0] == "I":
        return "I[%d,%d]" % (g[1], g[2])
    return "%s[%d]" % g


def element_text(x):
    return " + ".join("%s*%s" % (fmt(c), label_text(g)) for g, c in x.items())


def parse_element(text):
    """{label: Q} from a rendered element such as "4*L[0] + -1/6*I[-4,2]"."""
    if text == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        coef, _, gen = term.rpartition("*")
        kind, idx = gen[0], gen[2:-1].split(",")
        out[(kind,) + tuple(int(k) for k in idx)] = Q(coef)
    return out


# -- weight families -------------------------------------------------------------


def unitarity_point(rng, family, level):
    """p = 2, J = {1}: (l0, c0, c1, beta1) drawn from a labelled family.

    "discrete": a minimal-model point h_{r,s}(m), m >= 3, shifted by the Fock
    vacuum (m = 2 is the trivial module only).
    "continuum": phi(C_0) >= 2 and phi(L_0) >= 1/16.
    "non-unitary": phi(L_0) < 1/16, or phi(C_0) < 0 with phi(L_0) small enough
    that some vacuum x L'_{-n} with 2n <= level has negative norm
    2n h' + c'(n^3 - n)/12, so the Gram oracle sees it within the level.
    beta1 * phi(C_1) > 0 always, so the Heisenberg clause holds.
    """
    sign = rng.choice((1, -1))
    c1 = sign * rand_q(rng, Q(1, 2), 3, 2)
    vac = gap_weight_sum(2, (1,))
    if family == "discrete":
        m = rng.randint(3, 8)
        r = rng.randint(1, m - 1)
        s = rng.randint(1, r)
        c0 = 2 - Q(6, m * (m + 1))
        l0 = vac + Q(((m + 1) * r - m * s) ** 2 - 1, 4 * m * (m + 1))
    elif family == "continuum":
        c0 = 2 + rand_q(rng, 0, 3, 4)
        l0 = vac + rand_q(rng, 0, 2, 8)
    elif level >= 4 and rng.random() < 0.5:
        c0 = -rand_q(rng, Q(1, 4), 4, 4)
        n = level // 2
        bound = -(c0 - 1) * (n * n - 1) / 24
        l0 = vac + Q(rng.randrange(0, int(min(bound, 2) * 16 - 1) + 1), 16)
        assert 2 * n * (l0 - vac) + (c0 - 1) * (n ** 3 - n) / 12 < 0
    else:
        c0 = rand_q(rng, -2, 5, 4)
        l0 = vac - rand_q(rng, Q(1, 16), 1, 16)
    return l0, c0, c1, Q(sign)


def unitary_check(rng, family, level):
    l0, c0, c1, beta1 = unitarity_point(rng, family, level)
    argv = ["unitary-check", "--p", "2", "--l0", fmt(l0), "--c0", fmt(c0),
            "--c1", fmt(c1), "--beta1", fmt(beta1), "--max-level", str(level)]
    verdict = "not-unitary" if family == "non-unitary" else "unitary"
    return Request("unitary-check", family, argv, {"verdict": verdict})


def reducibility_weight(rng, family, p, level):
    """(l0, central values, expected first firing level) for one family.

    "full-generic" and "full-kac-zero": J = {1..p-1}; the answer comes from the
    Kac factors at the shifted weight (h', c') = (l0 - vacuum, c0 - (p-1)).
    "kac-zero" puts h' on h_{r,s} for a rational t with rs*p <= level.
    "partial": p = 4 with phi(C_1) = 0, phi(C_2) != 0; I_{-1}^3 v is singular
    at p-level 1 because [I_0^1, I_{-1}^3] = C_1/4 vanishes on it.
    "complex": full J with Im(l0) != 0; only the singular-vector route runs.
    """
    full = tuple(range(1, p))
    cs = [rand_q(rng, Q(1, 3), 3, 3) for _ in range(p // 2)]
    if family == "partial":
        c0 = rand_q(rng, 1, 4, 4)
        l0 = (rand_q(rng, 0, 1, 8), Q(0))
        return l0, [c0, Q(0)] + cs[1:], 1
    if family == "full-kac-zero":
        t = rng.choice((Q(2), Q(3), Q(3, 2), Q(4, 3), Q(5, 2), Q(5, 3), Q(4)))
        rs_max = max(1, level // p)
        r = rng.randint(1, rs_max)
        s = rng.randint(1, rs_max // r)
        cp = 13 - 6 * (t + 1 / t)
        hp = (kac_h(t, r, s), Q(0))
    elif family == "full-generic":
        cp = rand_q(rng, -2, 5, 4)
        hp = (rand_q(rng, 0, 2, 16), Q(0))
    else:
        cp = rand_q(rng, -2, 5, 4)
        hp = (rand_q(rng, -1, 2, 8), rng.choice((1, -1)) * rand_q(rng, Q(1, 4), 2, 4))
    first = first_kac_level(p, hp, cp, level)
    assert first is not None or family != "full-kac-zero"
    return (hp[0] + gap_weight_sum(p, full), hp[1]), [cp + (p - 1)] + cs, first


def reducibility(rng, family, p, level):
    l0, central, first = reducibility_weight(rng, family, p, level)
    argv = ["reducibility", "--p", str(p), "--l0", fmt_complex(*l0)]
    argv += ["--c0", fmt(central[0])]
    for j, c in enumerate(central[1:], 1):
        argv += ["--c%d" % j, fmt(c)]
    argv += ["--max-level", str(level)]
    dims = graded_dims(p, level, "full", ())
    return Request("reducibility", family, argv,
                   {"first": first, "real": not l0[1], "dims": dims})


# -- cli-mixed-small requests -----------------------------------------------------


def _rand_label(rng, p):
    kind = rng.choice("LLIIC")
    if kind == "L":
        return ("L", rng.randint(-4, 4))
    if kind == "I":
        return ("I", rng.randint(-3, 3), rng.randint(1, p - 1))
    return ("C", rng.randint(0, p - 1))


def _rand_element(rng, p):
    out = {}
    for _ in range(rng.randint(1, 2)):
        g = _rand_label(rng, p)
        if g[0] == "C":
            g = _c_label(p, g[1])
        out[g] = out.get(g, 0) + rng.choice((1, -1)) * rand_q(rng, Q(1, 3), 3, 3)
    return {g: c for g, c in out.items() if c} or {("L", 1): Q(1)}


def bracket_request(rng, p):
    x, y = _rand_element(rng, p), _rand_element(rng, p)
    argv = ["bracket", "--p", str(p), "--x", element_text(x), "--y", element_text(y)]
    return Request("bracket", "basis-combination", argv, {"result": bracket(p, x, y)})


def gram_request(rng, p, level):
    """Full-J real weight; the one single-factor basis monomial has a closed-form norm.

    With alpha = 1 and beta = 1: <L_{-n}v, L_{-n}v> = 2n l0 + (n^3 - n) c0/12,
    and <I_{-m}^i v, I_{-m}^i v> = (mp - i)/p * phi(C_i).
    """
    l0 = rand_q(rng, -1, 2, 8)
    central = [rand_q(rng, -2, 5, 4)] + [rand_q(rng, Q(1, 3), 3, 3) for _ in range(p // 2)]
    argv = ["gram", "--p", str(p), "--l0", fmt(l0), "--c0", fmt(central[0])]
    for j, c in enumerate(central[1:], 1):
        argv += ["--c%d" % j, fmt(c)]
    argv += ["--level", str(level)]
    if level % p == 0:
        n = level // p
        mono, norm = "L[%d]|hw" % -n, 2 * n * l0 + Q(n ** 3 - n, 12) * central[0]
    else:
        m = -(-level // p)
        i = m * p - level
        mono, norm = "I[%d,%d]|hw" % (-m, i), Q(level, p) * central[min(i, p - i)]
    return Request("gram", "full-j-real", argv,
                   {"dim": graded_dims(p, level, "full", ())[level],
                    "monomial": mono, "norm": norm})


def verma_dims_request(rng, p, level, sector):
    c1 = rand_q(rng, Q(1, 3), 3, 3)
    argv = ["verma-dims", "--p", str(p), "--max-level", str(level), "--sector", sector]
    j_set = ()
    if sector == "heisenberg":
        argv += ["--c1", fmt(c1)]
        j_set = (1, p - 1)
    return Request("verma-dims", sector, argv, {"dims": graded_dims(p, level, sector, j_set)})


def series_f(rng, p):
    """F(i, j) = lambda_i mu_{i+j} / mu_j: compatible and closed by construction."""
    lam = [None] + [rng.choice((1, -1)) * rand_q(rng, Q(1, 2), 2, 2) for _ in range(1, p)]
    mu = [rng.choice((1, -1)) * rand_q(rng, Q(1, 2), 2, 2) for _ in range(p)]
    return [[lam[i] * mu[(i + j) % p] / mu[j] for j in range(p)] for i in range(1, p)]


def series_check_request(rng, p, window):
    rows = [[fmt(v) for v in row] for row in series_f(rng, p)]
    argv = ["series-check", "--p", str(p), "--a", fmt(rand_q(rng, -2, 2, 6)),
            "--b", fmt(rand_q(rng, -1, 2, 4)), "--f", json.dumps(rows),
            "--window", str(window)]
    return Request("series-check", "valid-f", argv, {"pass": True})


def sugawara_request(rng, p, level):
    c1 = rng.choice((1, -1)) * rand_q(rng, Q(1, 2), 3, 2)
    argv = ["sugawara-check", "--p", str(p), "--c1", fmt(c1), "--l0", fmt(rand_q(rng, 0, 1, 8)),
            "--mode-window", "1", "--max-level", str(level)]
    return Request("sugawara-check", "nonempty-j", argv, {"pass": True})


def involution_request(rng, p, count):
    argv = ["involution-check", "--p", str(p), "--count", str(count),
            "--seed", str(rng.randint(0, 10 ** 6))]
    return Request("involution-check", "sampled", argv, {"pass": True})


KAC_CENTRALS = (Q(0), Q(1, 2), Q(7, 10), Q(4, 5), Q(1), Q(-2), Q(25), Q(26))


def kac_scan_request(rng, level):
    central = rng.sample(KAC_CENTRALS, 2)
    num, den = rng.randint(8, 16), rng.choice((8, 16, 24))
    grid = [Q(k, den) for k in range(num + 1)]
    zeros = [[fmt(h) for h in grid
              if any(kac_is_zero((h, Q(0)), c, r, s)
                     for r in range(1, level + 1) for s in range(1, level // r + 1))]
             for c in central]
    argv = ["kac-scan", "--p", "2", "--central", ",".join(fmt(c) for c in central),
            "--grid", "%d/%d" % (num, den), "--max-level", str(level),
            "--max-ab", str(level)]
    return Request("kac-scan", "grid", argv, {"setsEqual": True, "zeros": zeros})


def classify_request(rng, kind, family, path, level):
    """A descriptor file of one type; the expected bucket follows the family label.

    A lowest weight -chi with reversed beta is the Chevalley twist of the
    highest weight chi.  V(a, b, F) at p = 2 with beta = 1 is unitary iff a is
    real, Re b = 1/2 and F(1,0) = F(1,1); an F with equal nonzero entries is
    also a valid matrix.
    """
    if kind == "intermediate-series":
        x = rng.choice((1, -1)) * rand_q(rng, Q(1, 2), 3, 2)
        unitary = family == "unitary"
        b = Q(1, 2) if unitary else Q(1, 2) + rng.choice((1, -1)) * rand_q(rng, Q(1, 4), 1, 4)
        desc = {"a": fmt(rand_q(rng, Q(1, 6), 2, 6)), "b": fmt(b),
                "f": [[fmt(x), fmt(x)]], "beta": ["1"]}
        bucket = 1
    else:
        l0, c0, c1, beta1 = unitarity_point(rng, family, level)
        sign = 1 if kind == "highest-weight" else -1
        desc = {"l0": fmt(sign * l0), "c0": fmt(sign * c0), "c1": fmt(sign * c1),
                "beta": [fmt(beta1)]}
        unitary = family != "non-unitary"
        bucket = 2 if kind == "highest-weight" else 3
    desc["type"] = kind
    with open(path, "w") as fh:
        json.dump(desc, fh)
    argv = ["classify", "--p", "2", "--input", path, "--max-level", str(level)]
    return Request("classify", "%s/%s" % (kind, family), argv,
                   {"bucket": bucket if unitary else None})


# -- workloads ---------------------------------------------------------------


def oracle_deep_round(rng, index, work_dir):
    return [unitary_check(rng, family, ORACLE_LEVEL)
            for family in ("continuum", "discrete", "non-unitary")]


SWEEP_SLOTS = (
    # (family, p, level): every family and every level 8..12 in each round.  The
    # three middle slots (p = 4 at levels 10 and 11) cost about the same, with two
    # cheaper and two dearer slots on either side, so the median latency stays
    # inside them instead of jumping between slots of different cost.
    ("full-kac-zero", 3, 8),
    ("full-generic", 4, 9),
    ("full-generic", 4, 10),
    ("full-kac-zero", 4, 10),
    ("partial", 4, 11),
    ("complex", 3, 11),
    ("partial", 4, 12),
)


def reducibility_sweep_round(rng, index, work_dir):
    return [reducibility(rng, family, p, level) for family, p, level in SWEEP_SLOTS]


def cli_mixed_small_round(rng, index, work_dir):
    """Requests over all ten subcommands, each size in the stated range.

    More than half are tiny (brackets, small graded dimensions), whose latency
    is mostly the per-request fixed cost; the median latency measures that cost.
    """
    out = [bracket_request(rng, p) for p in (2, 3, 4, 5) * 9]
    out += [verma_dims_request(rng, p, level, "full") for p in (2, 3, 4, 5) for level in (4, 6, 8)]
    out += [involution_request(rng, p, 1) for p in (2, 3)]
    out += [verma_dims_request(rng, p, level, sector) for sector, p, level in (
        ("full", 2, 12), ("full", 3, 16), ("full", 4, 20), ("full", 5, 24),
        ("virasoro", 2, 24), ("heisenberg", 3, 24))]
    out += [gram_request(rng, p, level) for p, level in ((2, 3), (2, 4), (2, 5), (3, 4), (4, 5))]
    out += [unitary_check(rng, family, level) for family, level in (
        ("continuum", 5), ("discrete", 4), ("non-unitary", 5))]
    out += [reducibility(rng, family, p, level) for family, p, level in (
        ("full-kac-zero", 3, 5), ("full-generic", 4, 5), ("partial", 4, 4), ("complex", 3, 3))]
    out += [series_check_request(rng, 2, window) for window in (1, 2, 3)]
    out += [sugawara_request(rng, p, level) for p, level in ((2, 4), (3, 3))]
    out += [kac_scan_request(rng, level) for level in (1, 2)]
    out += [classify_request(rng, kind, family,
                             os.path.join(work_dir, "r%d-%d.json" % (index, k)), level)
            for k, (kind, family, level) in enumerate((
                ("highest-weight", "discrete", 5), ("lowest-weight", "continuum", 4),
                ("lowest-weight", "non-unitary", 5), ("intermediate-series", "unitary", 4),
                ("intermediate-series", "off", 4)))]
    return out


WORKLOADS = {
    "oracle-deep": oracle_deep_round,
    "reducibility-sweep": reducibility_sweep_round,
    "cli-mixed-small": cli_mixed_small_round,
}

# Rounds a run measures at the least, however long they take: two oracle-deep
# rounds (six ~9 s requests); four reducibility-sweep rounds (~40 s), so that
# the per-round median rate and the median latency do not rest on two rounds.
MIN_ROUNDS = {"oracle-deep": 2, "reducibility-sweep": 4, "cli-mixed-small": 2}


def rounds(name, seed, work_dir):
    """The endless stream of rounds of one workload for one seed; descriptor
    files go into work_dir."""
    make_round = WORKLOADS[name]
    rng = random.Random("%s/%d" % (name, seed))
    for index in itertools.count():
        yield make_round(rng, index, work_dir)


# -- checks ----------------------------------------------------------------------


def check(request, exit_code, report):
    """Problems with one response, as a list of strings (empty when correct)."""
    if exit_code != 0:
        return ["exit code %r, expected 0" % (exit_code,)]
    if not isinstance(report, dict) or report.get("command") != request.command:
        return ["no %s report on stdout" % request.command]
    return CHECKS[request.command](request.expected, report)


def _expect_equal(name, got, want):
    return [] if got == want else ["%s: got %r, expected %r" % (name, got, want)]


def _check_bracket(exp, rep):
    return _expect_equal("bracket", parse_element(rep["result"]), exp["result"])


def _check_pass(exp, rep):
    return _expect_equal("pass", rep.get("pass"), exp["pass"])


def _check_dims(exp, rep):
    return _expect_equal("dims", rep.get("dims"), exp["dims"])


def _check_gram(exp, rep):
    entries = [[parse_scalar(v) for v in row] for row in rep["entries"]]
    n = len(entries)
    problems = _expect_equal("dim", n, exp["dim"])
    problems += _expect_equal("basis size", len(rep["basis"]), exp["dim"])
    if any(entries[b][a] != (entries[a][b][0], -entries[a][b][1])
           for a in range(n) for b in range(n)):
        problems.append("gram matrix is not Hermitian")
    if exp["monomial"] in rep["basis"]:
        k = rep["basis"].index(exp["monomial"])
        problems += _expect_equal("norm of " + exp["monomial"], entries[k][k],
                                  (exp["norm"], Q(0)))
    else:
        problems.append("basis lacks %s" % exp["monomial"])
    verdict = rep["verdict"]
    pos, neg, zero = verdict["inertia"]
    problems += _expect_equal("inertia total", pos + neg + zero, n)
    problems += _expect_equal("kernelDim", verdict["kernelDim"], zero)
    kind = ("indefinite" if pos and neg else "negative-containing" if neg
            else "positive-semidefinite-singular" if zero else "positive-definite")
    return problems + _expect_equal("verdict", verdict["kind"], kind)


def _check_unitary(exp, rep):
    return (_expect_equal("verdict", rep.get("verdict"), exp["verdict"])
            + _expect_equal("agreement", rep.get("agreement"), True))


def _first(levels, key):
    return next((e["d"] for e in levels if e[key]), None)


def _check_reducibility(exp, rep):
    levels = rep["levels"]
    problems = _expect_equal("dims", [e["dim"] for e in levels], exp["dims"])
    problems += _expect_equal("first singular-vector level", _first(levels, "singular"),
                              exp["first"])
    if exp["real"]:
        problems += _expect_equal("first Gram-kernel level", _first(levels, "gramKernel"),
                                  exp["first"])
    elif any(e["gramKernel"] is not None for e in levels):
        problems.append("Gram route ran on a complex weight")
    return problems + _expect_equal("firstSingularLevel", rep.get("firstSingularLevel"),
                                    exp["first"])


def _check_kac_scan(exp, rep):
    zeros = [e["criterionZeroWeights"] for e in rep["grid"]]
    return (_expect_equal("setsEqual", rep.get("setsEqual"), exp["setsEqual"])
            + _expect_equal("criterion zeros", zeros, exp["zeros"]))


def _check_classify(exp, rep):
    problems = _expect_equal("bucket", rep.get("bucket"), exp["bucket"])
    if "agreement" in rep:
        problems += _expect_equal("agreement", rep["agreement"], True)
    return problems


CHECKS = {
    "bracket": _check_bracket,
    "involution-check": _check_pass,
    "verma-dims": _check_dims,
    "gram": _check_gram,
    "unitary-check": _check_unitary,
    "reducibility": _check_reducibility,
    "series-check": _check_pass,
    "sugawara-check": _check_pass,
    "kac-scan": _check_kac_scan,
    "classify": _check_classify,
}
