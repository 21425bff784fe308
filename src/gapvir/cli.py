"""Batch command surface producing deterministic JSON or text reports.

Subcommands: bracket, involution-check, verma-dims, gram, reducibility,
sugawara-check, series-check, unitary-check, classify, kac-scan.

Every setting is resolved once, by ``_resolve``, before a handler runs: the
flag, else the ``--config`` value, else the default declared with the flag,
with the same conversion and checks whatever the source.  Exit codes: 0 on
success, 1 when a report carries a failing verdict or a disagreement between
routes, 2 on usage or configuration errors, each printed as one
``gapvir: ...`` line on stderr, argparse's own errors included.  Reports are
byte-identical for identical configuration and seed: scalars are printed
exactly, keys are sorted, and nothing time- or environment-dependent is
embedded.
"""

import argparse
import functools
import json
import os
import random
import re
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .algebra import (AntiInvolution, GapVirasoro, involution_axiom_report,
                      sample_involution)
from .errors import ConfigError, GapVirError, GramIntegrityError
from .forms import definiteness, gram, kac_scan, reducibility_report
from .oscillator import OscillatorModule, virasoro_relation_check
from .scalars import Scalar, scalar
from .series import FMatrix, SeriesModule, series_predicates
from .unitarity import classify, unitarity_verdict
from .verma import HighestWeight, Sector, VermaModule, indexed_values, partition_count

SCHEMA = "gapvir/1"
DEFAULT_MAX_LEVEL_GUARD = 24
WORK_BUDGET = 10 ** 7  # steps of _work, about a microsecond each
SECTORS = ("full", "virasoro", "heisenberg")

_DYNFLAG = re.compile(r"^--(c|beta)([1-9]\d*)(?:=(.*))?$")


def _emit(args, payload, exit_code=0):
    payload = dict(payload)
    payload["command"] = args.subcommand
    payload["schema"] = SCHEMA
    payload["tool"] = {"name": "gapvir", "version": __version__}
    if args.output_format == "json":
        text = _dumps(payload) + "\n"
    else:
        text = _render_text(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return exit_code


def _dumps(value):
    """json.dumps(value, sort_keys=True, indent=2) in one pass (json's C encoder never indents)."""
    out = []
    _write(out, value, "\n")
    return "".join(out)


def _write(out, value, pad):
    """Append json's text for value to out, pad being a newline and the indent.  Types are
    tried in json's order, keys sorted on their values (int keys as numbers), and floats
    and empties are json.dumps's own.  Module level: a closure calling itself would leave
    each report's list to the cycle collector."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)) and value:
        inner, start = pad + "  ", len(out)
        for item in value:
            out.append("," + inner)
            _write(out, item, inner)
        out[start] = "[" + inner
        out.append(pad + "]")
    elif isinstance(value, dict) and value:
        inner, start = pad + "  ", len(out)
        for key in sorted(value):
            out.append("," + inner + encode_basestring_ascii(
                key if isinstance(key, str) else json.dumps(key)) + ": ")
            _write(out, value[key], inner)
        out[start] = "{" + out[start][1:]
        out.append(pad + "}")
    else:
        out.append(json.dumps(value))


def _render_text(payload):
    lines = []
    for k in sorted(payload):
        _walk(lines, k, payload[k], "")
    return "\n".join(lines) + "\n"


def _walk(lines, key, value, pad):
    """Append the text lines of one key to lines (module level, as _write is)."""
    if isinstance(value, dict):
        lines.append("%s%s:" % (pad, key))
        for k in sorted(value):
            _walk(lines, k, value[k], pad + "  ")
    elif isinstance(value, list):
        lines.append("%s%s: %s" % (pad, key, json.dumps(value, sort_keys=True)))
    else:
        lines.append("%s%s: %s" % (pad, key, value))


def _load_config(path):
    """A JSON file whose top level is an object."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("%s: the top level must be a JSON object" % path)
    return data


def _config_object(config, key):
    """The value of a config key that must be a JSON object; {} when absent."""
    value = config.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError("config key %r must be a JSON object" % key)
    return value


def _collect_dynamic(extras, families):
    """Pull repeated --cN / --betaN flags of the given families out of the leftover argv."""
    given = {family: {} for family in families}
    i = 0
    while i < len(extras):
        m = _DYNFLAG.match(extras[i])
        if not m or m.group(1) not in families:
            raise GapVirError("unrecognized argument %r" % extras[i])
        inline = m.group(3)
        if inline is None:
            if i + 1 >= len(extras):
                raise GapVirError("flag %s needs a value" % extras[i])
            inline = extras[i + 1]
            i += 1
        given[m.group(1)][m.group(1) + m.group(2)] = inline
        i += 1
    return given


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError("expected an integer") from None


def _grid(text):
    """A kac-scan weight grid num/den, as (num, den) with num >= 0 and den >= 1."""
    num, slash, den = text.partition("/")
    if not slash or _int(num) < 0 or _int(den) < 1:
        raise ValueError("expected num/den with num >= 0 and den >= 1")
    return int(num), int(den)


def _parsed(flag, text, parse):
    """parse(text), with any error naming the flag and the text given."""
    try:
        return parse(text)
    except (GapVirError, ValueError) as exc:
        raise GapVirError("%s %s: %s" % (flag, text, exc)) from None


def _work(args):
    """Steps the request's window, count, grid, max-ab and p ask for, counted before any
    runs.  Level sums stop at 150, where they alone are over the budget: the Fock dims
    there are at least q(150) = 19,406,016, the partitions of 150 into odd parts."""
    p, cmd, top = args.p, args.subcommand, min(getattr(args, "max_level", 0), 150)
    steps = 20 * p  # the weight and beta values read, and their memory
    if cmd == "involution-check":  # every ordered pair of the mode window -4..4
        steps += 5 * args.count * (9 * p + p // 2 + 1) ** 2
    elif cmd == "series-check":  # F's checks, the axiom window and the delta form
        steps += 3 * ((2 * args.window + 1) ** 3 + 344) * p ** 3
    elif cmd == "sugawara-check":  # each (m, n) on every Fock vector up to max_level
        dims = [1] + [0] * top  # Fock(J) for J = {1..p-1}: factor sizes not divisible by p
        for s in range(1, top + 1):
            for d in range(s, top + 1) if s % p else ():
                dims[d] += dims[d - s]
        w = 2 * args.mode_window + 1
        steps += 10 * (p - 1) * w * w * (w + 4) * sum(dims)
    elif cmd == "kac-scan":  # each weight: its [a, b] with ab <= max_ab, its singular counts
        steps += ((args.central.count(",") + 1) * (args.grid[0] + 1)
                  * (10 + args.max_ab * args.max_ab.bit_length()
                     + 3 * sum(partition_count(n) ** 2 for n in range(top + 1))))
    elif cmd == "reducibility":
        steps += args.max_ab * args.max_ab.bit_length()
    return steps


def _resolve(args, extras):
    """Give every setting its value and check it, once, before dispatch.

    A setting takes its flag, else its ``--config`` key, else the default
    declared with the flag.  Type, choices, lower bound, the level guardrail
    and the work budget (_work) apply whatever the source, and an error names
    the flag or key and the value given, or the estimate.  The indexed weights
    and beta are checked against p.
    """
    config = _load_config(args.config) if args.config else {}
    values = vars(args)
    for dest, flag, default, kind, key, low, choices, level in args.settings:
        name, raw = flag, values[dest]
        if raw is None and config.get(key) is not None:
            name, raw = "config " + key, config[key]
        if raw is None:
            raw = default
        if raw is None:
            continue
        try:
            value = kind(str(raw))
        except ValueError as exc:
            raise GapVirError("%s %s: %s" % (name, raw, exc)) from None
        if choices and value not in choices:
            raise GapVirError("%s %s: choose from %s" % (name, raw, ", ".join(choices)))
        if low is not None and value < low:
            raise GapVirError("%s %s: must be at least %d" % (name, raw, low))
        if level:
            # --p is resolved first; kac-scan counts Virasoro levels, p p-levels each
            scaled = value * args.p if level == "virasoro" else value
            env = os.environ.get("GAPVIR_MAX_LEVEL", str(DEFAULT_MAX_LEVEL_GUARD))
            try:
                guard = _int(env)
            except ValueError as exc:
                raise GapVirError("GAPVIR_MAX_LEVEL %s: %s" % (env, exc)) from None
            if scaled > guard:
                raise GapVirError("%s %s: p-level %d is over the guardrail %d (set "
                                  "GAPVIR_MAX_LEVEL to raise it)" % (name, raw, scaled, guard))
        values[dest] = value
    steps = _work(args)
    if steps > WORK_BUDGET:
        raise GapVirError("%s: the estimated work, %d steps, is over the budget of %d"
                          % (args.subcommand, steps, WORK_BUDGET))
    p = args.p
    args.alg = GapVirasoro(p)
    given = _collect_dynamic(extras, args.indexed)
    if "c" in args.indexed:
        flags = {"l0": args.l0, "c0": args.c0}
        given["c"].update((n, v) for n, v in flags.items() if v is not None)
        args.hw = HighestWeight.read(p, _config_object(config, "weights"), "config weights",
                                     given["c"])
    if "beta" in args.indexed:
        args.beta = indexed_values(p, _config_object(config, "beta"), "config beta", "beta",
                                   1, p - 1, "1", given=given["beta"])


def _config_echo(args, extra=None):
    out = {"p": args.p, "seed": args.seed, "outputFormat": args.output_format}
    if extra:
        out.update(extra)
    return out


# -- subcommand handlers --------------------------------------------------


def _cmd_bracket(args):
    x = _parsed("--x", args.x, args.alg.parse_element)
    y = _parsed("--y", args.y, args.alg.parse_element)
    result = args.alg.bracket(x, y)
    return _emit(args, {
        "config": _config_echo(args, {"x": args.x, "y": args.y}),
        "result": str(result),
        "rules": ["defining-bracket-relations"],
    })


def _cmd_involution_check(args):
    instances = []
    ok = True
    for idx in range(args.count):
        rng = random.Random(args.seed * 100003 + idx)
        kind = "plus" if idx % 2 == 0 else "minus"
        theta = sample_involution(args.alg, rng, kind)
        checks = involution_axiom_report(args.alg, theta)
        passed = all(checks.values())
        ok = ok and passed
        instances.append({
            "kind": theta.kind,
            "alpha": str(theta.alpha),
            "beta": [str(b) for b in theta.beta],
            "checks": checks,
            "pass": passed,
        })
    return _emit(args, {
        "config": _config_echo(args, {"count": args.count}),
        "instances": instances,
        "pass": ok,
        "rules": ["anti-involution-axioms", "virasoro-heisenberg-stability"],
    }, 0 if ok else 1)


def _cmd_verma_dims(args):
    module = VermaModule(args.alg, args.hw, _sector_from(args))
    dims = module.graded_dims(args.max_level)
    return _emit(args, {
        "config": _config_echo(args, {"maxLevel": args.max_level, "sector": args.sector}),
        "dims": dims,
        "rules": ["pbw-level-enumeration"],
    })


def _cmd_gram(args):
    theta = AntiInvolution.plus(args.p, _parsed("--alpha", args.alpha, scalar), args.beta)
    module = VermaModule(args.alg, args.hw, _sector_from(args))
    gm = gram(module, theta, args.level)
    try:
        verdict = definiteness(gm).describe()
    except GramIntegrityError:
        # no contravariant Hermitian form exists for this weight and theta
        verdict = {"kind": "not-hermitian"}
    return _emit(args, {
        "config": _config_echo(args, {"level": args.level, "weights": args.hw.describe(),
                                      "alpha": args.alpha, "sector": args.sector,
                                      "beta": [str(b) for b in args.beta]}),
        "basis": [m.text() for m in gm.basis],
        "entries": gm.to_strings(),
        "verdict": verdict,
        "rules": ["contravariant-gram-form", "pivoted-exact-ldl"],
    })


def _sector_from(args):
    if args.sector == "virasoro":
        return Sector.virasoro()
    if args.sector == "heisenberg":
        return Sector.heisenberg(args.hw.j_set())
    return Sector.full(args.p)


def _cmd_reducibility(args):
    module = VermaModule(args.alg, args.hw, _sector_from(args))
    report = reducibility_report(module, args.max_level, max_ab=args.max_ab)
    report.update({
        "config": _config_echo(args, {"maxLevel": args.max_level, "maxAB": args.max_ab,
                                      "sector": args.sector,
                                      "weights": args.hw.describe()}),
        "rules": ["singular-vector-search", "gram-kernel-scan",
                  "irreducibility-product-criterion"],
    })
    cross = report["crossCheck"]
    return _emit(args, report, 0 if cross is None or cross["agreement"] else 1)


def _cmd_sugawara_check(args):
    osc = OscillatorModule(args.alg, args.hw)
    modes = range(-args.mode_window, args.mode_window + 1)
    # one check per pair m < n: on the memoized L, (n, m)'s two sides are exactly minus
    # (m, n)'s, and (m, m)'s are both 0 (README, "Sugawara relations")
    passed = {(m, n): virasoro_relation_check(osc, m, n, args.max_level)["pass"]
              for m in modes for n in modes if m < n}
    checks = [{"m": m, "n": n, "maxLevel": args.max_level,
               "pass": m == n or passed[min(m, n), max(m, n)]} for m in modes for n in modes]
    ok = all(passed.values())
    return _emit(args, {
        "config": _config_echo(args, {"maxLevel": args.max_level,
                                      "modeWindow": args.mode_window,
                                      "weights": args.hw.describe()}),
        "relationChecks": checks,
        "centralCharge": osc.central_charge(),
        "deltaTermIndexSet": "J",
        "pass": ok,
        "rules": ["normal-ordered-quadratic-realization"],
    }, 0 if ok else 1)


def _cmd_series_check(args):
    if args.f_file:
        spec = _load_config(args.f_file)
        if spec.get("p") != args.p:
            raise GapVirError("F matrix file is for p=%s, command uses p=%d"
                              % (spec.get("p"), args.p))
        if "rows" not in spec:
            raise ConfigError("F matrix file %s has no \"rows\"" % args.f_file)
        rows = spec["rows"]
    elif args.f:
        rows = json.loads(args.f)
    else:
        raise GapVirError("series-check needs --f or --f-file")
    f = FMatrix.make(args.p, rows)
    module = SeriesModule(args.alg, _parsed("--a", args.a, scalar), _parsed("--b", args.b, scalar),
                          f, allow_invalid=True)
    axioms = module.axiom_check(args.window) if not module.violations else \
        {"pass": False, "witness": "skipped: invalid F"}
    pred = series_predicates(module, args.beta)
    ok = (not module.violations) and axioms["pass"]
    return _emit(args, {
        "config": _config_echo(args, {"a": args.a, "b": args.b,
                                      "window": args.window,
                                      "f": f.to_strings(),
                                      "beta": [str(b) for b in args.beta]}),
        "fValidation": module.violations,
        "axioms": axioms,
        "predicates": pred,
        "pass": ok,
        "rules": ["f-matrix-compatibility", "f-matrix-column-closure",
                  "module-axiom-window-check", "delta-form-symmetry"],
    }, 0 if ok else 1)


def _cmd_unitary_check(args):
    res = unitarity_verdict(args.alg, args.hw, args.beta, args.max_level)
    res.update({
        "config": _config_echo(args, {"maxLevel": args.max_level,
                                      "weights": args.hw.describe(),
                                      "beta": [str(b) for b in args.beta]}),
        "rules": ["heisenberg-sector-positivity",
                  "continuum-or-discrete-series", "gram-psd-oracle"],
    })
    return _emit(args, res, 0 if res["agreement"] else 1)


def _cmd_classify(args):
    descriptor = _load_config(args.input)
    if "beta" not in descriptor:
        descriptor["beta"] = [str(b) for b in args.beta]
    res = classify(args.alg, descriptor, args.max_level)
    res.update({
        "config": _config_echo(args, {"maxLevel": args.max_level,
                                      "descriptor": descriptor}),
        "rules": ["intermediate-series-unitarity",
                  "highest-weight-unitarity", "lowest-weight-dual-twist"],
    })
    disagree = res.get("agreement") is False
    return _emit(args, res, 1 if disagree else 0)


def _cmd_kac_scan(args):
    c_values = [_parsed("--central", tok, scalar) for tok in args.central.split(",")]
    num, den = args.grid
    h_values = [Scalar(k, 0, den) for k in range(num + 1)]
    report = kac_scan(args.alg, c_values, h_values, args.max_level, args.max_ab)
    report.update({
        "config": _config_echo(args, {"central": args.central, "grid": "%d/%d" % args.grid,
                                      "maxLevel": args.max_level, "maxAB": args.max_ab}),
        "rules": ["gram-factor-zero-set", "level-window-singular-search"],
    })
    return _emit(args, report, 0 if report["setsEqual"] else 1)


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise GapVirError instead of exiting."""

    def error(self, message):
        raise GapVirError(message)


def build_parser():
    parser = _Parser(
        prog="gapvir",
        description="Exact computations in gap-p Virasoro representation theory.")
    parser.add_argument("--version", action="version", version="gapvir " + __version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.commands = sub.choices  # name -> subcommand parser, for main's dispatch

    def command(name, handler, help, indexed=()):
        """Add a subcommand with the shared flags; return the function adding its own.

        ``indexed`` names the --cN / --betaN families it takes: "c" also adds
        --l0 and --c0 and resolves ``args.hw``, "beta" resolves ``args.beta``.
        """
        sp = sub.add_parser(name, help=help)
        settings = []
        sp.set_defaults(handler=handler, settings=settings, indexed=indexed)

        def flag(name, default=None, kind=str, key=None, low=None, choices=None, level=None,
                 **kw):
            """Add a flag whose value ``_resolve`` takes from it, config[key] or default.

            ``level`` is "p-level" or "virasoro" for a level the guardrail bounds.
            """
            if choices:
                kw["metavar"] = "{%s}" % ",".join(choices)
            dest = sp.add_argument(name, **kw).dest
            settings.append((dest, name, default, kind, key, low, choices, level))

        flag("--p", 2, _int, "p", low=2, help="gap parameter p >= 2")
        flag("--seed", 0, _int, "seed")
        flag("--format", "json", key="outputFormat", choices=("json", "text"),
             dest="output_format")
        flag("--output", help="write the report to a file")
        flag("--config", help="JSON file with defaults for weights and beta")
        if "c" in indexed:
            flag("--l0", help="highest weight on L_0")
            flag("--c0", help="highest weight on C_0")
        return flag

    flag = command("bracket", _cmd_bracket, "bracket of two algebra elements")
    flag("--x", required=True)
    flag("--y", required=True)

    flag = command("involution-check", _cmd_involution_check,
                   "axiom checks on sampled involutions")
    flag("--count", 20, _int, low=0)

    flag = command("verma-dims", _cmd_verma_dims, "graded dimensions by p-level", ("c",))
    flag("--max-level", 10, _int, "maxLevel", low=0, level="p-level")
    flag("--sector", "full", choices=SECTORS)

    flag = command("gram", _cmd_gram, "contravariant Gram matrix at one level", ("c", "beta"))
    flag("--level", 2, _int, low=0, level="p-level")
    flag("--alpha", "1")
    flag("--sector", "full", choices=SECTORS)

    flag = command("reducibility", _cmd_reducibility,
                   "singular vectors and Gram kernels by level", ("c",))
    flag("--max-level", 6, _int, "maxLevel", low=0, level="p-level")
    flag("--max-ab", 4, _int, low=0)
    flag("--sector", "full", choices=SECTORS)

    flag = command("sugawara-check", _cmd_sugawara_check,
                   "Virasoro relations for the realized action", ("c",))
    flag("--max-level", 8, _int, "maxLevel", low=0, level="p-level")
    flag("--mode-window", 2, _int, low=0)

    flag = command("series-check", _cmd_series_check,
                   "intermediate-series axioms and predicates", ("beta",))
    flag("--a", required=True)
    flag("--b", required=True)
    flag("--f", help="inline JSON rows for F")
    flag("--f-file", help='JSON file {"p":..,"rows":[[..]]}')
    flag("--window", 6, _int, "window", low=0)

    flag = command("unitary-check", _cmd_unitary_check,
                   "closed-form unitarity versus the Gram oracle", ("c", "beta"))
    flag("--max-level", 6, _int, "maxLevel", low=0, level="p-level")

    flag = command("classify", _cmd_classify, "route a module descriptor to its bucket",
                   ("beta",))
    flag("--input", required=True, help="JSON module descriptor")
    flag("--max-level", 6, _int, "maxLevel", low=0, level="p-level")

    flag = command("kac-scan", _cmd_kac_scan, "closed-form zero set versus singular vectors")
    flag("--central", "0,1/2,1,26", help="comma-separated central charges")
    flag("--grid", "96/48", _grid, help="weight grid k/den for k = 0..num, written num/den")
    flag("--max-level", 4, _int, "maxLevel", low=0, level="virasoro",
         help="Virasoro level bound for the singular search")
    flag("--max-ab", 4, _int, low=0)

    return parser


@functools.cache
def _parser():
    """The one parser of the process, built on the first main() call.

    Parsing leaves an argparse parser unchanged, so every call shares it.
    """
    return build_parser()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = _parser()
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:  # no subcommand first: --version, -h, a usage error
            args, extras = parser.parse_known_args(argv)
        else:  # the call argparse's subparsers action makes, without the top-level scan
            args, extras = command.parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
        _resolve(args, extras)
        return args.handler(args)
    except (GapVirError, ZeroDivisionError, OSError, ValueError) as exc:
        sys.stderr.write("gapvir: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
