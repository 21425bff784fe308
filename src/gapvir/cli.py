"""Batch command surface producing deterministic JSON or text reports.

Subcommands: bracket, involution-check, verma-dims, gram, reducibility,
sugawara-check, series-check, unitary-check, classify, kac-scan.

Exit codes: 0 on success, 1 when a report carries a failing verdict or a
disagreement between routes, 2 on usage or configuration errors.  Reports are
byte-identical for identical configuration and seed: scalars are printed
exactly, keys are sorted, and nothing time- or environment-dependent is
embedded.
"""

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction

from . import __version__
from .algebra import (AntiInvolution, GapVirasoro, involution_axiom_report,
                      sample_involution)
from .errors import ConfigError, GapVirError
from .forms import definiteness, gram, kac_scan, reducibility_report
from .oscillator import OscillatorModule, virasoro_relation_check
from .scalars import Scalar, scalar
from .series import FMatrix, SeriesModule, series_predicates
from .unitarity import classify, unitarity_verdict
from .verma import HighestWeight, Sector, VermaModule

SCHEMA = "gapvir/1"
DEFAULT_MAX_LEVEL_GUARD = 24

_DYNFLAG = re.compile(r"^--(c|beta)([1-9]\d*)(?:=(.*))?$")


def _emit(args, payload, exit_code=0):
    payload = dict(payload)
    payload["schema"] = SCHEMA
    payload["tool"] = {"name": "gapvir", "version": __version__}
    if args.output_format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = _render_text(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return exit_code


def _render_text(payload):
    lines = []

    def walk(key, value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append("%s%s:" % (pad, key))
            for k in sorted(value):
                walk(k, value[k], indent + 1)
        elif isinstance(value, list):
            lines.append("%s%s: %s" % (pad, key, json.dumps(value, sort_keys=True)))
        else:
            lines.append("%s%s: %s" % (pad, key, value))

    for k in sorted(payload):
        walk(k, payload[k], 0)
    return "\n".join(lines) + "\n"


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


def _collect_dynamic(extras):
    """Pull repeated --cN / --betaN flags out of the leftover argv."""
    c_vals = {}
    beta_vals = {}
    i = 0
    while i < len(extras):
        m = _DYNFLAG.match(extras[i])
        if not m:
            raise GapVirError("unrecognized argument %r" % extras[i])
        family, idx, inline = m.group(1), int(m.group(2)), m.group(3)
        if inline is None:
            if i + 1 >= len(extras):
                raise GapVirError("flag %s needs a value" % extras[i])
            inline = extras[i + 1]
            i += 1
        (c_vals if family == "c" else beta_vals)[idx] = inline
        i += 1
    return c_vals, beta_vals


def _weight_from_args(args, c_vals):
    p = args.p
    weights = _config_object(args.config_data, "weights")
    l0 = args.l0 if args.l0 is not None else weights.get("l0", "0")
    central = []
    for j in range(p // 2 + 1):
        if j == 0:
            v = args.c0 if args.c0 is not None else weights.get("c0", "0")
        else:
            v = c_vals.get(j, weights.get("c%d" % j, "0"))
        central.append(v)
    return HighestWeight.make(p, l0, central)


def _beta_from_args(args, beta_vals):
    p = args.p
    config_beta = _config_object(args.config_data, "beta")
    out = []
    for i in range(1, p):
        v = beta_vals.get(i, config_beta.get("beta%d" % i, "1"))
        out.append(scalar(v))
    return out


def _guardrail(args, requested):
    if requested < 0:
        raise GapVirError("level %d is negative" % requested)
    guard = int(os.environ.get("GAPVIR_MAX_LEVEL", DEFAULT_MAX_LEVEL_GUARD))
    if requested > guard:
        raise GapVirError("max level %d exceeds the guardrail %d "
                          "(set GAPVIR_MAX_LEVEL to raise it)" % (requested, guard))
    return requested


def _config_echo(args, extra=None):
    out = {"p": args.p, "seed": args.seed, "outputFormat": args.output_format}
    if extra:
        out.update(extra)
    return out


# -- subcommand handlers --------------------------------------------------


def _cmd_bracket(args, c_vals, beta_vals):
    alg = GapVirasoro(args.p)
    x = alg.parse_element(args.x)
    y = alg.parse_element(args.y)
    result = alg.bracket(x, y)
    return _emit(args, {
        "command": "bracket",
        "config": _config_echo(args, {"x": args.x, "y": args.y}),
        "result": str(result),
        "rules": ["defining-bracket-relations"],
    })


def _cmd_involution_check(args, c_vals, beta_vals):
    alg = GapVirasoro(args.p)
    instances = []
    ok = True
    for idx in range(args.count):
        rng = random.Random(args.seed * 100003 + idx)
        kind = "plus" if idx % 2 == 0 else "minus"
        theta = sample_involution(alg, rng, kind)
        checks = involution_axiom_report(alg, theta)
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
        "command": "involution-check",
        "config": _config_echo(args, {"count": args.count}),
        "instances": instances,
        "pass": ok,
        "rules": ["anti-involution-axioms", "virasoro-heisenberg-stability"],
    }, 0 if ok else 1)


def _cmd_verma_dims(args, c_vals, beta_vals):
    alg = GapVirasoro(args.p)
    max_level = _guardrail(args, args.max_level)
    hw = _weight_from_args(args, c_vals)
    module = VermaModule(alg, hw, _sector_from(args, hw))
    dims = [module.graded_dim(d) for d in range(max_level + 1)]
    return _emit(args, {
        "command": "verma-dims",
        "config": _config_echo(args, {"maxLevel": max_level, "sector": args.sector}),
        "dims": dims,
        "rules": ["pbw-level-enumeration"],
    })


def _cmd_gram(args, c_vals, beta_vals):
    alg = GapVirasoro(args.p)
    level = _guardrail(args, args.level)
    hw = _weight_from_args(args, c_vals)
    beta = _beta_from_args(args, beta_vals)
    theta = AntiInvolution.plus(args.p, scalar(args.alpha), beta)
    module = VermaModule(alg, hw, _sector_from(args, hw))
    gm = gram(module, theta, level)
    if gm.is_hermitian():
        verdict = definiteness(gm).describe()
    else:
        # no contravariant Hermitian form exists for this weight and theta
        verdict = {"kind": "not-hermitian"}
    return _emit(args, {
        "command": "gram",
        "config": _config_echo(args, {"level": level, "weights": hw.describe(),
                                      "alpha": args.alpha, "sector": args.sector,
                                      "beta": [str(b) for b in beta]}),
        "basis": [m.text() for m in gm.basis],
        "entries": gm.to_strings(),
        "verdict": verdict,
        "rules": ["contravariant-gram-form", "pivoted-exact-ldl"],
    })


def _sector_from(args, hw):
    if args.sector == "virasoro":
        return Sector.virasoro()
    if args.sector == "heisenberg":
        return Sector.heisenberg(hw.j_set())
    return Sector.full(args.p)


def _cmd_reducibility(args, c_vals, beta_vals):
    alg = GapVirasoro(args.p)
    max_level = _guardrail(args, args.max_level)
    hw = _weight_from_args(args, c_vals)
    module = VermaModule(alg, hw, _sector_from(args, hw))
    report = reducibility_report(module, max_level, max_ab=args.max_ab)
    report.update({
        "command": "reducibility",
        "config": _config_echo(args, {"maxLevel": max_level, "maxAB": args.max_ab,
                                      "sector": args.sector,
                                      "weights": hw.describe()}),
        "rules": ["singular-vector-search", "gram-kernel-scan",
                  "irreducibility-product-criterion"],
    })
    return _emit(args, report)


def _cmd_sugawara_check(args, c_vals, beta_vals):
    alg = GapVirasoro(args.p)
    max_level = _guardrail(args, args.max_level)
    hw = _weight_from_args(args, c_vals)
    osc = OscillatorModule(alg, hw)
    checks = []
    ok = True
    for m in range(-args.mode_window, args.mode_window + 1):
        for n in range(-args.mode_window, args.mode_window + 1):
            rep = virasoro_relation_check(alg, hw, m, n, max_level)
            ok = ok and rep["pass"]
            checks.append({k: rep[k] for k in ("m", "n", "maxLevel", "pass")})
    return _emit(args, {
        "command": "sugawara-check",
        "config": _config_echo(args, {"maxLevel": max_level,
                                      "modeWindow": args.mode_window,
                                      "weights": hw.describe()}),
        "relationChecks": checks,
        "centralCharge": osc.central_charge(),
        "deltaTermIndexSet": "J",
        "pass": ok,
        "rules": ["normal-ordered-quadratic-realization"],
    }, 0 if ok else 1)


def _cmd_series_check(args, c_vals, beta_vals):
    alg = GapVirasoro(args.p)
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
    module = SeriesModule(alg, scalar(args.a), scalar(args.b), f, allow_invalid=True)
    beta = _beta_from_args(args, beta_vals)
    axioms = module.axiom_check(args.window) if not module.violations else \
        {"pass": False, "witness": "skipped: invalid F"}
    pred = series_predicates(module, beta)
    ok = (not module.violations) and axioms["pass"]
    return _emit(args, {
        "command": "series-check",
        "config": _config_echo(args, {"a": args.a, "b": args.b,
                                      "window": args.window,
                                      "f": f.to_strings(),
                                      "beta": [str(b) for b in beta]}),
        "fValidation": module.violations,
        "axioms": axioms,
        "predicates": pred,
        "pass": ok,
        "rules": ["f-matrix-compatibility", "f-matrix-column-closure",
                  "module-axiom-window-check", "delta-form-symmetry"],
    }, 0 if ok else 1)


def _cmd_unitary_check(args, c_vals, beta_vals):
    alg = GapVirasoro(args.p)
    max_level = _guardrail(args, args.max_level)
    hw = _weight_from_args(args, c_vals)
    beta = _beta_from_args(args, beta_vals)
    res = unitarity_verdict(alg, hw, beta, max_level, args.m_bound)
    res.update({
        "command": "unitary-check",
        "config": _config_echo(args, {"maxLevel": max_level, "mBound": args.m_bound,
                                      "weights": hw.describe(),
                                      "beta": [str(b) for b in beta]}),
        "rules": ["heisenberg-sector-positivity",
                  "continuum-or-discrete-series", "gram-psd-oracle"],
    })
    return _emit(args, res, 0 if res["agreement"] else 1)


def _cmd_classify(args, c_vals, beta_vals):
    descriptor = _load_config(args.input)
    alg = GapVirasoro(args.p)
    max_level = _guardrail(args, args.max_level)
    if "beta" not in descriptor:
        descriptor["beta"] = [str(b) for b in _beta_from_args(args, beta_vals)]
    res = classify(alg, descriptor, max_level, args.m_bound)
    res.update({
        "command": "classify",
        "config": _config_echo(args, {"maxLevel": max_level,
                                      "descriptor": descriptor}),
        "rules": ["intermediate-series-unitarity",
                  "highest-weight-unitarity", "lowest-weight-dual-twist"],
    })
    disagree = res.get("agreement") is False
    return _emit(args, res, 1 if disagree else 0)


def _cmd_kac_scan(args, c_vals, beta_vals):
    alg = GapVirasoro(args.p)
    max_level = _guardrail(args, args.max_level * alg.p) // alg.p
    c_values = [scalar(tok) for tok in args.central.split(",")]
    num, den = (int(v) for v in args.grid.split("/"))
    if num < 0 or den < 1:
        raise GapVirError("--grid num/den needs num >= 0 and den >= 1")
    h_values = [Scalar(Fraction(k, den)) for k in range(num + 1)]
    report = kac_scan(alg, c_values, h_values, max_level, args.max_ab)
    report.update({
        "command": "kac-scan",
        "config": _config_echo(args, {"central": args.central, "grid": args.grid,
                                      "maxLevel": max_level, "maxAB": args.max_ab}),
        "rules": ["gram-factor-zero-set", "level-window-singular-search"],
    })
    return _emit(args, report, 0 if report["setsEqual"] else 1)


# -- parser ------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gapvir",
        description="Exact computations in gap-p Virasoro representation theory.")
    parser.add_argument("--version", action="version", version="gapvir " + __version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, weights=False):
        sp.add_argument("--p", type=int, default=None, help="gap parameter p >= 2")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--format", dest="output_format", choices=("json", "text"),
                        default=None)
        sp.add_argument("--output", default=None, help="write the report to a file")
        sp.add_argument("--config", default=None,
                        help="JSON file with defaults for weights and beta")
        if weights:
            sp.add_argument("--l0", default=None, help="highest weight on L_0")
            sp.add_argument("--c0", default=None, help="highest weight on C_0")

    sp = sub.add_parser("bracket", help="bracket of two algebra elements")
    common(sp)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.set_defaults(handler=_cmd_bracket)

    sp = sub.add_parser("involution-check", help="axiom checks on sampled involutions")
    common(sp)
    sp.add_argument("--count", type=int, default=20)
    sp.set_defaults(handler=_cmd_involution_check)

    sp = sub.add_parser("verma-dims", help="graded dimensions by p-level")
    common(sp, weights=True)
    sp.add_argument("--max-level", type=int, default=None)
    sp.set_defaults(max_level_default=10)
    sp.add_argument("--sector", choices=("full", "virasoro", "heisenberg"),
                    default="full")
    sp.set_defaults(handler=_cmd_verma_dims)

    sp = sub.add_parser("gram", help="contravariant Gram matrix at one level")
    common(sp, weights=True)
    sp.add_argument("--level", type=int, default=2)
    sp.add_argument("--alpha", default="1")
    sp.add_argument("--sector", choices=("full", "virasoro", "heisenberg"),
                    default="full")
    sp.set_defaults(handler=_cmd_gram)

    sp = sub.add_parser("reducibility", help="singular vectors and Gram kernels by level")
    common(sp, weights=True)
    sp.add_argument("--max-level", type=int, default=None)
    sp.set_defaults(max_level_default=6)
    sp.add_argument("--max-ab", type=int, default=4)
    sp.add_argument("--sector", choices=("full", "virasoro", "heisenberg"),
                    default="full")
    sp.set_defaults(handler=_cmd_reducibility)

    sp = sub.add_parser("sugawara-check", help="Virasoro relations for the realized action")
    common(sp, weights=True)
    sp.add_argument("--max-level", type=int, default=None)
    sp.set_defaults(max_level_default=8)
    sp.add_argument("--mode-window", type=int, default=2)
    sp.set_defaults(handler=_cmd_sugawara_check)

    sp = sub.add_parser("series-check", help="intermediate-series axioms and predicates")
    common(sp)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--f", default=None, help="inline JSON rows for F")
    sp.add_argument("--f-file", default=None, help='JSON file {"p":..,"rows":[[..]]}')
    sp.add_argument("--window", type=int, default=None)
    sp.set_defaults(window_default=6)
    sp.set_defaults(handler=_cmd_series_check)

    sp = sub.add_parser("unitary-check", help="closed-form unitarity versus the Gram oracle")
    common(sp, weights=True)
    sp.add_argument("--max-level", type=int, default=None)
    sp.set_defaults(max_level_default=6)
    sp.add_argument("--m-bound", type=int, default=50)
    sp.set_defaults(handler=_cmd_unitary_check)

    sp = sub.add_parser("classify", help="route a module descriptor to its bucket")
    common(sp)
    sp.add_argument("--input", required=True, help="JSON module descriptor")
    sp.add_argument("--max-level", type=int, default=None)
    sp.set_defaults(max_level_default=6)
    sp.add_argument("--m-bound", type=int, default=50)
    sp.set_defaults(handler=_cmd_classify)

    sp = sub.add_parser("kac-scan", help="closed-form zero set versus singular vectors")
    common(sp)
    sp.add_argument("--central", default="0,1/2,1,26",
                    help="comma-separated central charges")
    sp.add_argument("--grid", default="96/48",
                    help="weight grid k/den for k = 0..num, written num/den")
    sp.add_argument("--max-level", type=int, default=None,
                    help="Virasoro level bound for the singular search")
    sp.set_defaults(max_level_default=4)
    sp.add_argument("--max-ab", type=int, default=4)
    sp.set_defaults(handler=_cmd_kac_scan)

    return parser


def _apply_config_defaults(args):
    """Fill unset flags from the config file, then from built-in defaults; check ranges."""
    cfg = args.config_data
    if args.p is None:
        args.p = int(cfg.get("p", 2))
    if args.seed is None:
        args.seed = int(cfg.get("seed", 0))
    if args.output_format is None:
        args.output_format = cfg.get("outputFormat", "json")
    if getattr(args, "max_level", None) is None and hasattr(args, "max_level"):
        args.max_level = int(cfg.get("maxLevel", args.max_level_default))
    if getattr(args, "window", None) is None and hasattr(args, "window"):
        args.window = int(cfg.get("window", args.window_default))
    for name, low in (("count", 0), ("window", 0), ("mode_window", 0), ("max_ab", 0),
                      ("m_bound", 2)):
        if getattr(args, name, low) < low:
            raise GapVirError("--%s must be at least %d" % (name.replace("_", "-"), low))


def main(argv=None):
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        c_vals, beta_vals = _collect_dynamic(extras)
        args.config_data = _load_config(args.config) if args.config else {}
        _apply_config_defaults(args)
        return args.handler(args, c_vals, beta_vals)
    except (GapVirError, ZeroDivisionError, OSError, ValueError) as exc:
        sys.stderr.write("gapvir: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
