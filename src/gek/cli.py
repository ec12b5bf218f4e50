"""Command-line entry point: evaluation, verification, sweeps, series tools.

All outputs are machine-readable (plain numbers, CSV, or schema-versioned
JSON), every float is quantized to 15 significant digits, and randomized
commands are seeded (flag --seed, else the GEK_SEED environment variable), so
identical invocations produce byte-identical output.

Exit codes: 0 success / all properties passed, 1 a verified property failed,
2 malformed input or inadmissible parameters.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .entropy import Distribution, EntropySpec, entropy_spec
from .errors import GekError, InputError, ParameterError, RangeError
from .grouplog import GroupLogarithm, chi, eval_exp_G, eval_ln_G, group_family, group_function
from .properties import (
    PropertyReport,
    check_composability,
    check_extensivity,
    check_schur_concavity,
    check_sk_axioms,
    solve_growth_law,
)
from .quantum import (
    DensityMatrix,
    DickeSpec,
    LmgParams,
    dicke_reduced_density,
    extensive_alpha,
    lmg_asymptotic_za0,
    quantum_z_ab,
)
from .series import TruncatedSeries, group_law_from_G, reversion

SCHEMA_VERSION = "1"
# an entropy sweep evaluates one row per point; longer ranges are rejected before any is built
MAX_SWEEP_POINTS = 100_000


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _quantize(obj):
    """Round every float in a JSON-ready structure to 15 significant digits."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


def _dump_json(payload: dict) -> str:
    return json.dumps(_quantize(payload), indent=2, sort_keys=True) + "\n"


def _parse_params(text: str | None) -> dict[str, str]:
    params: dict[str, str] = {}
    if not text:
        return params
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InputError(f"malformed parameter {chunk!r}; expected key=value")
        key, value = chunk.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _float_params(text: str | None) -> dict[str, float]:
    out = {}
    for key, value in _parse_params(text).items():
        if key == "g":  # group-function name for the group-backed families
            out[key] = value
            continue
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise InputError(f"parameter {key}={value!r} is not a number") from exc
    return out


def _fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{what} is not an exact rational") from exc


def _fraction_params(text: str | None) -> dict[str, Fraction]:
    return {key: _fraction(value, f"parameter {key}={value!r}") for key, value in _parse_params(text).items()}


def _load_distribution(token: str) -> Distribution:
    """uW / dW shorthands, an inline comma list, or a one-probability-per-line file."""
    short = re.fullmatch(r"([ud])(\d+)", token)
    if short:
        size = int(short.group(2))
        return Distribution.uniform(size) if short.group(1) == "u" else Distribution.delta(size)
    if "," in token:
        return Distribution([float(v) for v in token.split(",") if v.strip()])
    try:
        with open(token) as handle:
            values = [float(line) for line in handle if line.strip()]
    except OSError as exc:
        raise InputError(f"cannot read distribution file {token!r}: {exc}") from exc
    if not values:
        raise InputError(f"distribution file {token!r} is empty")
    return Distribution(values)


def _load_density_matrix(path: str) -> DensityMatrix:
    """Plain-text matrix: one row per line, whitespace-separated 're,im' entries."""
    rows = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                row = []
                for token in re.split(r"[;\s]+", line):
                    parts = token.split(",")
                    if len(parts) not in (1, 2):
                        raise InputError(f"malformed matrix entry {token!r}")
                    real = float(parts[0])
                    imag = float(parts[1]) if len(parts) == 2 else 0.0
                    row.append(complex(real, imag))
                rows.append(row)
    except OSError as exc:
        raise InputError(f"cannot read density matrix file {path!r}: {exc}") from exc
    if not rows or len({len(r) for r in rows}) != 1:
        raise InputError("density matrix file must contain rows of equal length")
    return DensityMatrix(np.array(rows))


def _finite_float(text: str) -> float:
    """argparse type for float options: nan and inf are bad input (exit 2), never a silent pass."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


@dataclass
class RunConfig:
    """Validated invocation: subcommand plus everything its handler needs."""

    command: str
    family: str | None = None
    params: dict = field(default_factory=dict)
    output: str | None = None
    seed: int = 0
    trials: int = 1000
    tol: float = 1e-10
    extras: dict = field(default_factory=dict)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gek", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p, params_help="family parameters as key=value[,key=value...]"):
        p.add_argument("--params", default="", help=params_help)
        p.add_argument("--output", "-o", default=None, help="write output to this file instead of stdout")

    p_entropy = sub.add_parser("entropy", help="evaluate entropies on distributions")
    entropy_sub = p_entropy.add_subparsers(dest="action", required=True)
    p_eval = entropy_sub.add_parser("eval", help="single entropy value")
    p_eval.add_argument("--family", required=True)
    p_eval.add_argument("--dist", required=True, help="uW, dW, inline p1,p2,..., or a file path")
    add_common(p_eval)
    p_sweep = entropy_sub.add_parser("sweep", help="entropy along a parameter range")
    p_sweep.add_argument("--family", required=True)
    p_sweep.add_argument("--dist", required=True)
    p_sweep.add_argument("--param", required=True, help="sweep range name=start:stop:step")
    add_common(p_sweep)

    p_verify = sub.add_parser("verify", help="run property suites, JSON report, exit 0 iff all pass")
    p_verify.add_argument("--family", required=True)
    p_verify.add_argument("--suite", default="all", choices=["composability", "sk", "schur", "extensivity", "all"])
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--tol", type=_finite_float, default=1e-10)
    p_verify.add_argument("--lam", type=_finite_float, default=1.0, help="extensivity rate constant")
    add_common(p_verify)

    p_series = sub.add_parser("series", help="exact series tools")
    series_sub = p_series.add_subparsers(dest="action", required=True)
    p_invert = series_sub.add_parser("invert", help="compositional inverse, exact fractions")
    p_invert.add_argument("--coeffs", required=True, help="monomial coefficients c0,c1,... as fractions")
    p_invert.add_argument("--order", type=int, required=True)
    p_invert.add_argument("--output", "-o", default=None)

    p_law = sub.add_parser("grouplaw", help="exact group-law expansions")
    law_sub = p_law.add_subparsers(dest="action", required=True)
    p_expand = law_sub.add_parser("expand", help="expand G(G^-1(x)+G^-1(y)) to a total degree")
    p_expand.add_argument("--family", required=True, help="id, tsallis, kaniadakis or abel")
    p_expand.add_argument("--order", type=int, required=True)
    add_common(p_expand, params_help="exact rational parameters, e.g. q=1/2")

    for name, help_text in (("log", "generalized logarithm"), ("exp", "generalized exponential")):
        p_fn = sub.add_parser(name, help=f"evaluate the {help_text}")
        fn_sub = p_fn.add_subparsers(dest="action", required=True)
        p_fn_eval = fn_sub.add_parser("eval")
        p_fn_eval.add_argument("--family", required=True, help="id, tsallis, kaniadakis or abel")
        p_fn_eval.add_argument("--x", type=_finite_float, required=True)
        p_fn_eval.add_argument("--gamma", type=_finite_float, default=1.0)
        add_common(p_fn_eval)

    p_chi = sub.add_parser("chi", help="evaluate the two-argument group law")
    chi_sub = p_chi.add_subparsers(dest="action", required=True)
    p_chi_eval = chi_sub.add_parser("eval")
    p_chi_eval.add_argument("--family", required=True)
    p_chi_eval.add_argument("--x", type=_finite_float, required=True)
    p_chi_eval.add_argument("--y", type=_finite_float, required=True)
    add_common(p_chi_eval)

    p_ext = sub.add_parser("extensivity", help="phase-space growth laws")
    ext_sub = p_ext.add_subparsers(dest="action", required=True)
    p_solve = ext_sub.add_parser("solve", help="solve W(N) for a target linear rate")
    p_solve.add_argument("--family", required=True)
    p_solve.add_argument("--lam", type=_finite_float, default=1.0)
    p_solve.add_argument("--horizon", type=_finite_float, default=1e4)
    add_common(p_solve)

    p_q = sub.add_parser("qentropy", help="entropies of density matrices")
    q_sub = p_q.add_subparsers(dest="action", required=True)
    p_q_eval = q_sub.add_parser("eval")
    p_q_eval.add_argument("--rho", required=True, help="plain-text matrix file, 're,im' entries")
    p_q_eval.add_argument("--family", default="vn", help="vn or any classical family name")
    add_common(p_q_eval)

    p_lmg = sub.add_parser("lmg", help="symmetric-state block entanglement demo")
    lmg_sub = p_lmg.add_subparsers(dest="action", required=True)
    p_demo = lmg_sub.add_parser("demo", help="exact block entropy vs the large-block formula")
    p_demo.add_argument("--m", type=int, required=True)
    p_demo.add_argument("--N", type=int, required=True, dest="n_sites")
    p_demo.add_argument("--occupations", required=True, help="comma-separated level counts")
    p_demo.add_argument("--a", type=_finite_float, required=True)
    group = p_demo.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=_finite_float, default=None)
    group.add_argument("--extensive", action="store_true", help="use the order that makes the formula linear in L")
    p_demo.add_argument("--sweep-L", action="store_true", dest="sweep_l")
    p_demo.add_argument("--L", type=int, default=None, dest="block")
    p_demo.add_argument("--output", "-o", default=None)

    return parser


def parse_args(argv) -> RunConfig:
    """Parse and validate argv into a RunConfig; bad families or parameter keys fail here."""
    args = _build_parser().parse_args(argv)
    command = args.cmd if not getattr(args, "action", None) else f"{args.cmd} {args.action}"
    config = RunConfig(command=command, output=getattr(args, "output", None))
    config.seed = _resolve_seed(getattr(args, "seed", None))

    if command in ("entropy eval", "entropy sweep"):
        config.family = args.family
        config.params = _float_params(args.params)
        config.extras["dist"] = _load_distribution(args.dist)
        if command == "entropy sweep":
            config.extras["sweep"] = _parse_sweep(args.param)
        else:
            config.extras["spec"] = entropy_spec(config.family, config.params)
    elif command == "verify":
        if args.trials < 1:
            raise InputError("--trials must be at least 1")
        if args.tol < 0:
            raise InputError("--tol must be at least 0")
        config.family = args.family
        config.params = _float_params(args.params)
        config.trials = args.trials
        config.tol = args.tol
        config.extras["suite"] = args.suite
        config.extras["lam"] = args.lam
        config.extras["spec"] = entropy_spec(config.family, dict(config.params))
    elif command == "series invert":
        coeffs = [_fraction(tok, f"coefficient {tok!r}") for tok in args.coeffs.split(",") if tok.strip()]
        if args.order < 1:
            raise InputError("order must be at least 1")
        config.extras["series"] = TruncatedSeries.from_coeffs(coeffs, order=args.order)
    elif command == "grouplaw expand":
        if args.order < 1:
            raise InputError("order must be at least 1")
        family = group_family(args.family)
        config.extras["series"] = family.carrier(*family.values(_fraction_params(args.params)), args.order)
        config.extras["order"] = args.order
    elif command in ("log eval", "exp eval"):
        params = _float_params(args.params)
        g = group_function(args.family, **params)
        config.extras["lg"] = GroupLogarithm(g, gamma=args.gamma)
        config.extras["x"] = args.x
    elif command == "chi eval":
        params = _float_params(args.params)
        config.extras["g"] = group_function(args.family, **params)
        config.extras["x"], config.extras["y"] = args.x, args.y
    elif command == "extensivity solve":
        if args.horizon < 1:
            raise InputError("--horizon must be at least 1")
        config.family = args.family
        config.params = _float_params(args.params)
        config.extras["lam"] = args.lam
        config.extras["horizon"] = args.horizon
        config.extras["spec"] = _growth_spec(config.family, dict(config.params))
    elif command == "qentropy eval":
        config.family = args.family
        config.params = _float_params(args.params)
        config.extras["rho"] = _load_density_matrix(args.rho)
        family = "boltzmann" if config.family.lower() in ("vn", "von_neumann") else config.family
        config.extras["spec"] = entropy_spec(family, dict(config.params))
    elif command == "lmg demo":
        occupations = tuple(int(tok) for tok in args.occupations.split(",") if tok.strip())
        if 0 in occupations:
            raise ParameterError(
                "lmg demo needs every occupation > 0: a zero density makes the asymptotic value 0"
                " and the ratio undefined"
            )
        alpha = extensive_alpha(args.a, args.m) if args.extensive else args.alpha
        if alpha is None:
            raise InputError("give --alpha or --extensive")
        if alpha <= 0:
            raise InputError(
                "the asymptotic formula needs alpha > 0; with --extensive this requires a*m > 2"
            )
        config.extras.update(
            m=args.m, n_sites=args.n_sites, occupations=occupations, a=args.a,
            alpha=alpha, sweep=args.sweep_l, block=args.block,
        )
    else:  # pragma: no cover - argparse enforces the command set
        raise InputError(f"unknown command {command!r}")
    return config


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return int(flag_value)
    try:
        return int(os.environ.get("GEK_SEED", "0"))
    except ValueError as exc:
        raise InputError("GEK_SEED must be an integer") from exc


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    match = re.fullmatch(r"([A-Za-z_]+)=([^:]+):([^:]+):([^:]+)", text.strip())
    if not match:
        raise InputError(f"malformed sweep {text!r}; expected name=start:stop:step")
    name = match.group(1)
    try:
        start, stop, step = (float(match.group(i)) for i in (2, 3, 4))
    except ValueError as exc:
        raise InputError(f"non-numeric sweep bounds in {text!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise InputError(f"sweep bounds must be finite in {text!r}")
    if step <= 0 or stop < start:
        raise InputError("sweep needs step > 0 and stop >= start")
    steps = (stop - start) / step
    if not math.isfinite(steps):
        raise InputError(f"sweep {text!r} has too many points")
    count = int(math.floor(steps + 1e-9)) + 1
    if count > MAX_SWEEP_POINTS:
        raise InputError(f"sweep {text!r} has more than {MAX_SWEEP_POINTS} points")
    return name, [start + i * step for i in range(count)]


def _growth_spec(family: str, params: dict) -> EntropySpec:
    spec = entropy_spec(family, params)
    if spec.growth is None:
        raise InputError(f"family {family!r} has no growth law that makes it extensive")
    return spec


# ---------------------------------------------------------------------------
# handlers


def _handle_entropy_eval(config: RunConfig) -> tuple[int, str]:
    value = config.extras["spec"].value(config.extras["dist"])
    return 0, _fmt(value) + "\n"


def _handle_entropy_sweep(config: RunConfig) -> tuple[int, str]:
    name, values = config.extras["sweep"]
    dist = config.extras["dist"]
    rows = []
    for v in values:
        params = dict(config.params)
        params[name] = v
        spec = entropy_spec(config.family, params)
        rows.append([_fmt(v), _fmt(spec.value(dist))])
    return 0, _csv_text([name, "entropy"], rows)


def _handle_series_invert(config: RunConfig) -> tuple[int, str]:
    inverse = reversion(config.extras["series"])
    rows = [[str(k), str(c)] for k, c in enumerate(inverse.coeffs)]
    return 0, _csv_text(["degree", "value"], rows)


def _handle_grouplaw_expand(config: RunConfig) -> tuple[int, str]:
    psi = group_law_from_G(config.extras["series"], config.extras["order"])
    rows = [[str(i), str(j), str(psi[(i, j)])] for (i, j) in psi.monomials()]
    return 0, _csv_text(["i", "j", "value"], rows)


def _handle_log_eval(config: RunConfig) -> tuple[int, str]:
    return 0, _fmt(eval_ln_G(config.extras["lg"], config.extras["x"])) + "\n"


def _handle_exp_eval(config: RunConfig) -> tuple[int, str]:
    return 0, _fmt(eval_exp_G(config.extras["lg"], config.extras["x"])) + "\n"


def _handle_chi_eval(config: RunConfig) -> tuple[int, str]:
    return 0, _fmt(chi(config.extras["g"], config.extras["x"], config.extras["y"])) + "\n"


def _handle_verify(config: RunConfig) -> tuple[int, str]:
    spec: EntropySpec = config.extras["spec"]
    suite = config.extras["suite"]
    reports: list[PropertyReport] = []
    if suite in ("composability", "all"):
        reports.append(check_composability(spec, config.trials, config.tol, config.seed))
    if suite in ("sk", "all"):
        reports.extend(check_sk_axioms(spec, config.trials, config.seed))
    if suite in ("schur", "all"):
        reports.extend(check_schur_concavity(spec, config.trials, config.seed))
    if suite == "extensivity" or (suite == "all" and spec.growth is not None):
        reports.extend(check_extensivity(spec, config.extras["lam"], config.tol, config.seed))
    all_passed = all(r.passed for r in reports)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "family": spec.family,
        "params": dict(config.params),
        "regime": spec.regime,
        "suite": suite,
        "seed": config.seed,
        "trials": config.trials,
        "tol": config.tol,
        "properties": [r.as_dict() for r in reports],
        "all_passed": all_passed,
    }
    return (0 if all_passed else 1), _dump_json(payload)


def _handle_extensivity_solve(config: RunConfig) -> tuple[int, str]:
    spec: EntropySpec = config.extras["spec"]
    lam = config.extras["lam"]
    horizon = config.extras["horizon"]
    if spec.growth == "power":
        (report,) = check_extensivity(spec, lam, config.tol, config.seed)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "family": spec.family,
            "params": dict(config.params),
            "kind": spec.growth,
            "description": f"W(N) = N^{_fmt(report.witness['rho'])}",
            "valid": report.passed,
            "samples": [],
        }
        return 0 if report.passed else 1, _dump_json(payload)
    law = solve_growth_law(spec, lam, horizon=horizon)
    samples = []
    for n in np.unique(np.round(np.logspace(0, math.log10(horizon), 9)).astype(int)):
        try:
            lw = law.log_w(float(n))
        except GekError:
            break
        if not math.isfinite(lw):  # JSON has no inf; W past a float's range ends the samples too
            break
        samples.append({"N": int(n), "log_w": lw, "w": math.exp(lw) if lw < 709 else None})
    payload = {
        "schema_version": SCHEMA_VERSION,
        "family": spec.family,
        "params": dict(config.params),
        "lam": lam,
        "kind": law.kind,
        "description": law.describe(),
        "valid": law.valid,
        "restricted": law.restricted,
        "samples": samples,
    }
    return 0 if law.valid else 1, _dump_json(payload)


def _handle_qentropy_eval(config: RunConfig) -> tuple[int, str]:
    spec: EntropySpec = config.extras["spec"]
    rho: DensityMatrix = config.extras["rho"]
    # spectra sum to 1 within the eigensolver tolerance, so skip strict
    # simplex validation and evaluate the defining formula directly
    return 0, _fmt(spec.raw_value(rho.spectrum)) + "\n"


def _handle_lmg_demo(config: RunConfig) -> tuple[int, str]:
    x = config.extras
    m, n_sites, occupations = x["m"], x["n_sites"], x["occupations"]
    a, alpha = x["a"], x["alpha"]
    densities = tuple(k / n_sites for k in occupations)
    blocks = range(1, n_sites // 2 + 1) if x["sweep"] else [x["block"] or n_sites // 2]
    rows = []
    for block in blocks:
        spec = DickeSpec(m=m, n_sites=n_sites, occupations=occupations, block=block)
        exact = quantum_z_ab(a, 0.0, alpha, dicke_reduced_density(spec))
        params = LmgParams(a=a, m=m, alpha=alpha, gamma=block / n_sites, densities=densities)
        asymptotic = lmg_asymptotic_za0(params, float(block))
        if asymptotic == 0:
            raise RangeError(f"the asymptotic value at L={block} underflows to 0; the ratio is undefined")
        rows.append([str(block), _fmt(exact), _fmt(asymptotic), _fmt(exact / asymptotic)])
    return 0, _csv_text(["L", "exact_entropy", "asymptotic_value", "ratio"], rows)


_HANDLERS = {
    "entropy eval": _handle_entropy_eval,
    "entropy sweep": _handle_entropy_sweep,
    "series invert": _handle_series_invert,
    "grouplaw expand": _handle_grouplaw_expand,
    "log eval": _handle_log_eval,
    "exp eval": _handle_exp_eval,
    "chi eval": _handle_chi_eval,
    "verify": _handle_verify,
    "extensivity solve": _handle_extensivity_solve,
    "qentropy eval": _handle_qentropy_eval,
    "lmg demo": _handle_lmg_demo,
}


def run(config: RunConfig) -> int:
    """Execute a validated config; writes the report and returns the exit code."""
    code, text = _HANDLERS[config.command](config)
    if config.output:
        with open(config.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


def main(argv=None) -> None:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
        code = run(config)
    except GekError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
