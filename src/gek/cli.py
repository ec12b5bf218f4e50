"""Command-line entry point: evaluation, verification, sweeps, series tools.

All outputs are machine-readable (plain numbers, CSV, or schema-versioned
JSON), every float is quantized to 15 significant digits, and ``verify``, the
one randomized command, is seeded (flag --seed, else the GEK_SEED environment
variable), so identical invocations produce byte-identical output.

Exit codes: 0 success / all properties passed, 1 a verified property failed,
2 malformed input or inadmissible parameters.

Cold start: each command loads only what it runs.  This module imports only
the standard library and ``gek.errors`` at load time, and ``parse_args`` adds
options only to the command named by the first argument.  Each handler
imports the gek modules it uses, after its own option checks: ``log``/``exp``/
``chi eval`` load ``grouplog`` alone, ``series invert`` ``series`` alone,
``grouplaw expand`` both, ``extensivity solve`` ``entropy`` and ``growth``, and
none of them numpy.  ``entropy eval``, ``verify`` and ``qentropy eval`` build
their entropy spec, which needs no numpy, before they read a vector, so a bad
family or parameter is refused cold.  ``json`` and ``fractions`` load only for
the commands that print JSON or read exact rationals.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import GekError, InputError, ParameterError, RangeError, check_horizon, check_rate, check_trials

if TYPE_CHECKING:
    from fractions import Fraction

    from .entropy import Distribution
    from .growth import PropertyReport
    from .quantum import DensityMatrix

SCHEMA_VERSION = "1"
# an entropy sweep evaluates one row per point; longer ranges are rejected before any is built
MAX_SWEEP_POINTS = 100_000
# and evaluates the whole distribution at each point that changes the exponent: 10**8 entries take about 1.5 s
MAX_SWEEP_ENTRIES = 10**8
# the exact series commands print O(order^2) rows; in-process, `grouplaw expand` of an
# abel law takes about 3.4 ms at order 40, 4.5 ms at 50 and 6.2 ms at 64, most of it
# printing the rows, and `series invert` of its carrier, whose inverse is closed form,
# about 3.9 ms, 4.3 ms and 5.4 ms, with importing gek.series (median of 7 processes,
# shared 2-vCPU VM, Python 3.11); a raised cap moves exit codes, so it stays at 40
MAX_SERIES_ORDER = 40
# the uW / dW shorthands of --dist: W = 1e7 takes about 0.3 s and 270 MB; larger sizes are rejected unbuilt
MAX_SHORTHAND_SIZE = 10**7
# a refused token longer than this is echoed cut, with its length, so the error stays one short line; an
# unreadable path is cut past _PATH_ECHO_MAX, which keeps most real paths whole and the line under 200 bytes
_ECHO_MAX = 40
_PATH_ECHO_MAX = 80


def _fmt(x: float) -> str:
    """A bare number or CSV cell to 15 significant digits; adding 0.0 turns -0.0 into 0."""
    return format(float(x) + 0.0, ".15g")


def _quantize(obj):
    """Round every float in a JSON-ready structure to 15 significant digits, keeping the sign of zero."""
    if isinstance(obj, float):
        return float(format(obj, ".15g"))
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


def _dump_json(payload: dict) -> str:
    import json

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
        key, value = (part.strip() for part in chunk.split("=", 1))
        if key in params:
            raise InputError(f"parameter {key!r} is given twice")
        params[key] = value
    return params


def _float_params(text: str | None) -> dict[str, float]:
    """``--params`` as floats, each finite: nan and inf are bad input before any module loads or file is read."""
    out = {}
    for key, value in _parse_params(text).items():
        if key == "g":  # g names the group function of the group-backed families
            out[key] = value
            continue
        try:
            number = float(value)
        except ValueError:
            raise InputError(f"parameter {key}={value!r} is not a number") from None
        if not math.isfinite(number):
            raise InputError(f"parameter {key}={value!r} must be finite")
        out[key] = number
    return out


def _fraction(text: str, what: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{what} is not an exact rational") from exc


def _shown(token: str, most: int = _ECHO_MAX) -> str:
    """``token`` as an error echoes it: its repr, or its first ``most`` characters, ``...`` and its length."""
    return repr(token) if len(token) <= most else f"{token[:most]!r}... ({len(token)} characters)"


def _unreadable(what: str, path: str, exc: Exception) -> InputError:
    """The refusal of a file that cannot be read; a cut path names its OS error by the strerror, which omits it."""
    reason = exc.strerror if len(path) > _PATH_ECHO_MAX and isinstance(exc, OSError) and exc.strerror else exc
    return InputError(f"cannot read {what} file {_shown(path, _PATH_ECHO_MAX)}: {reason}")


def _probabilities(tokens) -> list[float]:
    values = []
    for tok in tokens:
        if tok.strip():
            try:
                values.append(float(tok))
            except ValueError:  # built on failure only: per line, the message took half a long file's parse
                raise InputError(f"probability {_shown(tok.strip())} is not a number") from None
    return values


def _load_distribution(token: str) -> Distribution:
    """uW / dW shorthands, an inline comma list, or a one-probability-per-line file."""
    from .entropy import Distribution

    short = re.fullmatch(r"([ud])(\d+)", token)
    if short:
        # a size with more digits than the cap is over it, and int() refuses a string of over 4300 digits
        digits = short.group(2).lstrip("0") or "0"
        if len(digits) > len(str(MAX_SHORTHAND_SIZE)) or (size := int(digits)) > MAX_SHORTHAND_SIZE:
            raise InputError(f"--dist {_shown(token)} has more than {MAX_SHORTHAND_SIZE} outcomes")
        return Distribution.uniform(size) if short.group(1) == "u" else Distribution.delta(size)
    if "," in token:
        return Distribution(_probabilities(token.split(",")))
    try:
        with open(token) as handle:
            values = _probabilities(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable("distribution", token, exc) from exc
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
                        raise InputError(f"malformed matrix entry {_shown(token)}")
                    try:
                        row.append(complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0))
                    except ValueError:  # built on failure only, as in _probabilities
                        raise InputError(f"matrix entry {_shown(token)} is not a number") from None
                rows.append(row)
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable("density matrix", path, exc) from exc
    if not rows or len({len(r) for r in rows}) != 1:
        raise InputError("density matrix file must contain rows of equal length")
    import numpy as np

    from .quantum import DensityMatrix

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
    """CSV without quoting: no header or cell (a name, _fmt number, int or Fraction) holds a comma, quote or newline."""
    return "".join(",".join(row) + "\n" for row in (header, *rows))


def _add_common(p, params_help="family parameters as key=value[,key=value...]"):
    p.add_argument("--params", default="", help=params_help)
    p.add_argument("--output", "-o", default=None, help="write output to this file instead of stdout")


def _entropy_options(p_entropy) -> None:
    entropy_sub = p_entropy.add_subparsers(dest="action", required=True)
    p_eval = entropy_sub.add_parser("eval", help="single entropy value")
    p_eval.add_argument("--family", required=True)
    p_eval.add_argument("--dist", required=True, help="uW, dW, inline p1,p2,..., or a file path")
    _add_common(p_eval)
    p_eval.set_defaults(handler=_entropy_eval)
    p_sweep = entropy_sub.add_parser("sweep", help="entropy along a parameter range")
    p_sweep.add_argument("--family", required=True)
    p_sweep.add_argument("--dist", required=True)
    p_sweep.add_argument("--param", required=True, help="sweep range name=start:stop:step")
    _add_common(p_sweep)
    p_sweep.set_defaults(handler=_entropy_sweep)


def _verify_options(p_verify) -> None:
    p_verify.add_argument("--family", required=True)
    p_verify.add_argument("--suite", default="all", choices=["composability", "sk", "schur", "extensivity", "all"])
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--tol", type=_finite_float, default=1e-10)
    p_verify.add_argument("--lam", type=_finite_float, default=1.0, help="extensivity rate constant")
    _add_common(p_verify)
    p_verify.set_defaults(handler=_verify)


def _series_options(p_series) -> None:
    series_sub = p_series.add_subparsers(dest="action", required=True)
    p_invert = series_sub.add_parser("invert", help="compositional inverse, exact fractions")
    p_invert.add_argument("--coeffs", required=True, help="monomial coefficients c0,c1,... as fractions")
    p_invert.add_argument("--order", type=int, required=True)
    p_invert.add_argument("--output", "-o", default=None)
    p_invert.set_defaults(handler=_series_invert)


def _grouplaw_options(p_law) -> None:
    law_sub = p_law.add_subparsers(dest="action", required=True)
    p_expand = law_sub.add_parser("expand", help="expand G(G^-1(x)+G^-1(y)) to a total degree")
    p_expand.add_argument("--family", required=True, help="id, tsallis, kaniadakis or abel")
    p_expand.add_argument("--order", type=int, required=True)
    _add_common(p_expand, params_help="exact rational parameters, e.g. q=1/2")
    p_expand.set_defaults(handler=_grouplaw_expand)


def _log_exp_options(p_fn) -> None:
    fn_sub = p_fn.add_subparsers(dest="action", required=True)
    p_fn_eval = fn_sub.add_parser("eval")
    p_fn_eval.add_argument("--family", required=True, help="id, tsallis, kaniadakis or abel")
    p_fn_eval.add_argument("--x", type=_finite_float, required=True)
    p_fn_eval.add_argument("--gamma", type=_finite_float, default=1.0)
    _add_common(p_fn_eval)
    p_fn_eval.set_defaults(handler=_log_exp_eval)


def _chi_options(p_chi) -> None:
    chi_sub = p_chi.add_subparsers(dest="action", required=True)
    p_chi_eval = chi_sub.add_parser("eval")
    p_chi_eval.add_argument("--family", required=True)
    p_chi_eval.add_argument("--x", type=_finite_float, required=True)
    p_chi_eval.add_argument("--y", type=_finite_float, required=True)
    _add_common(p_chi_eval)
    p_chi_eval.set_defaults(handler=_chi_eval)


def _extensivity_options(p_ext) -> None:
    ext_sub = p_ext.add_subparsers(dest="action", required=True)
    p_solve = ext_sub.add_parser("solve", help="solve W(N) for a target linear rate")
    p_solve.add_argument("--family", required=True)
    p_solve.add_argument("--lam", type=_finite_float, default=1.0)
    p_solve.add_argument("--horizon", type=_finite_float, default=1e4)
    _add_common(p_solve)
    p_solve.set_defaults(handler=_extensivity_solve)


def _qentropy_options(p_q) -> None:
    q_sub = p_q.add_subparsers(dest="action", required=True)
    p_q_eval = q_sub.add_parser("eval")
    p_q_eval.add_argument("--rho", required=True, help="plain-text matrix file, 're,im' entries")
    p_q_eval.add_argument("--family", default="vn", help="vn or any classical family name")
    _add_common(p_q_eval)
    p_q_eval.set_defaults(handler=_qentropy_eval)


def _lmg_options(p_lmg) -> None:
    lmg_sub = p_lmg.add_subparsers(dest="action", required=True)
    p_demo = lmg_sub.add_parser("demo", help="exact block entropy vs the large-block formula")
    p_demo.add_argument("--m", type=int, required=True)
    p_demo.add_argument("--N", type=int, required=True, dest="n_sites")
    p_demo.add_argument("--occupations", required=True, help="comma-separated level counts")
    p_demo.add_argument("--a", type=_finite_float, required=True)
    group = p_demo.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=_finite_float, default=None)
    group.add_argument("--extensive", action="store_true", help="use the order that makes the formula linear in L")
    blocks = p_demo.add_mutually_exclusive_group()
    blocks.add_argument("--sweep-L", action="store_true", dest="sweep_l")
    blocks.add_argument("--L", type=int, default=None, dest="block")
    p_demo.add_argument("--output", "-o", default=None)
    p_demo.set_defaults(handler=_lmg_demo)


# every command, in the order of `gek --help`: its help line and the function that adds its options
_COMMANDS = {
    "entropy": ("evaluate entropies on distributions", _entropy_options),
    "verify": ("run property suites, JSON report, exit 0 iff all pass", _verify_options),
    "series": ("exact series tools", _series_options),
    "grouplaw": ("exact group-law expansions", _grouplaw_options),
    "log": ("evaluate the generalized logarithm", _log_exp_options),
    "exp": ("evaluate the generalized exponential", _log_exp_options),
    "chi": ("evaluate the two-argument group law", _chi_options),
    "extensivity": ("phase-space growth laws", _extensivity_options),
    "qentropy": ("entropies of density matrices", _qentropy_options),
    "lmg": ("symmetric-state block entanglement demo", _lmg_options),
}


@lru_cache(maxsize=len(_COMMANDS) + 1)
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The gek parser; every command is named, but only ``command``'s options are added (all when None).

    Built once per command in a process: parsing reads a parser and changes
    nothing in it, so every ``main`` call of one command shares its tree.
    """
    parser = argparse.ArgumentParser(prog="gek", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, add_options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            add_options(p)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse argv; each command's handler validates its own options.

    argparse dispatches on the first token, so only that command's options are
    built; any other first token (``--help``, a typo) gets the whole tree.
    """
    argv = list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    return _build_parser(command).parse_args(argv)


def _resolve_seed(flag_value) -> int:
    source, seed = "--seed", flag_value
    if seed is None:
        source = "GEK_SEED"
        try:
            seed = int(os.environ.get("GEK_SEED", "0"))
        except ValueError as exc:
            raise InputError("GEK_SEED must be an integer") from exc
    if seed < 0:
        raise InputError(f"{source} must be at least 0")
    return seed


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


# ---------------------------------------------------------------------------
# handlers: one per command, each validating its own options before any output


def _entropy_eval(args: argparse.Namespace) -> tuple[int, str]:
    from .entropy import entropy_spec

    spec = entropy_spec(args.family, _float_params(args.params))  # before --dist: a bad spec is refused cold
    return 0, _fmt(spec.value(_load_distribution(args.dist))) + "\n"


def _entropy_sweep(args: argparse.Namespace) -> tuple[int, str]:
    params = _float_params(args.params)
    name, values = _parse_sweep(args.param)
    if name in params:
        raise InputError(f"parameter {name!r} is given by both --params and --param")
    from .entropy import entropy_spec

    entropy_spec(args.family, {**params, name: values[0]})  # before --dist: a bad family or --params is refused cold
    dist = _load_distribution(args.dist)
    if len(values) * dist.size > MAX_SWEEP_ENTRIES:
        raise InputError(
            f"sweep of {len(values)} points over {dist.size} outcomes has more than {MAX_SWEEP_ENTRIES} entries"
        )
    rows = []
    for v in values:
        spec = entropy_spec(args.family, {**params, name: v})
        rows.append([_fmt(v), _fmt(spec.value(dist))])
    return 0, _csv_text([name, "entropy"], rows)


def _check_order(order: int) -> None:
    if not 1 <= order <= MAX_SERIES_ORDER:
        raise InputError(f"order must lie in [1, {MAX_SERIES_ORDER}]")


def _series_invert(args: argparse.Namespace) -> tuple[int, str]:
    coeffs = [_fraction(tok, f"coefficient {tok!r}") for tok in args.coeffs.split(",") if tok.strip()]
    _check_order(args.order)
    from .series import TruncatedSeries, reversion

    inverse = reversion(TruncatedSeries.from_coeffs(coeffs, order=args.order))
    rows = [[str(k), str(c)] for k, c in enumerate(inverse.coeffs)]
    return 0, _csv_text(["degree", "value"], rows)


def _grouplaw_expand(args: argparse.Namespace) -> tuple[int, str]:
    _check_order(args.order)
    from .grouplog import group_family
    from .series import group_law_from_G

    family = group_family(args.family)
    params = {key: _fraction(value, f"parameter {key}={value!r}") for key, value in _parse_params(args.params).items()}
    series = family.carrier(*family.values(params), args.order)
    psi = group_law_from_G(series, args.order)
    rows = [[str(i), str(j), str(psi[(i, j)])] for (i, j) in psi.monomials()]
    return 0, _csv_text(["i", "j", "value"], rows)


def _log_exp_eval(args: argparse.Namespace) -> tuple[int, str]:
    from .grouplog import GroupLogarithm, eval_exp_G, eval_ln_G, group_function

    lg = GroupLogarithm(group_function(args.family, **_float_params(args.params)), gamma=args.gamma)
    evaluate = eval_ln_G if args.cmd == "log" else eval_exp_G
    return 0, _fmt(evaluate(lg, args.x)) + "\n"


def _chi_eval(args: argparse.Namespace) -> tuple[int, str]:
    from .grouplog import chi, group_function

    g = group_function(args.family, **_float_params(args.params))
    return 0, _fmt(chi(g, args.x, args.y)) + "\n"


def _verify(args: argparse.Namespace) -> tuple[int, str]:
    seed = _resolve_seed(args.seed)
    check_trials(args.trials)
    if args.tol < 0:
        raise InputError("--tol must be at least 0")
    params = _float_params(args.params)
    check_rate(args.lam)  # for every suite, also those that never use it
    from .entropy import entropy_spec
    from .growth import check_extensivity

    spec = entropy_spec(args.family, params)
    suite = args.suite
    reports: list[PropertyReport] = []
    if suite != "extensivity":  # the sampled suites reduce vectors, so they alone load numpy
        from .properties import check_composability, check_schur_concavity, check_sk_axioms

        if suite in ("composability", "all"):
            reports.append(check_composability(spec, args.trials, args.tol, seed))
        if suite in ("sk", "all"):
            reports.extend(check_sk_axioms(spec, args.trials, seed))
        if suite in ("schur", "all"):
            reports.extend(check_schur_concavity(spec, args.trials, seed))
    if suite == "extensivity" or (suite == "all" and spec.growth is not None):
        reports.extend(check_extensivity(spec, args.lam, args.tol, seed))
    all_passed = all(r.passed for r in reports)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "family": spec.family,
        "params": params,
        "regime": spec.regime,
        "suite": suite,
        "seed": seed,
        "trials": args.trials,
        "tol": args.tol,
        "properties": [r.as_dict() for r in reports],
        "all_passed": all_passed,
    }
    return (0 if all_passed else 1), _dump_json(payload)


def _extensivity_solve(args: argparse.Namespace) -> tuple[int, str]:
    check_rate(args.lam)
    check_horizon(args.horizon)
    params = _float_params(args.params)
    from .entropy import entropy_spec
    from .growth import check_extensivity, sample_grid, solve_growth_law

    spec = entropy_spec(args.family, params)
    payload = {"schema_version": SCHEMA_VERSION, "family": spec.family, "params": params}
    if spec.growth != "group":  # check_extensivity raises for a family without a growth law
        (report,) = check_extensivity(spec, args.lam)
        description = f"W(N) = N^{_fmt(report.witness['rho'])}"
        payload.update(kind=spec.growth, description=description, valid=report.passed, samples=[])
        return 0 if report.passed else 1, _dump_json(payload)
    law = solve_growth_law(spec, args.lam, horizon=args.horizon)
    samples = []
    for n in sample_grid(args.horizon, 9):
        try:
            lw = law.log_w(float(n))
        except GekError:
            break
        if not math.isfinite(lw):  # JSON has no inf; W past a float's range ends the samples too
            break
        samples.append({"N": n, "log_w": lw, "w": math.exp(lw) if lw < 709 else None})
    payload.update(
        lam=args.lam, kind=law.kind, description=law.describe(), valid=law.valid, restricted=law.restricted,
        samples=samples,
    )
    return 0 if law.valid else 1, _dump_json(payload)


def _qentropy_eval(args: argparse.Namespace) -> tuple[int, str]:
    family = "boltzmann" if args.family.lower() in ("vn", "von_neumann") else args.family
    from .entropy import entropy_spec

    spec = entropy_spec(family, _float_params(args.params))
    rho = _load_density_matrix(args.rho)
    # spectra sum to 1 within the eigensolver tolerance, so skip strict
    # simplex validation and evaluate the defining formula directly
    return 0, _fmt(spec.raw_value(rho.spectrum)) + "\n"


def _lmg_demo(args: argparse.Namespace) -> tuple[int, str]:
    try:
        occupations = tuple(int(tok) for tok in args.occupations.split(",") if tok.strip())
    except ValueError:
        raise InputError(f"--occupations must be comma-separated integers, got {args.occupations!r}") from None
    if 0 in occupations:
        raise ParameterError(
            "lmg demo needs every occupation > 0: a zero density makes the asymptotic value 0"
            " and the ratio undefined"
        )
    from .quantum import DickeSpec, LmgParams, dicke_reduced_density, extensive_alpha, lmg_asymptotic_za0, quantum_z_ab

    m, n_sites, a = args.m, args.n_sites, args.a
    alpha = extensive_alpha(a, m) if args.extensive else args.alpha
    if alpha <= 0:
        raise InputError(
            "the asymptotic formula needs alpha > 0; with --extensive this requires a*m > 2"
        )
    if args.sweep_l:
        blocks = range(1, n_sites // 2 + 1)
        if not blocks:
            raise InputError("--sweep-L needs --N of at least 2")
    else:
        blocks = [n_sites // 2 if args.block is None else args.block]
    rows = []
    for block in blocks:
        spec = DickeSpec(m=m, n_sites=n_sites, occupations=occupations, block=block)
        exact = quantum_z_ab(a, 0.0, alpha, dicke_reduced_density(spec))
        densities = tuple(k / n_sites for k in occupations)
        params = LmgParams(a=a, m=m, alpha=alpha, gamma=block / n_sites, densities=densities)
        asymptotic = lmg_asymptotic_za0(params, float(block))
        if asymptotic == 0:
            raise RangeError(f"the asymptotic value at L={block} underflows to 0; the ratio is undefined")
        rows.append([str(block), _fmt(exact), _fmt(asymptotic), _fmt(exact / asymptotic)])
    return 0, _csv_text(["L", "exact_entropy", "asymptotic_value", "ratio"], rows)


def run(args: argparse.Namespace) -> int:
    """Run a parsed command; writes its report and returns the exit code."""
    code, text = args.handler(args)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


def main(argv=None) -> None:
    try:
        code = run(parse_args(sys.argv[1:] if argv is None else argv))
    except GekError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
