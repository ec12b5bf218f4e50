"""The benchmark's four workloads, each one cycle of ops generated from a seed.

Every op is a timed call into gek plus an untimed check against an answer
from ``known``.  A cycle always holds the same op kinds in the same order; the
seed only picks parameters and input contents.  Runs are made of whole
cycles, and the percentiles are taken over the ops of one cycle (each at its
median over the repetitions), so they are over the same ops on every seed.
In the 13-op cycles of spectra-sweep and exact-series the median is the 7th
op by cost, well apart from its neighbours, and the 90th percentile lies
between the two costliest ops.

Only the standard library is imported at module level: the cli-oneshot
worker never imports numpy or gek itself, so its memory and set-up are the
caller's share of a command-line run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import known
from known import FAIL, OK


@dataclass
class Verdict:
    status: str
    detail: str = ""
    trials: int = 1  # work items the op completed; property trials on verify-trials


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Workload:
    name: str
    ops: list  # one cycle
    warmup: Callable[[], None]
    launcher: Launcher | None = None  # cli-oneshot only


def _rational(rng: random.Random) -> Fraction:
    """+-5/13: the seed picks the sign only.

    The cost of exact series arithmetic depends on the parameters' bit sizes
    and on how the coefficients cancel, by up to 2x between values as alike
    as 5/13 and 7/11; a sign flip changes neither, so every seed costs the same.
    """
    return Fraction(5, 13) * rng.choice((-1, 1))


ABEL = (Fraction(5, 13), Fraction(-7, 11))  # a > 0 > b, fixed for the same reason


# ---------------------------------------------------------------------------
# cli-oneshot: one real gek process per op


class Launcher:
    """Starts one gek process per call; the worker swaps the prefix for the traced run."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.prefix = [sys.executable, "-c", "from gek.cli import main; main()"]
        self.extra_env: dict = {}

    def __call__(self, argv: list) -> subprocess.CompletedProcess:
        env = dict(self.env, **self.extra_env)
        return subprocess.run(self.prefix + argv, env=env, capture_output=True, text=True, timeout=60)


def _floats_csv(text: str) -> list[list[float]]:
    return [[float(v) for v in line.split(",")] for line in text.strip().splitlines()[1:]]


def _cli_check(expect_rc: int, body: Callable[[str], str | None]):
    """Wrap a stdout check: exit code and no traceback first, then ``body`` returns an error or None."""

    def check(proc) -> Verdict:
        if "Traceback" in proc.stderr:
            return Verdict(FAIL, f"traceback: {proc.stderr.strip().splitlines()[-1]}")
        if proc.returncode != expect_rc:
            return Verdict(FAIL, f"exit {proc.returncode}, expected {expect_rc}: {proc.stderr.strip()[:200]}")
        problem = body(proc.stdout)
        return Verdict(FAIL, problem) if problem else Verdict(OK)

    return check


def _scalar(want: float, rel: float = 1e-12):
    def body(out: str):
        got = float(out)
        return None if known.close(got, want, rel=rel) else f"got {got!r}, want {want!r}"

    return body


def _exact_csv(want: dict, width: int):
    def body(out: str):
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        got = {tuple(int(v) for v in r[:width]): Fraction(r[width]) for r in rows}
        wrong = {k: (v, want.get(k, 0)) for k, v in got.items() if v != want.get(k, 0)}
        missing = [k for k in want if k not in got]
        if wrong or missing:
            return f"wrong coefficients {dict(list(wrong.items())[:3])}, missing {missing[:3]}"
        return None

    return body


def _verify_body(expect_pass: bool):
    def body(out: str):
        status, detail = known.verify_verdict(0 if expect_pass else 1, json.loads(out), expect_pass)
        return None if status == OK else detail

    return body


def _probe_check(probe):
    def check(proc) -> Verdict:
        status, detail = known.classify_probe(probe, proc.returncode, proc.stdout, proc.stderr)
        return Verdict(status, detail)

    return check


def _write_matrix(path: str, rng: random.Random) -> list[float]:
    """A complex Hermitian density matrix with a seeded spectrum (one zero eigenvalue).

    U is a Gram-Schmidt orthonormalised random complex basis; only the upper
    triangle of U diag(lam) U^H is computed, the lower one is its conjugate,
    so the file is exactly Hermitian.
    """
    dim = rng.randint(3, 6)
    weights = [rng.uniform(0.1, 1.0) for _ in range(dim - 1)] + [0.0]
    lam = [w / math.fsum(weights) for w in weights]
    basis: list[list[complex]] = []
    while len(basis) < dim:
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
        for u in basis:
            dot = sum(ui.conjugate() * vi for ui, vi in zip(u, v))
            v = [vi - dot * ui for ui, vi in zip(u, v)]
        norm = math.sqrt(sum(abs(vi) ** 2 for vi in v))
        basis.append([vi / norm for vi in v])
    rho = [[0j] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rho[i][j] = sum(l * u[i] * u[j].conjugate() for l, u in zip(lam, basis))
            rho[j][i] = rho[i][j].conjugate()
        rho[i][i] = complex(rho[i][i].real, 0.0)
    with open(path, "w") as handle:
        for row in rho:
            handle.write(" ".join(f"{z.real!r},{z.imag!r}" for z in row) + "\n")
    return lam


def cli_oneshot(seed: int, workdir: str, env: dict) -> Workload:
    rng = random.Random(seed)
    launch = Launcher(env)
    ops: list[Op] = []

    def add(name: str, argv: list, check) -> None:
        ops.append(Op(name, lambda argv=argv: launch(argv), check))

    w = rng.randint(2, 64)
    alpha = rng.choice([0.3, 0.5, 0.7, 2.0])
    add("entropy-eval-renyi", ["entropy", "eval", "--family", "renyi", "--params", f"alpha={alpha}", "--dist", f"u{w}"],
        _cli_check(0, _scalar(math.log(w))))

    w_sweep = rng.randint(2, 64)

    def sweep_body(out: str):
        rows = _floats_csv(out)
        grid = [0.1 + 0.2 * i for i in range(5)]
        if len(rows) != len(grid):
            return f"{len(rows)} sweep rows, want {len(grid)}"
        for (a, value), want_a in zip(rows, grid):
            want = known.uniform_entropy("zq", {"q": 0.5, "alpha": want_a}, w_sweep)
            if not (known.close(a, want_a) and known.close(value, want)):
                return f"row alpha={a}: {value!r}, want {want!r}"
        return None

    add("entropy-sweep-zq", ["entropy", "sweep", "--family", "zq", "--params", "q=0.5", "--param", "alpha=0.1:0.9:0.2",
                             "--dist", f"u{w_sweep}"], _cli_check(0, sweep_body))

    abel = {"a": 0.3, "b": -0.2}
    x_log = rng.uniform(0.5, 8.0)
    add("log-eval-abel", ["log", "eval", "--family", "abel", "--params", "a=0.3,b=-0.2", "--x", repr(x_log)],
        _cli_check(0, _scalar(known.g_eval("abel", abel, math.log(x_log)))))
    x_exp = rng.uniform(-1.0, 3.0)

    def exp_abel_body(out: str):
        y = float(out)
        back = known.g_eval("abel", abel, math.log(y))
        return None if known.close(back, x_exp, rel=1e-12, abs_tol=1e-12) else f"G(ln {y!r}) = {back!r}, want {x_exp!r}"

    add("exp-eval-abel", ["exp", "eval", "--family", "abel", "--params", "a=0.3,b=-0.2", "--x", repr(x_exp)],
        _cli_check(0, exp_abel_body))
    cx, cy = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
    add("chi-eval-abel", ["chi", "eval", "--family", "abel", "--params", "a=0.3,b=-0.2", "--x", repr(cx), "--y", repr(cy)],
        _cli_check(0, _scalar(known.g_chi("abel", abel, cx, cy), rel=1e-11)))

    q = rng.choice([0.3, 0.5, 1.5])
    ts = {"q": q}
    tx = rng.uniform(0.5, 8.0)
    add("log-eval-tsallis", ["log", "eval", "--family", "tsallis", "--params", f"q={q}", "--x", repr(tx)],
        _cli_check(0, _scalar(known.g_eval("tsallis", ts, math.log(tx)))))

    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    order = rng.randint(4, 6)
    inverse = {(n,): v for n, v in enumerate(known.quadratic_inverse(c, order))}
    add("series-invert", ["series", "invert", "--coeffs", f"0,1,{c}", "--order", str(order)],
        _cli_check(0, _exact_csv(inverse, 1)))

    qf = 1 - _rational(rng)
    add("grouplaw-expand-tsallis", ["grouplaw", "expand", "--family", "tsallis", "--params", f"q={qf}", "--order", str(order)],
        _cli_check(0, _exact_csv(known.law_tsallis(1 - qf, order), 2)))

    ext_alpha = rng.choice([0.3, 0.5, 0.7])

    def extensivity_body(out: str):
        report = json.loads(out)
        rc = (1.0 - 0.5) * (1.0 - ext_alpha)
        if report["kind"] != "group" or report["valid"] is not True or len(report["samples"]) != 9:
            return f"growth law {report['kind']}, valid={report['valid']}, {len(report['samples'])} samples"
        for sample in report["samples"]:
            want = math.log1p(rc * sample["N"]) / rc
            if not known.close(sample["log_w"], want):
                return f"log W({sample['N']}) = {sample['log_w']!r}, want {want!r}"
        return None

    add("extensivity-solve-zq", ["extensivity", "solve", "--family", "zq", "--params", f"q=0.5,alpha={ext_alpha}"],
        _cli_check(0, extensivity_body))

    matrix = os.path.join(workdir, "rho.txt")
    lam = _write_matrix(matrix, rng)
    vn = -math.fsum(l * math.log(l) for l in lam if l > 0)
    add("qentropy-eval-vn", ["qentropy", "eval", "--rho", matrix, "--family", "vn"], _cli_check(0, _scalar(vn, rel=1e-11)))

    k_up = rng.randint(2, 12)
    a_lmg = 2.2
    alpha_ext = known.extensive_alpha(a_lmg, 1)
    exact = known.z_a0(a_lmg, alpha_ext, known.dicke_weights((k_up, 14 - k_up), 7))
    asym = known.lmg_asymptotic(a_lmg, 1, alpha_ext, 0.5, (k_up / 14, (14 - k_up) / 14), 7.0)

    def lmg_body(out: str):
        rows = _floats_csv(out)
        if len(rows) != 1:
            return f"{len(rows)} rows, want 1"
        block, got_exact, got_asym, ratio = rows[0]
        ok = block == 7 and known.close(got_exact, exact, rel=1e-10) and known.close(got_asym, asym, rel=1e-12)
        ok = ok and known.close(ratio, exact / asym, rel=1e-10)
        return None if ok else f"row {rows[0]}, want exact {exact!r}, asymptotic {asym!r}"

    add("lmg-demo", ["lmg", "demo", "--m", "1", "--N", "14", "--occupations", f"{k_up},{14 - k_up}", "--a", "2.2",
                     "--extensive"], _cli_check(0, lmg_body))

    vseed = str(rng.randrange(2**31))
    add("verify-control", ["verify", "--family", "control", "--trials", "20", "--seed", vseed],
        _cli_check(1, _verify_body(False)))
    bad = rng.choice([
        ["verify", "--family", "zq", "--params", "q=0.5,alpha=-1"],
        ["verify", "--family", "nosuch"],
        ["entropy", "eval", "--family", "renyi", "--params", "alpha=0.5", "--dist", "0.5,0.6"],
    ])

    def bad_input_body(out: str):
        return None if out == "" else "bad input wrote a result"

    add("bad-input", bad, _cli_check(2, bad_input_body))
    for probe in known.PROBES:
        ops.append(Op("probe-" + probe[0], lambda argv=probe[1]: launch(argv), _probe_check(probe)))

    def warmup() -> None:
        launch(["entropy", "eval", "--family", "renyi", "--params", "alpha=0.5", "--dist", "u4"])

    return Workload("cli-oneshot", ops, warmup, launch)


# ---------------------------------------------------------------------------
# verify-trials: 'gek verify --suite all --trials 1000' through gek.cli.main, in-process

VERIFY_FAMILIES = [
    ("renyi", "alpha={alpha}", True, None),
    ("zq", "q=0.5,alpha={alpha}", True, None),
    ("zk", "k=0.3,alpha={alpha}", True, None),
    ("zab", "a=0.3,b=-0.2,alpha={alpha}", True, None),
    ("zg", "g=kaniadakis,k=0.4,alpha={alpha}", True, None),
    ("zg", "g=abel,a=0.3,b=-0.2,alpha={alpha}", True, None),
    ("tsallis_aq", "a=0.8,q=0.5", True, None),
    ("control", "", False, None),
    ("zg", "g=abel,a=2,b=1,alpha={alpha}", True, "zg-abel-2-1"),
]


def _call_main(argv: list) -> tuple[int, str, str]:
    from gek import cli

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def verify_trials(seed: int, workdir: str, env: dict) -> Workload:
    import gek.cli  # noqa: F401  (set-up cost belongs before the first op)

    rng = random.Random(seed)
    ops, argvs = [], []
    for family, template, expect_pass, defect in VERIFY_FAMILIES:
        alpha = rng.choice([0.3, 0.5, 0.7])
        op_seed = rng.randrange(2**31)
        argv = ["verify", "--family", family, "--suite", "all", "--trials", "1000", "--seed", str(op_seed)]
        params = template.format(alpha=alpha)
        if params:
            argv += ["--params", params]
        argvs.append(argv)

        def check(result, family=family, expect_pass=expect_pass, defect=defect, op_seed=op_seed) -> Verdict:
            rc, out, err = result
            if "Traceback" in err:
                return Verdict(FAIL, f"{family}: traceback")
            report = json.loads(out) if out else None
            status, detail = known.verify_verdict(rc, report, expect_pass, defect)
            if report is not None and status != FAIL:
                shape = (report["schema_version"], report["family"], report["suite"], report["trials"], report["seed"])
                if shape != ("1", family, "all", 1000, op_seed):
                    return Verdict(FAIL, f"{family}: report header {shape}")
            trials = sum(p["trials"] for p in report["properties"]) if report else 0
            return Verdict(status, f"{family}: {detail}" if status == FAIL else detail, trials)

        ops.append(Op(f"verify-{family}-{params}", lambda argv=argv: _call_main(argv), check))

    def warmup() -> None:
        for argv in argvs:
            _call_main([tok if tok != "1000" else "10" for tok in argv])

    return Workload("verify-trials", ops, warmup)


# ---------------------------------------------------------------------------
# spectra-sweep: few calls on large inputs, scalar G^-1 grids, Dicke spectra

ALPHAS = (0.3, 0.6, 1.5, 2.5)
GROUPS = [("id", {}), ("tsallis", {"q": 0.5}), ("kaniadakis", {"k": 0.4}), ("abel", {"a": 0.3, "b": -0.2})]
X_GRID = [0.1 + 0.6 * i for i in range(16)]  # ln_G arguments, x > 0
S_GRID = [-0.9 + 0.4 * i for i in range(16)]  # exp_G arguments, inside every G's range
PAIRS = [(0.2 + 0.3 * i, 1.7 - 0.2 * i) for i in range(8)]
DIST_SIZES = (1_000, 3_000, 10_000, 100_000, 300_000, 1_000_000)
MATRIX_DIMS = (32, 64, 128, 256)


def _family_specs() -> list[tuple[str, dict, dict]]:
    """(family, gek params, known params) for every family over the alpha grid."""
    specs = [("boltzmann", {}, {}), ("tsallis_aq", {"a": 0.8, "q": 0.5}, {"a": 0.8, "q": 0.5}),
             ("landsberg_vedral", {"q": 0.6}, {"q": 0.6})]
    for alpha in ALPHAS:
        specs += [
            ("renyi", {"alpha": alpha}, {"alpha": alpha}),
            ("zq", {"q": 0.5, "alpha": alpha}, {"q": 0.5, "alpha": alpha}),
            ("zk", {"k": 0.3, "alpha": alpha}, {"k": 0.3, "alpha": alpha}),
            ("zab", {"a": 0.3, "b": -0.2, "alpha": alpha}, {"a": 0.3, "b": -0.2, "alpha": alpha}),
        ]
        for family, kind, gp in (("zg", "tsallis", {"q": 0.5}), ("zg", "kaniadakis", {"k": 0.4}),
                                 ("zg", "abel", {"a": 0.3, "b": -0.2}), ("altz", "kaniadakis", {"k": 0.4})):
            specs.append((family, dict(gp, g=kind, alpha=alpha), {"alpha": alpha, "g": (kind, gp)}))
    return specs


GROWTH = [("renyi", {"alpha": 0.5}), ("zq", {"q": 0.5, "alpha": 0.5}), ("zk", {"k": 0.3, "alpha": 0.5}),
          ("zab", {"a": 0.3, "b": -0.2, "alpha": 0.5})]
GROWTH_G = {"renyi": ("id", {}), "zq": ("tsallis", {"q": 0.5}), "zk": ("kaniadakis", {"k": 0.3}),
            "zab": ("abel", {"a": 0.3, "b": -0.2})}


def _scalar_sweep(gek):
    """eval_ln_G / eval_exp_G / chi over fixed grids for each G, and the growth laws."""
    out = []
    for kind, gp in GROUPS:
        g = gek.group_function(kind, **gp)
        lg = gek.GroupLogarithm(g)
        out.append(([gek.eval_ln_G(lg, x) for x in X_GRID], [gek.eval_exp_G(lg, s) for s in S_GRID],
                    [gek.chi(g, x, y) for x, y in PAIRS]))
    laws = []
    for family, params in GROWTH:
        law = gek.solve_growth_law(gek.entropy_spec(family, params), 1.0)
        laws.append((law.valid, [law.log_w(n) for n in (1.0, 10.0, 1e3, 1e4)]))
    return out, laws


def _check_scalar_sweep(result) -> str | None:
    grids, laws = result
    for (kind, gp), (logs, exps, chis) in zip(GROUPS, grids):
        for x, v in zip(X_GRID, logs):
            if not known.close(v, known.g_eval(kind, gp, math.log(x))):
                return f"ln_G {kind}({x}) = {v!r}"
        for s, y in zip(S_GRID, exps):
            if not known.close(known.g_eval(kind, gp, math.log(y)), s, rel=1e-12, abs_tol=1e-12):
                return f"exp_G {kind}({s}) = {y!r}"
        for (x, y), v in zip(PAIRS, chis):
            if not known.close(v, known.g_chi(kind, gp, x, y), rel=1e-11):
                return f"chi {kind}({x}, {y}) = {v!r}"
    for (family, params), (valid, log_ws) in zip(GROWTH, laws):
        kind, gp = GROWTH_G[family]
        c = 1.0 - params["alpha"]
        for n, lw in zip((1.0, 10.0, 1e3, 1e4), log_ws):
            if not (valid and known.close(known.g_eval(kind, gp, c * lw) / c, n, rel=1e-11)):
                return f"growth law {family}: log W({n}) = {lw!r}, valid={valid}"
    return None


def _level_distribution(np_rng, size: int):
    """A shuffled vector of ``size`` entries taking 8 seeded levels, one of them zero."""
    import numpy as np

    counts = np_rng.multinomial(size - 8, np.full(8, 1 / 8)) + 1
    weights = np_rng.uniform(0.2, 5.0, size=8)
    weights[0] = 0.0
    values = weights / float(np.dot(counts, weights))
    vec = np.repeat(values, counts)
    np_rng.shuffle(vec)
    return vec, known.LevelSums(values.tolist(), counts.tolist())


def _density_entries(np_rng, dim: int):
    """U diag(lam) U^H for a random unitary U and a seeded spectrum with three zeros."""
    import numpy as np

    lam = np_rng.uniform(0.1, 1.0, size=dim)
    lam[:3] = 0.0
    lam /= lam.sum()
    z = np_rng.normal(size=(dim, dim)) + 1j * np_rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(z)
    a = (u * lam) @ u.conj().T
    return (a + a.conj().T) / 2, known.LevelSums(lam.tolist(), [1] * dim)


def spectra_sweep(seed: int, workdir: str, env: dict) -> Workload:
    import numpy as np

    import gek

    np_rng = np.random.default_rng(seed)
    rng = random.Random(seed)
    specs = _family_specs()
    ops = []

    def check_values(values, sums) -> str | None:
        for (family, _gp, kp), v in zip(specs, values):
            want = sums.entropy(family, kp)
            if not known.close(v, want, rel=1e-9, abs_tol=1e-12):
                return f"{family} {kp}: {v!r}, want {want!r}"
        return None

    def make_check(sums):
        def check(result) -> Verdict:
            values, scalars = result
            problem = check_values(values, sums) or _check_scalar_sweep(scalars)
            return Verdict(FAIL, problem) if problem else Verdict(OK)

        return check

    for size in DIST_SIZES:
        vec, sums = _level_distribution(np_rng, size)

        def run(vec=vec):
            dist = gek.Distribution(vec)
            values = [gek.entropy_spec(f, gp).value(dist) for f, gp, _kp in specs]
            return values, _scalar_sweep(gek)

        ops.append(Op(f"distribution-{size}", run, make_check(sums)))

    for dim in MATRIX_DIMS:
        entries, sums = _density_entries(np_rng, dim)

        def run(entries=entries):
            rho = gek.DensityMatrix(entries)
            values = [gek.entropy_spec(f, gp).raw_value(rho.spectrum) for f, gp, _kp in specs]
            return values, _scalar_sweep(gek)

        ops.append(Op(f"density-{dim}", run, make_check(sums)))

    occ3 = [1, 1, 1]
    for _ in range(7):
        occ3[rng.randrange(3)] += 1
    # m=1 sweeps every block size like 'gek lmg demo --sweep-L'; m=2 (a 3^10 dense oracle) keeps one block,
    # of a fixed size because the block size sets the cost: the seed picks the occupations only
    dicke = [(1, (k, 14 - k), range(1, 8)) for k in (rng.randint(2, 6), rng.randint(8, 12))]
    dicke.append((2, tuple(occ3), [4]))
    for m, occupations, blocks in dicke:
        n_sites = sum(occupations)
        alpha = known.extensive_alpha(2.2, m)
        densities = tuple(k / n_sites for k in occupations)
        weights = [[float(w) for w in known.dicke_weights(occupations, block)] for block in blocks]
        wants = [(known.z_a0(2.2, alpha, w), known.lmg_asymptotic(2.2, m, alpha, b / n_sites, densities, float(b)))
                 for w, b in zip(weights, blocks)]

        def run(m=m, occupations=occupations, n_sites=n_sites, alpha=alpha, densities=densities, blocks=blocks):
            rows = []
            for block in blocks:
                spec = gek.DickeSpec(m=m, n_sites=n_sites, occupations=occupations, block=block)
                closed = gek.dicke_reduced_density(spec)
                dense = gek.dicke_reduced_density_dense(spec)
                exact = gek.quantum_z_ab(2.2, 0.0, alpha, closed)
                params = gek.LmgParams(a=2.2, m=m, alpha=alpha, gamma=block / n_sites, densities=densities)
                asym = gek.lmg_asymptotic_za0(params, float(block))
                rows.append((closed.spectrum, dense.spectrum, exact, asym, exact / asym))
            return rows

        def check(rows, weights=weights, wants=wants) -> Verdict:
            for (closed, dense, exact, asym, ratio), w, (want_exact, want_asym) in zip(rows, weights, wants):
                for label, spectrum in (("closed", closed), ("dense", dense)):
                    top = [float(v) for v in spectrum[: len(w)]]
                    rest = [float(v) for v in spectrum[len(w):]]
                    if any(abs(x - y) > 1e-12 for x, y in zip(top, w)) or any(abs(v) > 1e-12 for v in rest):
                        return Verdict(FAIL, f"{label} Dicke spectrum differs from the hypergeometric weights")
                ok = known.close(exact, want_exact, rel=1e-10) and known.close(asym, want_asym, rel=1e-12)
                if not (ok and known.close(ratio, want_exact / want_asym, rel=1e-10)):
                    return Verdict(FAIL, f"entropy {exact!r}/{asym!r}, want {want_exact!r}/{want_asym!r}")
            return Verdict(OK) if len(rows) == len(wants) else Verdict(FAIL, f"{len(rows)} blocks")

        ops.append(Op(f"dicke-m{m}-{'-'.join(map(str, occupations))}", run, check))

    def warmup() -> None:
        small, _ = _level_distribution(np.random.default_rng(seed + 1), 64)
        dist = gek.Distribution(small)
        for f, gp, _kp in specs:
            gek.entropy_spec(f, gp).value(dist)
        _scalar_sweep(gek)
        gek.DensityMatrix(_density_entries(np.random.default_rng(seed + 1), 8)[0])
        gek.dicke_reduced_density_dense(gek.DickeSpec(m=1, n_sites=6, occupations=(3, 3), block=3))

    return Workload("spectra-sweep", ops, warmup)


# ---------------------------------------------------------------------------
# exact-series: Fraction arithmetic in gek.series

REVERSIONS = [("tsallis", 8), ("kaniadakis", 12), ("abel", 12), ("kaniadakis", 20), ("abel", 16), ("tsallis", 20),
              ("abel", 22)]
LAWS = [("id", 6), ("abel", 6), ("tsallis", 8), ("abel", 10), ("abel", 12)]
NONLAW_ORDER = 10


def exact_series(seed: int, workdir: str, env: dict) -> Workload:
    from gek import series

    rng = random.Random(seed)
    ops = []

    def carrier(kind: str, order: int):
        """(gek carrier, bench carrier coefficients, known inverse or None, known law)."""
        if kind == "id":
            return series.identity_series(order), [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1), None, \
                known.law_tsallis(Fraction(0), order)
        if kind == "tsallis":
            r = _rational(rng)
            return series.tsallis_exp_series(1 - r, order), known.tsallis_carrier(r, order), \
                known.tsallis_inverse(r, order), known.law_tsallis(r, order)
        if kind == "kaniadakis":
            k = _rational(rng)
            return series.kaniadakis_exp_series(k, order), known.kaniadakis_carrier(k, order), \
                known.kaniadakis_inverse(k, order), known.law_kaniadakis(k, order)
        a, b = ABEL
        return series.abel_exp_series(a, b, order), known.abel_carrier(a, b, order), None, known.law_abel(a, b, order)

    for kind, order in REVERSIONS:
        g, coeffs, inverse, _law = carrier(kind, order)

        def check(result, g=g, coeffs=coeffs, inverse=inverse) -> Verdict:
            got = list(result.coeffs)
            if list(g.coeffs) != coeffs:
                return Verdict(FAIL, "carrier expansion differs from its closed form")
            ok = got == inverse if inverse is not None else known.composes_to_identity(coeffs, got)
            return Verdict(OK) if ok else Verdict(FAIL, f"reversion coefficients wrong: {got[:4]}")

        ops.append(Op(f"reversion-{kind}-o{order}", lambda g=g: series.reversion(g), check))

    for kind, order in LAWS:
        g, coeffs, _inverse, law = carrier(kind, order)

        def run(g=g, order=order):
            psi = series.group_law_from_G(g, order)
            return psi, series.verify_group_axioms(psi)

        def check(result, g=g, coeffs=coeffs, law=law) -> Verdict:
            psi, report = result
            if list(g.coeffs) != coeffs:
                return Verdict(FAIL, "carrier expansion differs from its closed form")
            if dict(psi.coeffs) != law:
                return Verdict(FAIL, "group-law coefficients differ from the closed form")
            return Verdict(OK) if report.all_pass else Verdict(FAIL, f"axioms failed: {report.first_failure}")

        ops.append(Op(f"grouplaw-{kind}-o{order}", run, check))

    r, eps = _rational(rng), _rational(rng)
    perturbed = {(1, 0): 1, (0, 1): 1, (1, 1): r, (2, 2): eps}

    def run_nonlaw():
        return series.verify_group_axioms(series.BivariateTruncatedSeries(perturbed, NONLAW_ORDER))

    def check_nonlaw(report) -> Verdict:
        # x + y + r xy + eps x^2 y^2: associativity first breaks at x y z^2 (2 eps against 0)
        ok = report.identity and report.commutativity and not report.associativity
        ok = ok and report.first_failure.get("associativity", (None,))[0] == (1, 1, 2)
        return Verdict(OK) if ok else Verdict(FAIL, f"perturbed law verdict {report}")

    ops.append(Op(f"nonlaw-o{NONLAW_ORDER}", run_nonlaw, check_nonlaw))

    def warmup() -> None:
        g = series.tsallis_exp_series(Fraction(1, 2), 6)
        series.reversion(g)
        series.verify_group_axioms(series.group_law_from_G(g, 4))

    return Workload("exact-series", ops, warmup)


BUILDERS = {
    "cli-oneshot": cli_oneshot,
    "verify-trials": verify_trials,
    "spectra-sweep": spectra_sweep,
    "exact-series": exact_series,
}
