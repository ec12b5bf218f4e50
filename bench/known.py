"""Known answers for the benchmark, computed without calling gek.

Every expected value here comes from a closed form written out from the
definitions (uniform entropies, power sums of level-structured vectors,
inverse-series coefficients, group-law coefficients, hypergeometric block
weights, the large-block formula) or from a check that does not reuse gek's
code path (bisection for a numeric G^-1, exact composition f(g(s)) = s).

The module also holds the exit-code probes: argv whose *contract* answer is
fixed by the documented exit-code contract (0 pass, 1 property failed,
2 bad input, never a traceback), together with the signature each one shows
at the seed commit, where it is a known defect.
"""

from __future__ import annotations

import math
from fractions import Fraction

OK, DEFECT, FAIL = "ok", "defect", "fail"  # verdict of one op

# ---------------------------------------------------------------------------
# group functions G, written out from their definitions


def g_eval(kind: str, p: dict, t: float) -> float:
    if kind == "id":
        return t
    if kind == "tsallis":
        r = 1.0 - p["q"]
        return math.expm1(r * t) / r
    if kind == "kaniadakis":
        return math.sinh(p["k"] * t) / p["k"]
    if kind == "abel":
        a, b = p["a"], p["b"]
        return (math.exp(a * t) - math.exp(b * t)) / (a - b)
    raise KeyError(kind)


def g_inverse(kind: str, p: dict, s: float) -> float:
    """G^-1 by closed form, or by bisection on the increasing abel G."""
    if kind == "id":
        return s
    if kind == "tsallis":
        r = 1.0 - p["q"]
        return math.log1p(r * s) / r
    if kind == "kaniadakis":
        return math.asinh(p["k"] * s) / p["k"]
    lo, hi = -1.0, 1.0
    while g_eval(kind, p, lo) > s:
        lo *= 2.0
    while g_eval(kind, p, hi) < s:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if g_eval(kind, p, mid) < s:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def g_chi(kind: str, p: dict, x: float, y: float) -> float:
    if kind == "id":
        return x + y
    if kind == "tsallis":
        return x + y + (1.0 - p["q"]) * x * y
    if kind == "kaniadakis":
        k2 = p["k"] ** 2
        return x * math.sqrt(1.0 + k2 * y * y) + y * math.sqrt(1.0 + k2 * x * x)
    return g_eval(kind, p, g_inverse(kind, p, x) + g_inverse(kind, p, y))


# ---------------------------------------------------------------------------
# entropies from power sums


def entropy_from_sums(family: str, p: dict, power_sum, shannon: float) -> float:
    """Closed-form entropy given S(alpha) = sum_i p_i^alpha and -sum p ln p.

    Group-backed families carry their G as ``p["g"] = (kind, gparams)``.
    """
    if family == "boltzmann":
        return shannon
    if family == "tsallis_aq":
        a, q = p["a"], p["q"]
        return (1.0 - power_sum(a * (q - 1.0) + 1.0)) / (q - 1.0)
    if family == "landsberg_vedral":
        s = power_sum(p["q"])
        return (1.0 - s) / ((p["q"] - 1.0) * s)
    alpha = p["alpha"]
    c = 1.0 - alpha
    s = power_sum(alpha)
    if family == "renyi":
        return math.log(s) / c
    if family == "zq":
        return (s ** (1.0 - p["q"]) - 1.0) / ((1.0 - p["q"]) * c)
    if family == "zk":
        k = p["k"]
        return (s**k - s**-k) / (2.0 * k * c)
    if family == "zab":
        a, b = p["a"], p["b"]
        return (s**a - s**b) / ((a - b) * c)
    kind, gp = p["g"]
    if family == "zg":
        return g_eval(kind, gp, math.log(s)) / c
    if family == "altz":
        return g_eval(kind, gp, math.log(s) / c)
    raise KeyError(family)


def uniform_entropy(family: str, p: dict, w: int) -> float:
    ln_w = math.log(w)
    return entropy_from_sums(family, p, lambda e: math.exp((1.0 - e) * ln_w), ln_w)


class LevelSums:
    """Power sums of a vector made of ``counts[i]`` copies of ``values[i]``.

    Zero values are allowed and contribute nothing (0^alpha = 0, 0 ln 0 = 0),
    so the sums never touch the vector itself.
    """

    def __init__(self, values, counts):
        self.levels = [(float(v), int(c)) for v, c in zip(values, counts) if c > 0 and v > 0]

    def power_sum(self, alpha: float) -> float:
        return math.fsum(c * v**alpha for v, c in self.levels)

    def shannon(self) -> float:
        return -math.fsum(c * v * math.log(v) for v, c in self.levels)

    def entropy(self, family: str, p: dict) -> float:
        return entropy_from_sums(family, p, self.power_sum, self.shannon())


def close(got: float, want: float, rel: float = 1e-12, abs_tol: float = 1e-13) -> bool:
    return math.isfinite(got) and abs(got - want) <= abs_tol + rel * abs(want)


# ---------------------------------------------------------------------------
# exact series: inverse coefficients, group laws, composition


def tsallis_carrier(r: Fraction, order: int) -> list[Fraction]:
    """(e^(r t) - 1)/r = sum r^(n-1) t^n / n!."""
    return [Fraction(0)] + [r ** (n - 1) / math.factorial(n) for n in range(1, order + 1)]


def kaniadakis_carrier(k: Fraction, order: int) -> list[Fraction]:
    """sinh(k t)/k = sum k^(2j) t^(2j+1) / (2j+1)!."""
    out = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1, 2):
        out[n] = k ** (n - 1) / math.factorial(n)
    return out


def abel_carrier(a: Fraction, b: Fraction, order: int) -> list[Fraction]:
    """(e^(a t) - e^(b t))/(a - b) = sum h_(n-1)(a, b) t^n / n!."""
    out = [Fraction(0)]
    for n in range(1, order + 1):
        out.append(sum(a**i * b ** (n - 1 - i) for i in range(n)) / math.factorial(n))
    return out


def tsallis_inverse(r: Fraction, order: int) -> list[Fraction]:
    """log(1 + r s)/r = sum (-r)^(n-1) s^n / n."""
    return [Fraction(0)] + [(-r) ** (n - 1) / n for n in range(1, order + 1)]


def kaniadakis_inverse(k: Fraction, order: int) -> list[Fraction]:
    """asinh(k s)/k = sum (-1)^j (2j)! / (4^j (j!)^2 (2j+1)) k^(2j) s^(2j+1)."""
    out = [Fraction(0)] * (order + 1)
    for j in range((order - 1) // 2 + 1):
        coeff = Fraction((-1) ** j * math.factorial(2 * j), 4**j * math.factorial(j) ** 2 * (2 * j + 1))
        out[2 * j + 1] = coeff * k ** (2 * j)
    return out


def quadratic_inverse(c: Fraction, order: int) -> list[Fraction]:
    """Inverse of s + c s^2: (-c)^(n-1) Catalan(n-1)."""
    return [Fraction(0)] + [(-c) ** (n - 1) * math.comb(2 * n - 2, n - 1) / n for n in range(1, order + 1)]


def _mul(f: list, g: list, n: int) -> list:
    out = [Fraction(0)] * (n + 1)
    for i, fi in enumerate(f[: n + 1]):
        if fi:
            for j in range(n + 1 - i):
                if g[j]:
                    out[i + j] += fi * g[j]
    return out


def composes_to_identity(f: list, g: list) -> bool:
    """True when f(g(s)) = s exactly through the common order."""
    n = min(len(f), len(g)) - 1
    acc = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        power = _mul(power, g, n)
        for i in range(n + 1):
            acc[i] += f[k] * power[i]
    return acc == [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 1)


def law_tsallis(r: Fraction, order: int) -> dict:
    """x + y + r x y; every other coefficient is zero."""
    law = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    if order >= 2 and r:
        law[(1, 1)] = r
    return law


def law_kaniadakis(k: Fraction, order: int) -> dict:
    """x sqrt(1 + k^2 y^2) + y sqrt(1 + k^2 x^2) by the binomial series of sqrt."""
    law = {}
    for n in range(order // 2 + 1):
        if 2 * n + 1 > order:
            break
        c = _binom_half(n) * k ** (2 * n)
        if c:
            law[(1, 2 * n)] = law.get((1, 2 * n), Fraction(0)) + c
            law[(2 * n, 1)] = law.get((2 * n, 1), Fraction(0)) + c
    return law


def _binom_half(n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= (Fraction(1, 2) - i) / (i + 1)
    return out


def abel_betas(a: Fraction, b: Fraction, n: int) -> list[Fraction]:
    """beta_1 = a + b; beta_m = (-1)^(m-1)/(m! (m-1)) prod_(i+j=m-1) (i a + j b)."""
    betas = [a + b]
    for m in range(2, n + 1):
        prod = Fraction(1)
        for i in range(m):
            prod *= i * a + (m - 1 - i) * b
        betas.append(Fraction((-1) ** (m - 1), math.factorial(m) * (m - 1)) * prod)
    return betas


def law_abel(a: Fraction, b: Fraction, order: int) -> dict:
    """Only bracket monomials x y^m and x^m y, with coefficient beta_m."""
    law = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    for m, beta in enumerate(abel_betas(a, b, order - 1), start=1):
        if beta:
            law[(1, m)] = beta
            law[(m, 1)] = beta
    return law


# ---------------------------------------------------------------------------
# symmetric-state block spectra


def dicke_weights(occupations: tuple, block: int) -> list[Fraction]:
    """Multivariate hypergeometric weights prod C(k_j, l_j)/C(N, L), sorted descending."""
    n = sum(occupations)
    denom = math.comb(n, block)
    out = []

    def walk(j: int, left: int, num: int) -> None:
        if j == len(occupations) - 1:
            if left <= occupations[j]:
                out.append(Fraction(num * math.comb(occupations[j], left), denom))
            return
        for lj in range(min(left, occupations[j]) + 1):
            walk(j + 1, left - lj, num * math.comb(occupations[j], lj))

    walk(0, block, 1)
    return sorted((w for w in out if w), reverse=True)


def lmg_asymptotic(a: float, m: int, alpha: float, gamma: float, densities, block: float) -> float:
    """L^e (2 pi (1-gamma) prod x_j^(1/m))^e / (a (1-alpha) alpha^(m a/2)), e = a m (1-alpha)/2."""
    e = a * m * (1.0 - alpha) / 2.0
    dens = math.prod(x ** (1.0 / m) for x in densities)
    return block**e * (2.0 * math.pi * (1.0 - gamma) * dens) ** e / (a * (1.0 - alpha) * alpha ** (m * a / 2.0))


def extensive_alpha(a: float, m: int) -> float:
    return 1.0 - 2.0 / (a * m)


def z_a0(a: float, alpha: float, weights) -> float:
    """Order-(a, 0) group entropy of a spectrum: ((sum w^alpha)^a - 1)/(a (1 - alpha))."""
    s = math.fsum(float(w) ** alpha for w in weights if w > 0)
    return (s**a - 1.0) / (a * (1.0 - alpha))


# ---------------------------------------------------------------------------
# exit-code probes: contract answer and the signature seen at the seed commit


def _has_traceback(stderr: str) -> bool:
    return "Traceback (most recent call last)" in stderr


def _report(stdout: str):
    import json

    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _failing(report) -> set:
    return {p["property"] for p in report["properties"] if not p["passed"]} if report else {"<no report>"}


# Each probe: (id, argv, contract(rc, out, err) -> bool, seed_defect(rc, out, err) -> bool).
PROBES = [
    (
        "renyi-alpha-nan",
        ["verify", "--family", "renyi", "--params", "alpha=nan", "--suite", "composability", "--trials", "20"],
        lambda rc, out, err: rc == 2 and not _has_traceback(err),
        lambda rc, out, err: rc == 0 and (_report(out) or {}).get("all_passed") is True,
    ),
    (
        "zab-a800",
        ["verify", "--family", "zab", "--params", "a=800,b=0,alpha=0.5", "--trials", "20"],
        lambda rc, out, err: rc in (0, 1, 2) and not _has_traceback(err),
        lambda rc, out, err: rc == 1 and _has_traceback(err) and "OverflowError" in err,
    ),
    (
        "zk-alpha-inf",
        ["verify", "--family", "zk", "--params", "k=0.3,alpha=inf", "--trials", "20"],
        lambda rc, out, err: rc == 2 and not _has_traceback(err),
        lambda rc, out, err: rc == 1 and _has_traceback(err) and "ZeroDivisionError" in err,
    ),
    (
        "lmg-occupations-14-0",
        ["lmg", "demo", "--m", "1", "--N", "14", "--occupations", "14,0", "--a", "2.2", "--extensive"],
        lambda rc, out, err: rc in (0, 2) and not _has_traceback(err),
        lambda rc, out, err: rc == 1 and _has_traceback(err) and "ZeroDivisionError" in err,
    ),
    (
        "trials-0",
        ["verify", "--family", "renyi", "--params", "alpha=0.5", "--trials", "0"],
        lambda rc, out, err: rc == 2 and not _has_traceback(err),
        lambda rc, out, err: rc == 0 and (_report(out) or {}).get("all_passed") is True,
    ),
]
# The sixth defect, zg with g=abel, a=2, b=1 failing extensivity-round-trip, is a verify-trials op
# (VERIFY_FAMILIES in workloads.py), judged by verify_verdict.


def classify_probe(probe, rc: int, out: str, err: str) -> tuple[str, str]:
    """('ok', ...) at the contract answer, ('defect', id) at the seed signature, else ('fail', why)."""
    name, _argv, contract, defect = probe
    if contract(rc, out, err):
        return OK, name
    if defect(rc, out, err):
        return DEFECT, name
    tail = err.strip().splitlines()[-1] if err.strip() else ""
    return FAIL, f"{name}: exit {rc}, neither the contract answer nor the known defect ({tail})"


def verify_verdict(rc: int, report, expect_pass: bool, defect: str | None = None) -> tuple[str, str]:
    """The paper's verdicts for a 'verify --suite all' run.

    Concave-regime families pass every property (exit 0); the 'control'
    family fails composability (exit 1).  An op named with ``defect`` is the
    zg abel a=2, b=1 member, which fails only extensivity-round-trip at the
    seed commit.
    """
    if report is None:
        return FAIL, f"exit {rc} without a JSON report"
    failing = _failing(report)
    if expect_pass:
        if rc == 0 and report.get("all_passed") is True and not failing:
            return OK, ""
        if defect and rc == 1 and failing == {"extensivity-round-trip"}:
            return DEFECT, defect
        return FAIL, f"exit {rc}, failing {sorted(failing)}"
    if rc == 1 and report.get("all_passed") is False and "composability" in failing:
        return OK, ""
    return FAIL, f"expected a composability failure, got exit {rc}, failing {sorted(failing)}"


# ---------------------------------------------------------------------------


def self_check() -> list[str]:
    """Internal consistency of the table above; returns a list of problems."""
    problems = []
    for r in (Fraction(1, 2), Fraction(-3, 7)):
        if not composes_to_identity(tsallis_carrier(r, 12), tsallis_inverse(r, 12)):
            problems.append(f"tsallis inverse coefficients wrong at r={r}")
    for k in (Fraction(1, 2), Fraction(2, 7)):
        if not composes_to_identity(kaniadakis_carrier(k, 13), kaniadakis_inverse(k, 13)):
            problems.append(f"kaniadakis inverse coefficients wrong at k={k}")
    for c in (Fraction(1), Fraction(-2, 3)):
        quad = [Fraction(0), Fraction(1), c] + [Fraction(0)] * 8
        if not composes_to_identity(quad, quadratic_inverse(c, 10)):
            problems.append(f"quadratic inverse wrong at c={c}")
    k = 0.4
    law = law_kaniadakis(Fraction(2, 5), 15)
    x, y = 0.11, 0.07
    series_value = sum(float(c) * x**i * y**j for (i, j), c in law.items())
    if not close(series_value, g_chi("kaniadakis", {"k": k}, x, y), rel=1e-12):
        problems.append("kaniadakis law coefficients disagree with the closed-form law")
    if abel_betas(Fraction(1), Fraction(1), 2)[1] != Fraction(-1, 2):
        problems.append("abel beta_2 wrong")
    gp = {"a": 0.3, "b": -0.2}
    for s in (-1.5, 0.0, 0.7, 9.0):
        if not close(g_eval("abel", gp, g_inverse("abel", gp, s)), s, rel=1e-13, abs_tol=1e-14):
            problems.append(f"abel bisection inverse wrong at {s}")
    sums = LevelSums([0.5, 0.25, 0.0], [1, 2, 3])
    for family, p in (("renyi", {"alpha": 0.5}), ("zab", {"a": 0.3, "b": -0.2, "alpha": 0.5}), ("boltzmann", {})):
        direct = entropy_from_sums(family, p, lambda e: 0.5**e + 2 * 0.25**e, -(0.5 * math.log(0.5) + 0.5 * math.log(0.25)))
        if not close(sums.entropy(family, p), direct):
            problems.append(f"level sums wrong for {family}")
    if not close(uniform_entropy("renyi", {"alpha": 0.5}, 4), math.log(4)):
        problems.append("uniform renyi is not ln W")
    for occ, block in (((7, 7), 7), ((3, 4, 3), 5)):
        if sum(dicke_weights(occ, block)) != 1:
            problems.append(f"dicke weights do not sum to 1 for {occ}")
    if len({p[0] for p in PROBES}) != len(PROBES):
        problems.append("probe ids are not unique")
    return problems
