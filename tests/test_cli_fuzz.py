"""A derandomized fuzz over CLI argv: every command, hostile numbers and hostile input files.

Whatever the argv, ``main`` ends in SystemExit with 0 (pass), 1 (a property
failed) or 2 (bad input), no other exception escapes it, and exit 2 prints
nothing on stdout.  Sizes stay small (a few trials, W <= 1e6, orders up to
10**5 only where they are rejected unbuilt) so that the fuzz runs in seconds.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gek.cli import main

NUMBERS = ["nan", "inf", "-inf", "-0", "0", "1e308", "-1e308", "1e-320", "-1e-320", "1", "-1", "0.5", "2", "0.3",
           "-0.2", "1100", "1.0000000009", "abc", "1/3"]
ORDERS = ["0", "1", "3", "6", "41", "100000", "-1", "x"]
ENTROPY_FAMILIES = ["renyi", "zq", "zk", "zab", "zg", "altz", "boltzmann", "tsallis_aq", "landsberg_vedral",
                    "control", "vn", "nope"]
GROUP_FAMILIES = ["id", "tsallis", "kaniadakis", "abel", "nope"]
KEYS = ["alpha", "q", "k", "a", "b", "g", "zeta"]
DISTS = ["u4", "d3", "u1", "u0", "u1000000", "u99999999999", "u" + "9" * 4301, "0.5,0.5", "0.25,0.25,0.5",
         "0.5,nan", "1,inf", "-0,1", "1e-320,1", "0.5,0.6", "0.5,abc", "dist-nan", "dist-inf", "dist-empty"]
FILES = {
    "dist-nan": "0.5\nnan\n0.5\n",
    "dist-inf": "inf\n1\n",
    "dist-empty": "\n",
    "rho-ok": "0.5 0.1,0.05 0\n0.1,-0.05 0.3 0.05\n0 0.05 0.2\n",
    "rho-nan": "nan 0\n0 1\n",
    "rho-nan-imaginary": "1,nan 0\n0 0\n",
    "rho-inf": "inf 0\n0 1\n",
    "rho-huge": "1e308 0\n0 1\n",
    "rho-negative-zero": "-0 0\n0 1\n",
    "rho-ragged": "1 0\n0\n",
}
SWEEPS = ["alpha=0.1:0.9:0.2", "q=0.2:2:0.6", "alpha=0:1e300:1", "alpha=nan:1:0.1", "alpha=0.5:0.5:1e-320",
          "alpha=-inf:0:1", "alpha=1:0:0.1", "alpha=0.001:0.999:0.001", "k=-0:0.5:0.25", "alpha"]

number = st.sampled_from(NUMBERS)


@st.composite
def params(draw, keys=KEYS):
    """key=value pairs, hostile values and sometimes a repeated or unknown key."""
    pairs = [(key, draw(number)) for key in draw(st.lists(st.sampled_from(keys), max_size=4))]
    if draw(st.booleans()):
        pairs.append(("g", draw(st.sampled_from(GROUP_FAMILIES))))
    return ",".join(f"{key}={value}" for key, value in pairs)


def option(name, values):
    """An optional ``[name, value]`` pair of argv."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, v]))


def command(*parts):
    """Concatenate fixed argv and drawn argv fragments into one argv."""
    fragments = [st.just(list(p)) if isinstance(p, (list, tuple)) else p for p in parts]
    return st.tuples(*fragments).map(lambda chunks: [tok for chunk in chunks for tok in chunk])


def flag(name, values):
    return st.sampled_from(values).map(lambda v: [name, v])


family = flag("--family", ENTROPY_FAMILIES)
group = flag("--family", GROUP_FAMILIES)
with_params = params().map(lambda text: ["--params", text])

ARGV = st.one_of(
    command(["entropy", "eval"], family, with_params, flag("--dist", DISTS)),
    command(["entropy", "sweep"], family, with_params, flag("--dist", DISTS), flag("--param", SWEEPS)),
    command(["verify"], family, with_params, flag("--suite", ["composability", "sk", "schur", "extensivity", "all"]),
            flag("--trials", ["-1", "0", "1", "4"]), option("--seed", ["-1", "0", "3"]),
            option("--tol", NUMBERS), option("--lam", NUMBERS)),
    command(["series", "invert"], st.lists(number | st.sampled_from(["0", "1", "1/0"]), max_size=5).map(
        lambda cs: ["--coeffs", ",".join(["0", "1", *cs])]), flag("--order", ORDERS)),
    command(["grouplaw", "expand"], group, params(["q", "k", "a", "b"]).map(lambda text: ["--params", text]),
            flag("--order", ORDERS)),
    command(st.sampled_from([["log", "eval"], ["exp", "eval"]]), group, with_params, flag("--x", NUMBERS),
            option("--gamma", NUMBERS)),
    command(["chi", "eval"], group, with_params, flag("--x", NUMBERS), flag("--y", NUMBERS)),
    command(["extensivity", "solve"], family, with_params, option("--lam", NUMBERS),
            option("--horizon", ["1", "0.5", "1e4", "1e18", "1e19", "nan"])),
    command(["qentropy", "eval"], flag("--rho", [name for name in FILES if name.startswith("rho")]),
            option("--family", ENTROPY_FAMILIES), with_params),
    command(["lmg", "demo"], flag("--m", ["0", "1", "2", "3"]), flag("--N", ["-2", "0", "4", "10", "14", "100000"]),
            flag("--occupations", ["7,7", "2,2", "14,0", "2,1,1", "7,x", "1"]), flag("--a", NUMBERS),
            st.one_of(st.just(["--extensive"]), flag("--alpha", NUMBERS)),
            option("--L", ["0", "1", "3", "100000"]), st.sampled_from([[], ["--sweep-L"]])),
)


@pytest.fixture(scope="module")
def hostile_files(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in FILES}


def run_main(argv: list[str]) -> tuple[int, str]:
    """Run ``main`` in-process; any exception other than SystemExit propagates and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    return exc.value.code, out.getvalue()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(ARGV)
def test_exit_code_contract_holds_for_any_argv(hostile_files, argv):
    argv = [hostile_files.get(tok, tok) for tok in argv]
    code, stdout = run_main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert stdout == "", argv
