"""End-to-end CLI behavior: formats, exit codes, seeds, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gek.cli import (
    _COMMANDS,
    MAX_SERIES_ORDER,
    _build_parser,
    _dump_json,
    _float_params,
    _parse_sweep,
    main,
    parse_args,
    run,
)
from gek.entropy import _FAMILIES, entropy_spec
from gek.errors import InputError, ParameterError
from gek.properties import sample_grid, solve_growth_law


def invoke(args, tmp_path, name="out.txt"):
    """Run the CLI in-process with output to a file; return (exit code, text)."""
    out = tmp_path / name
    config = parse_args(list(args) + ["-o", str(out)])
    code = run(config)
    return code, out.read_text()


class TestEntropyEval:
    def test_uniform_shorthand(self, tmp_path):
        code, text = invoke(["entropy", "eval", "--family", "renyi", "--params", "alpha=0.5", "--dist", "u4"], tmp_path)
        assert code == 0
        assert text.strip() == "1.38629436111989"
        assert float(text) == pytest.approx(math.log(4), rel=1e-15)

    @pytest.mark.parametrize(
        "family, params",
        [
            ("boltzmann", ""),
            ("zq", "q=1.5,alpha=2"),
            ("zk", "k=-0.4,alpha=1.5"),
            ("zab", "a=0.6,b=0.2,alpha=2"),
            ("renyi", "alpha=2"),
            ("tsallis_aq", "a=0.8,q=0.5"),
            ("control", ""),
        ],
    )
    def test_delta_shorthand(self, family, params, tmp_path):
        # these families evaluate to -0.0 on a delta distribution; a bare number prints it as 0
        args = ["entropy", "eval", "--family", family, "--dist", "d5"] + (["--params", params] if params else [])
        assert invoke(args, tmp_path) == (0, "0\n")

    def test_inline_distribution(self, tmp_path):
        code, text = invoke(
            ["entropy", "eval", "--family", "zab", "--params", "a=0.3,b=-0.2,alpha=0.5", "--dist", "0.5,0.25,0.25"],
            tmp_path,
        )
        assert code == 0 and float(text) > 0

    def test_group_backed_family(self, tmp_path):
        code, text = invoke(
            ["entropy", "eval", "--family", "zg", "--params", "g=abel,a=0.6,b=-0.3,alpha=0.4",
             "--dist", "0.5,0.3,0.2"],
            tmp_path,
        )
        assert code == 0 and float(text) > 0
        code, text = invoke(
            ["verify", "--family", "zg", "--params", "g=kaniadakis,k=0.3,alpha=0.5",
             "--suite", "composability", "--trials", "100", "--seed", "4"],
            tmp_path,
            name="zg.json",
        )
        assert code == 0
        assert json.loads(text)["params"]["g"] == "kaniadakis"

    def test_file_distribution(self, tmp_path):
        dist = tmp_path / "dist.txt"
        dist.write_text("0.5\n0.25\n0.25\n")
        code, text = invoke(["entropy", "eval", "--family", "boltzmann", "--dist", str(dist)], tmp_path)
        assert float(text) == pytest.approx(1.5 * math.log(2), rel=1e-14)

    @pytest.mark.parametrize(
        "content, message",
        [
            ("0.5\nabc\n0.5\n", "probability 'abc' is not a number"),
            ("0.5\n  0.5x \n", "probability '0.5x' is not a number"),
            ("0.5\n0.5,\n", "probability '0.5,' is not a number"),
            ("0.5\nnan\n0.5\n", "probabilities must be finite and nonnegative"),
            ("0.5\ninf\n", "probabilities must be finite and nonnegative"),
            ("0.5\n\n   \n0.4\n", "probabilities sum to 0.9, not 1 within 1e-12"),
            ("\n  \n\n", "distribution file {path!r} is empty"),
            ("", "distribution file {path!r} is empty"),
        ],
        ids=["bad", "bad-padded", "bad-comma", "nan", "inf", "blank-lines", "blank-only", "empty"],
    )
    def test_file_distribution_errors(self, tmp_path, capsys, content, message):
        dist = tmp_path / "dist.txt"
        dist.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "eval", "--family", "renyi", "--params", "alpha=0.5", "--dist", str(dist)])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", "error: " + message.format(path=str(dist)) + "\n")

    def test_alpha_one_rejected_at_parse_time(self, capsys):
        for argv in (
            ["entropy", "eval", "--family", "renyi", "--params", "alpha=1", "--dist", "u4"],
            # non-finite parameters and --trials below 1 are bad input too
            ["verify", "--family", "renyi", "--params", "alpha=nan", "--suite", "composability", "--trials", "20"],
            ["verify", "--family", "zk", "--params", "k=0.3,alpha=inf", "--trials", "20"],
            ["entropy", "eval", "--family", "zg", "--params", "g=abel,a=nan,b=-0.2,alpha=0.5", "--dist", "u4"],
            ["chi", "eval", "--family", "tsallis", "--params", "q=inf", "--x", "1", "--y", "1"],
            ["verify", "--family", "renyi", "--params", "alpha=0.5", "--trials", "0"],
            ["verify", "--family", "renyi", "--params", "alpha=0.5", "--trials", "-5"],
            # non-finite float options: a nan tolerance used to pass a failing family
            ["verify", "--family", "control", "--suite", "composability", "--trials", "50", "--tol", "nan"],
            ["verify", "--family", "control", "--suite", "composability", "--trials", "50", "--tol", "inf"],
            ["verify", "--family", "control", "--suite", "composability", "--trials", "50", "--tol", "-1e-10"],
            ["verify", "--family", "renyi", "--params", "alpha=0.5", "--suite", "extensivity", "--lam", "inf"],
            ["entropy", "sweep", "--family", "renyi", "--dist", "u4", "--param", "alpha=0.1:nan:0.1"],
            ["entropy", "sweep", "--family", "renyi", "--dist", "u4", "--param", "alpha=-inf:0.5:0.1"],
            ["entropy", "sweep", "--family", "renyi", "--dist", "u4", "--param", "alpha=0.1:1e308:1e-300"],
            ["extensivity", "solve", "--family", "renyi", "--params", "alpha=0.5", "--lam", "inf"],
            ["extensivity", "solve", "--family", "renyi", "--params", "alpha=0.5", "--horizon", "nan"],
            ["extensivity", "solve", "--family", "renyi", "--params", "alpha=0.5", "--horizon", "0.5"],
            ["log", "eval", "--family", "tsallis", "--params", "q=0.5", "--x", "nan"],
            ["log", "eval", "--family", "tsallis", "--params", "q=0.5", "--x", "2", "--gamma", "inf"],
            ["exp", "eval", "--family", "abel", "--params", "a=0.6,b=-0.3", "--x", "-inf"],
            ["chi", "eval", "--family", "kaniadakis", "--params", "k=0.4", "--x", "0.7", "--y", "nan"],
            ["lmg", "demo", "--m", "1", "--N", "14", "--occupations", "7,7", "--a", "nan", "--alpha", "0.5"],
            ["lmg", "demo", "--m", "1", "--N", "14", "--occupations", "7,7", "--a", "2", "--alpha", "inf"],
            # series coefficients must be exact rationals (were a ValueError / ZeroDivisionError traceback)
            ["series", "invert", "--coeffs", "0,1,abc", "--order", "4"],
            ["series", "invert", "--coeffs", "0,1,1/0", "--order", "4"],
            ["series", "invert", "--coeffs", "0,1,nan", "--order", "4"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert capsys.readouterr().out == "", argv

    def test_unknown_parameter_key_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "eval", "--family", "renyi", "--params", "alpha=0.5,zeta=2", "--dist", "u4"])
        assert exc.value.code == 2

    def test_missing_file_is_input_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "eval", "--family", "boltzmann", "--dist", "/no/such/file"])
        assert exc.value.code == 2


class TestEntropySweep:
    def test_alpha_sweep(self, tmp_path):
        code, text = invoke(
            ["entropy", "sweep", "--family", "renyi", "--param", "alpha=0.1:0.9:0.05", "--dist", "u4"],
            tmp_path,
        )
        lines = text.strip().splitlines()
        assert code == 0
        assert lines[0] == "alpha,entropy"
        assert len(lines) == 1 + 17
        for line in lines[1:]:
            assert float(line.split(",")[1]) == pytest.approx(math.log(4), rel=1e-12)

    def test_sweep_second_parameter_fixed(self, tmp_path):
        code, text = invoke(
            ["entropy", "sweep", "--family", "zq", "--params", "q=0.5", "--param", "alpha=0.2:0.8:0.3", "--dist", "u3"],
            tmp_path,
        )
        assert code == 0
        assert len(text.strip().splitlines()) == 4

    def test_zero_entropy_cells_print_without_sign(self, tmp_path):
        code, text = invoke(
            ["entropy", "sweep", "--family", "renyi", "--param", "alpha=1.5:3:0.5", "--dist", "d5"], tmp_path
        )
        assert code == 0
        assert text.splitlines() == ["alpha,entropy", "1.5,0", "2,0", "2.5,0", "3,0"]

    def test_json_keeps_the_sign_of_zero(self):
        # JSON reports are pinned byte for byte, -0.0 included
        assert _dump_json({"x": -0.0, "y": [0.0, -1e-300]}) == '{\n  "x": -0.0,\n  "y": [\n    0.0,\n    -1e-300\n  ]\n}\n'

    def test_malformed_sweep(self):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "sweep", "--family", "renyi", "--param", "alpha=0.1-0.9", "--dist", "u4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "family, params, sweep",
        [("zk", "alpha=0.5", "k=0.1:0.9:0.2"), ("zg", "g=abel,b=-0.2,alpha=0.6", "a=0.1:0.9:0.2")],
        ids=["zk-over-k", "zg-abel-over-a"],
    )
    def test_sweep_at_fixed_alpha_matches_eval(self, family, params, sweep, tmp_path, capsys):
        # every point shares one power sum of the distribution; each row must still be that point's eval
        dist = tmp_path / "dist.txt"
        dist.write_text("0.5\n0\n0.3\n0.2\n")

        def stdout(argv):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--family", family, "--dist", str(dist)])
            assert exc.value.code == 0
            return capsys.readouterr().out

        name, values = _parse_sweep(sweep)
        rows = stdout(["entropy", "sweep", "--params", params, "--param", sweep]).splitlines()
        assert rows[0] == f"{name},entropy" and len(rows) == 1 + len(values) == 6
        for row, v in zip(rows[1:], values):
            evaluated = stdout(["entropy", "eval", "--params", f"{params},{name}={v!r}"])
            assert row + "\n" == f"{format(v, '.15g')},{evaluated}"

    def test_point_count_is_bounded(self, monkeypatch):
        from gek import cli

        assert cli._parse_sweep("alpha=0:99999:1")[1][-1] == 99999.0
        with pytest.raises(InputError, match="more than 100000 points"):
            cli._parse_sweep("alpha=0:100000:1")
        # the bound is checked before any point is built
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 10)
        assert len(cli._parse_sweep("alpha=0.1:1:0.1")[1]) == 10
        with pytest.raises(InputError, match="more than 10 points"):
            cli._parse_sweep("alpha=0:10:1")
        with pytest.raises(InputError, match="more than 10 points"):
            cli._parse_sweep("alpha=0:1e300:1")


class TestSeriesTools:
    def test_invert_catalan(self, tmp_path):
        code, text = invoke(["series", "invert", "--coeffs", "0,1,1", "--order", "4"], tmp_path)
        assert code == 0
        assert text.splitlines() == ["degree,value", "0,0", "1,1", "2,-1", "3,2", "4,-5"]

    def test_order_bound_admits_every_pinned_order(self, tmp_path):
        # 22 is the largest order in series_pin.json and in the exact-series benchmark
        assert MAX_SERIES_ORDER > 22
        code, text = invoke(["series", "invert", "--coeffs", "0,1,1", "--order", str(MAX_SERIES_ORDER)], tmp_path)
        assert code == 0 and len(text.splitlines()) == MAX_SERIES_ORDER + 2

    def test_invert_rejects_bad_normalization(self):
        with pytest.raises(SystemExit) as exc:
            main(["series", "invert", "--coeffs", "0,2,1", "--order", "3"])
        assert exc.value.code == 2

    def test_grouplaw_expand_exact_fractions(self, tmp_path):
        code, text = invoke(
            ["grouplaw", "expand", "--family", "tsallis", "--params", "q=1/2", "--order", "3"],
            tmp_path,
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "i,j,value"
        table = {(int(i), int(j)): v for i, j, v in (line.split(",") for line in lines[1:])}
        assert table[(1, 0)] == "1" and table[(0, 1)] == "1"
        assert table[(1, 1)] == "1/2"
        assert table[(2, 1)] == "0" and table[(3, 0)] == "0"

    def test_grouplaw_kaniadakis(self, tmp_path):
        code, text = invoke(
            ["grouplaw", "expand", "--family", "kaniadakis", "--params", "k=1/2", "--order", "5"],
            tmp_path,
        )
        table = {
            (int(i), int(j)): v
            for i, j, v in (line.split(",") for line in text.strip().splitlines()[1:])
        }
        assert table[(2, 1)] == "1/8"  # k^2/2
        assert table[(4, 1)] == "-1/128"  # -k^4/8


class TestPointEvaluations:
    def test_log_eval(self, tmp_path):
        code, text = invoke(
            ["log", "eval", "--family", "tsallis", "--params", "q=0.5", "--x", "4"], tmp_path
        )
        assert float(text) == pytest.approx((4**0.5 - 1) / 0.5, rel=1e-14)

    def test_exp_eval_inverts(self, tmp_path):
        _, logged = invoke(["log", "eval", "--family", "kaniadakis", "--params", "k=0.4", "--x", "7"], tmp_path)
        _, back = invoke(
            ["exp", "eval", "--family", "kaniadakis", "--params", "k=0.4", "--x", logged.strip()],
            tmp_path,
            name="out2.txt",
        )
        assert float(back) == pytest.approx(7.0, rel=1e-10)

    def test_chi_eval(self, tmp_path):
        code, text = invoke(
            ["chi", "eval", "--family", "tsallis", "--params", "q=0.5", "--x", "1", "--y", "1"], tmp_path
        )
        assert float(text) == pytest.approx(2.5, rel=1e-15)

    def test_identity_chi(self, tmp_path):
        code, text = invoke(["chi", "eval", "--family", "id", "--x", "2", "--y", "3"], tmp_path)
        assert text.strip() == "5"


class TestVerify:
    def test_renyi_all_pass(self, tmp_path):
        code, text = invoke(
            ["verify", "--family", "renyi", "--params", "alpha=0.5", "--suite", "composability",
             "--trials", "200", "--seed", "7"],
            tmp_path,
        )
        assert code == 0
        report = json.loads(text)
        assert report["schema_version"] == "1"
        assert report["all_passed"] is True
        assert report["seed"] == 7
        assert report["properties"][0]["property"] == "composability"
        assert report["properties"][0]["failures"] == 0

    def test_an_entropy_out_of_range_ends_the_check_at_its_first_trial(self, capsys):
        # tails run block by block; the error is still that of the first trial in trial order, then slot order
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "zab", "--params", "a=800,b=0,alpha=0.5", "--trials", "20", "--seed", "0"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err == "error: abel: G(1.5343108444758409) overflows a float\n"

    def test_control_family_fails_with_exit_one(self, tmp_path):
        code, text = invoke(
            ["verify", "--family", "control", "--suite", "composability", "--trials", "100", "--seed", "1"],
            tmp_path,
        )
        assert code == 1
        report = json.loads(text)
        assert report["all_passed"] is False
        assert report["properties"][0]["failures"] > 0

    def test_tsallis_composability_law(self, tmp_path):
        code, text = invoke(
            ["verify", "--family", "tsallis_aq", "--params", "a=1,q=0.5", "--suite", "composability",
             "--trials", "300", "--seed", "2"],
            tmp_path,
        )
        assert code == 0
        assert json.loads(text)["all_passed"] is True

    def test_full_suite_zab(self, tmp_path):
        code, text = invoke(
            ["verify", "--family", "zab", "--params", "a=0.3,b=-0.2,alpha=0.5", "--suite", "all",
             "--trials", "60", "--seed", "3"],
            tmp_path,
        )
        assert code == 0
        report = json.loads(text)
        names = [p["property"] for p in report["properties"]]
        assert "composability" in names and "sk-expansibility" in names
        assert "schur-ostrowski-criterion" in names
        assert "extensivity-round-trip" in names

    def test_gek_seed_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GEK_SEED", "99")
        code, text = invoke(
            ["verify", "--family", "renyi", "--params", "alpha=0.5", "--suite", "composability",
             "--trials", "10"],
            tmp_path,
        )
        assert json.loads(text)["seed"] == 99

    def test_gek_seed_is_read_by_verify_alone(self, tmp_path, monkeypatch, capsys):
        # a malformed GEK_SEED used to refuse every command, seedless ones too
        monkeypatch.setenv("GEK_SEED", "x")
        assert invoke(["log", "eval", "--family", "id", "--x", "2"], tmp_path) == (0, "0.693147180559945\n")
        assert invoke(["series", "invert", "--coeffs", "0,1,1", "--order", "3"], tmp_path)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "renyi", "--params", "alpha=0.5", "--trials", "20"])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", "error: GEK_SEED must be an integer\n")

    def test_verify_runs_each_public_check_once(self, monkeypatch, capsys):
        # the benchmark's per-layer spans wrap these three names; verify must look them up at call time
        import gek.properties as properties

        calls = {}
        for name in ("check_composability", "check_sk_axioms", "check_schur_concavity"):
            check = getattr(properties, name)

            def counted(*args, _name=name, _check=check, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _check(*args, **kwargs)

            monkeypatch.setattr(properties, name, counted)
        with pytest.raises(SystemExit):
            main(["verify", "--family", "zk", "--params", "k=0.3,alpha=0.7", "--suite", "all", "--trials", "20"])
        assert '"all_passed"' in capsys.readouterr().out
        assert calls == {"check_composability": 1, "check_sk_axioms": 1, "check_schur_concavity": 1}


class TestExtensivitySolve:
    def test_renyi_exponential(self, tmp_path):
        code, text = invoke(
            ["extensivity", "solve", "--family", "renyi", "--params", "alpha=0.5", "--lam", "0.25"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["kind"] == "exponential"
        assert payload["valid"] is True
        assert payload["samples"][0]["N"] == 1

    def test_restricted_family_exits_one(self, tmp_path):
        code, text = invoke(
            ["extensivity", "solve", "--family", "zq", "--params", "q=3,alpha=0.5"], tmp_path
        )
        assert code == 1
        assert json.loads(text)["restricted"] is True

    def test_unsupported_family_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["extensivity", "solve", "--family", "landsberg_vedral", "--params", "q=2"])
        assert exc.value.code == 2


# one admissible parameter set per family; every family in the table must appear
GROWTH_PARAMS = {
    "renyi": "alpha=0.5",
    "zq": "q=0.5,alpha=0.5",
    "zk": "k=0.3,alpha=0.5",
    "zab": "a=0.3,b=-0.2,alpha=0.5",
    "zg": "g=kaniadakis,k=0.3,alpha=0.5",
    "altz": "g=tsallis,q=0.5,alpha=0.7",
    "boltzmann": "",
    "tsallis_aq": "a=1,q=0.5",
    "landsberg_vedral": "q=1.5",
    "control": "",
}
# tsallis_aq with q > 1 is bounded, so it has no growth law either
GROWTH_CASES = [pytest.param(family, GROWTH_PARAMS[family], id=family) for family in sorted(GROWTH_PARAMS)]
GROWTH_CASES.append(pytest.param("tsallis_aq", "a=4,q=1.5", id="tsallis_aq-q1.5"))


class TestExtensivitySupport:
    """Both commands and both suites decide extensivity support by EntropySpec.growth alone."""

    def run_cli(self, argv, capsys) -> tuple[int, str]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr().out
        if exc.value.code == 2:
            assert out == "", argv
        return exc.value.code, out

    def test_table_is_covered(self):
        assert GROWTH_PARAMS.keys() == _FAMILIES.keys()

    @pytest.mark.parametrize("family, params", GROWTH_CASES)
    def test_exit_two_exactly_without_a_growth_law(self, family, params, capsys):
        unsupported = entropy_spec(family, _float_params(params)).growth is None
        for argv in (
            ["verify", "--family", family, "--params", params, "--suite", "extensivity"],
            ["extensivity", "solve", "--family", family, "--params", params],
        ):
            assert (self.run_cli(argv, capsys)[0] == 2) == unsupported, argv

    @pytest.mark.parametrize("family, params", GROWTH_CASES)
    def test_suite_all_includes_extensivity_exactly_with_a_growth_law(self, family, params, capsys):
        spec = entropy_spec(family, _float_params(params))
        argv = ["verify", "--family", family, "--params", params, "--trials", "20"]
        code, out = self.run_cli(argv, capsys)
        assert code in (0, 1)
        names = [r["property"] for r in json.loads(out)["properties"]]
        assert any(n.startswith("extensivity-") for n in names) == (spec.growth is not None)

    def test_altz_has_no_growth_law(self):
        # verify --suite extensivity used to solve the zg growth law for altz and fail it with exit 1
        with pytest.raises(ParameterError):
            solve_growth_law(entropy_spec("altz", {"g": "tsallis", "q": 0.5, "alpha": 0.7}), 1.0)


class TestQuantumEval:
    def test_von_neumann_from_file(self, tmp_path):
        rho = tmp_path / "rho.txt"
        rho.write_text("0.5,0 0,0\n0,0 0.5,0\n")
        code, text = invoke(["qentropy", "eval", "--rho", str(rho)], tmp_path)
        assert code == 0
        assert float(text) == pytest.approx(math.log(2), rel=1e-14)

    def test_renyi_of_matrix_with_real_entries(self, tmp_path):
        rho = tmp_path / "rho.txt"
        rho.write_text("0.6 0.2\n0.2 0.4\n")
        code, text = invoke(
            ["qentropy", "eval", "--rho", str(rho), "--family", "renyi", "--params", "alpha=2"],
            tmp_path,
        )
        root = math.sqrt(0.05)
        expected = math.log((0.5 + root) ** 2 + (0.5 - root) ** 2) / (1 - 2)
        assert float(text) == pytest.approx(expected, rel=1e-12)

    def test_blank_line_between_rows_is_skipped(self, tmp_path):
        rho = tmp_path / "rho.txt"
        rho.write_text("0.5,0 0,0\n\n0,0 0.5,0\n")
        code, text = invoke(["qentropy", "eval", "--rho", str(rho)], tmp_path)
        assert code == 0
        assert float(text) == pytest.approx(math.log(2), rel=1e-14)

    def test_non_density_rejected(self, tmp_path):
        rho = tmp_path / "rho.txt"
        rho.write_text("0.9 0\n0 0.4\n")
        with pytest.raises(SystemExit) as exc:
            main(["qentropy", "eval", "--rho", str(rho)])
        assert exc.value.code == 2


class TestLmgDemo:
    def test_sweep_ratio_increases(self, tmp_path):
        code, text = invoke(
            ["lmg", "demo", "--m", "1", "--N", "12", "--occupations", "6,6", "--a", "2.2",
             "--extensive", "--sweep-L"],
            tmp_path,
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "L,exact_entropy,asymptotic_value,ratio"
        assert len(lines) == 1 + 6
        ratios = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(x < y for x, y in zip(ratios, ratios[1:]))
        assert all(0 < r < 1 for r in ratios)

    def test_single_block(self, tmp_path):
        code, text = invoke(
            ["lmg", "demo", "--m", "1", "--N", "10", "--occupations", "5,5", "--a", "3",
             "--alpha", "0.25", "--L", "3"],
            tmp_path,
        )
        lines = text.strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("3,")

    def test_extensive_order_must_be_positive(self):
        with pytest.raises(SystemExit) as exc:
            main(["lmg", "demo", "--m", "1", "--N", "12", "--occupations", "6,6", "--a", "2",
                  "--extensive", "--sweep-L"])
        assert exc.value.code == 2


class TestDeterminism:
    def test_verify_bytes_identical(self, tmp_path):
        args = ["verify", "--family", "zk", "--params", "k=0.4,alpha=0.5", "--suite", "composability",
                "--trials", "50", "--seed", "11"]
        _, first = invoke(args, tmp_path, name="a.json")
        _, second = invoke(args, tmp_path, name="b.json")
        assert first == second

    def test_sweep_bytes_identical(self, tmp_path):
        args = ["entropy", "sweep", "--family", "zk", "--params", "k=0.3", "--param",
                "alpha=0.1:0.9:0.1", "--dist", "u5"]
        _, first = invoke(args, tmp_path, name="a.csv")
        _, second = invoke(args, tmp_path, name="b.csv")
        assert first == second

    def test_console_entry_point_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "gek.cli", "entropy", "eval", "--family", "renyi",
             "--params", "alpha=0.5", "--dist", "u4"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "1.38629436111989"


# Cold start: the scalar and exact commands run without numpy (or scipy), and without dataclasses and
# inspect, which cost them 8-15 ms. Each case runs one fresh interpreter: (id, argv or None for a bare
# 'import gek.cli', exit code, stdout).
GOLDEN = Path(__file__).parent / "golden"
NUMPY_FREE_COMMANDS = (
    ["log", "eval"], ["exp", "eval"], ["chi", "eval"], ["grouplaw", "expand"], ["series", "invert"],
    ["extensivity", "solve"],
)
NUMPY_FREE_CASES = [
    pytest.param(e["argv"], e["exit"], e["stdout"], id=e["id"])
    for e in json.loads((GOLDEN / "cli_corpus.json").read_text())
    # the bad-* entries are `entropy eval` refusals of a family's parameters, made before --dist is read, and the
    # `entropy sweep` refusals are of a family that takes no swept parameter, made before --dist is read too
    if e["argv"][:2] in NUMPY_FREE_COMMANDS or e["id"].startswith("bad-")
    or (e["argv"][:2] == ["entropy", "sweep"] and e["exit"] == 2)
] + [
    # option checks that exit before the handler needs numpy
    pytest.param(["verify", "--family", "renyi", "--params", "alpha=0.5", "--trials", "0"], 2, "", id="verify-trials-0"),
    pytest.param(["lmg", "demo", "--m", "1", "--N", "14", "--occupations", "14,0", "--a", "2", "--alpha", "0.5"],
                 2, "", id="lmg-occupation-0"),
    # non-finite --params values, rejected while parsing
    pytest.param(["verify", "--family", "renyi", "--params", "alpha=nan"], 2, "", id="verify-alpha-nan"),
    pytest.param(["verify", "--family", "zk", "--params", "k=0.3,alpha=inf"], 2, "", id="verify-alpha-inf"),
    pytest.param(None, 0, "", id="import-gek-cli"),
    # the --lam and --horizon rules live in gek.errors, so their refusals load nothing more
    pytest.param(["verify", "--family", "renyi", "--params", "alpha=0.5", "--lam", "0"], 2, "", id="verify-lam-0"),
    pytest.param(["extensivity", "solve", "--family", "zq", "--params", "q=0.5,alpha=0.5", "--lam", "0"], 2, "",
                 id="solve-lam-0"),
    pytest.param(["extensivity", "solve", "--family", "zq", "--params", "q=0.5,alpha=0.5", "--horizon", "0.5"], 2,
                 "", id="solve-horizon-0.5"),
    pytest.param(["extensivity", "solve", "--family", "zq", "--params", "q=0.5,alpha=0.5", "--horizon", "1e19"], 2,
                 "", id="solve-horizon-1e19"),
    # the family table and the parameter rules load no numpy, so a bad --family or --params is refused cold
    pytest.param(["verify", "--family", "nosuch"], 2, "", id="verify-family-nosuch"),
    pytest.param(["verify", "--family", "zq", "--params", "q=0.5,alpha=-1"], 2, "", id="verify-alpha-negative"),
    pytest.param(["verify", "--family", "zg", "--params", "alpha=0.5"], 2, "", id="verify-zg-missing-g"),
    pytest.param(["qentropy", "eval", "--rho", "{data}/rho3.txt", "--family", "nosuch"], 2, "",
                 id="qentropy-family-nosuch"),
    pytest.param(["entropy", "sweep", "--family", "nosuch", "--dist", "u4", "--param", "alpha=0.1:0.5:0.1"], 2, "",
                 id="sweep-family-nosuch"),
    pytest.param(["entropy", "sweep", "--family", "zk", "--params", "k=1.5", "--dist", "u4", "--param",
                  "alpha=0.1:0.5:0.1"], 2, "", id="sweep-zk-k1.5"),
]
# the refusals that end a numpy command before its handler imports anything
OPTION_REFUSAL_IDS = {"verify-trials-0", "verify-lam-0", "solve-lam-0", "solve-horizon-0.5", "solve-horizon-1e19"}
COLD_PROBE = """
import json, sys
from gek.cli import main
code = 0
if sys.argv[1:]:
    try:
        main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
sys.stdout.flush()
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


def run_cold(argv):
    """One fresh ``gek`` process: its result and the names of the modules it had loaded at exit."""
    argv = [tok.replace("{data}", str(GOLDEN)) for tok in argv or []]
    env = {k: v for k, v in os.environ.items() if k != "GEK_SEED"}
    result = subprocess.run([sys.executable, "-c", COLD_PROBE, *argv], capture_output=True, text=True, env=env,
                            timeout=60)
    return result, set(json.loads(result.stderr.splitlines()[-1]))


def test_numpy_free_command_count():
    # 37 exact and scalar corpus entries + 20 extensivity solve + 10 bad-* and 2 sweep refusals, and 15 added cases
    assert len(NUMPY_FREE_CASES) == 37 + 20 + 10 + 2 + 15


@pytest.mark.parametrize("argv, code, stdout", [c for c in NUMPY_FREE_CASES if c.id in OPTION_REFUSAL_IDS])
def test_option_refusal_loads_only_the_rules(argv, code, stdout):
    result, loaded = run_cold(argv)
    assert (result.returncode, result.stdout) == (code, stdout), result.stderr
    assert {m for m in loaded if m.split(".")[0] == "gek"} == {"gek", "gek.cli", "gek.errors"}


@pytest.mark.parametrize("argv, code, stdout", NUMPY_FREE_CASES)
def test_cold_command_loads_no_numpy(argv, code, stdout):
    result, loaded = run_cold(argv)
    assert (result.returncode, result.stdout) == (code, stdout), result.stderr
    assert {m.split(".")[0] for m in loaded} & {"numpy", "scipy"} == set()
    assert loaded & {"dataclasses", "inspect"} == set()
    # each command loads only the gek modules it runs
    if argv and argv[:2] in (["log", "eval"], ["exp", "eval"], ["chi", "eval"]):
        assert "gek.series" not in loaded
    if argv and argv[:2] == ["series", "invert"]:
        assert "gek.grouplog" not in loaded


def test_non_numeric_params_value_is_refused_cold():
    result, loaded = run_cold(["entropy", "eval", "--family", "renyi", "--params", "alpha=abc", "--dist", "u4"])
    assert (result.returncode, result.stdout) == (2, "")
    assert "error: parameter alpha='abc' is not a number" in result.stderr
    assert {m.split(".")[0] for m in loaded} & {"numpy", "scipy"} == set()


def test_sweep_refuses_a_bad_spec_before_a_bad_dist():
    # both inputs are bad: the spec is built before --dist is read, so its refusal is the one reported
    result, loaded = run_cold(["entropy", "sweep", "--family", "nosuch", "--dist", "no/such/file", "--param",
                               "alpha=0.1:0.5:0.1"])
    assert (result.returncode, result.stdout) == (2, "")
    assert "error: unknown entropy family 'nosuch'" in result.stderr
    assert {m.split(".")[0] for m in loaded} & {"numpy", "scipy"} == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "zk", "--params", "k=0.3,alpha=0.5", "--suite", "all", "--trials", "10"],
        ["lmg", "demo", "--m", "1", "--N", "12", "--occupations", "6,6", "--a", "2.2", "--alpha", "0.5"],
        ["qentropy", "eval", "--rho", "{data}/rho3.txt", "--family", "renyi", "--params", "alpha=2"],
    ],
    ids=["verify-sampled", "lmg-demo", "qentropy-eval"],
)
def test_numpy_commands_load_no_dataclasses(argv):
    # every record of gek is a Record, so a command that needs numpy still loads no dataclasses
    result, loaded = run_cold(argv)
    assert result.returncode == 0, result.stderr
    assert "numpy" in loaded and "dataclasses" not in loaded


def test_empty_params_chunk_is_skipped():
    assert _float_params("alpha=0.5,,k=0.3") == {"alpha": 0.5, "k": 0.3}


@pytest.mark.parametrize(
    "argv",
    [
        ["grouplaw", "expand", "--family", "abel", "--params", "a=2,b=1", "--order", "6"],
        ["series", "invert", "--coeffs", "0,1,1/2", "--order", "6"],
        ["entropy", "sweep", "--family", "renyi", "--dist", "u4", "--param", "alpha=0.5:0.7:0.1"],
        ["lmg", "demo", "--m", "1", "--N", "12", "--occupations", "6,6", "--a", "2.2", "--alpha", "0.5"],
    ],
    ids=["grouplaw-expand", "series-invert", "entropy-sweep", "lmg-demo"],
)
def test_csv_commands_load_no_csv_module(argv):
    # no cell needs quoting, so the rows are joined as text and the csv module never loads
    result, loaded = run_cold(argv)
    assert result.returncode == 0, result.stderr
    assert "csv" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "zk", "--params", "k=0.3,alpha=0.5", "--trials", "10"],
    ],
    ids=["verify-growth-law"],
)
def test_growth_grid_loads_no_numpy_ma(argv):
    # np.unique imports numpy.ma, about 15 ms of a cold command; the N grids are built without it
    result, loaded = run_cold(argv)
    assert result.returncode == 0, result.stderr
    assert "numpy" in loaded and "numpy.ma" not in loaded


def test_extensivity_suite_runs_cold(tmp_path):
    # the growth law is scalar, so of verify's suites only the sampled ones load numpy
    argv = ["verify", "--family", "zk", "--params", "k=0.3,alpha=0.5", "--suite", "extensivity"]
    result, loaded = run_cold(argv)
    assert (result.returncode, result.stdout) == (0, invoke(argv, tmp_path)[1]), result.stderr
    assert {m.split(".")[0] for m in loaded} & {"numpy", "scipy"} == set()
    assert loaded & {"dataclasses", "inspect"} == set()


@pytest.mark.parametrize("horizon", [1, 2, 10, 1e4, 123456.7, 1e18])
@pytest.mark.parametrize("points", [9, 25])
def test_sample_grid_is_np_unique_of_the_rounded_logspace(horizon, points):
    import numpy as np

    expected = np.unique(np.round(np.logspace(0, math.log10(horizon), points)).astype(int)).tolist()
    grid = sample_grid(horizon, points)
    assert grid == expected
    assert all(type(n) is int for n in grid)


@pytest.mark.parametrize("points", [9, 25])
def test_sample_grid_matches_numpy_at_every_integral_horizon_and_power_of_ten(points):
    # libm's pow and numpy's power agree on these grids; above about 3e13 they can differ by one (see sample_grid)
    import numpy as np

    horizons = list(range(2, 10**5 + 1)) + [10**k for k in range(1, 19)]
    # one logspace row per horizon: the same float operations as the 1-D call, except that a zero step (horizon 1,
    # covered above) switches every row to another branch of linspace
    rows = np.round(np.logspace(0, [math.log10(h) for h in horizons], points, axis=1)).astype(int)
    mismatches = [h for h, row in zip(horizons, rows.tolist()) if sample_grid(h, points) != sorted(set(row))]
    assert mismatches == []


# every command and its subcommands (None: the command takes its options directly)
SUBCOMMANDS = {
    "entropy": ["eval", "sweep"], "verify": [None], "series": ["invert"], "grouplaw": ["expand"], "log": ["eval"],
    "exp": ["eval"], "chi": ["eval"], "extensivity": ["solve"], "qentropy": ["eval"], "lmg": ["demo"],
}
PARSER_PROBES = [[cmd, "--help"] for cmd in SUBCOMMANDS] + [[cmd] for cmd in SUBCOMMANDS] + [
    probe for cmd, subs in SUBCOMMANDS.items() for sub in subs if sub for probe in ([cmd, sub, "--help"], [cmd, sub])
]


def parser_outcome(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_subcommand_table_names_every_command():
    assert list(SUBCOMMANDS) == list(_COMMANDS)


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_parser_adds_options_to_the_named_command_only(command):
    (commands,) = (a for a in _build_parser(command)._actions if a.dest == "cmd")
    assert list(commands.choices) == list(_COMMANDS)
    # every parser starts with its -h action; only the named command's gets more
    assert [name for name, p in commands.choices.items() if len(p._actions) > 1] == [command]


@pytest.mark.parametrize("argv", PARSER_PROBES, ids=" ".join)
def test_per_command_parser_reads_as_the_full_one(argv, capsys):
    # --help, and a missing subcommand or required option, read the same whether parse_args builds the
    # named command's options only or the whole tree
    full = parser_outcome(_build_parser().parse_args, argv, capsys)
    assert parser_outcome(parse_args, argv, capsys) == full
    assert full[0] == (0 if argv[-1] == "--help" else 2)


def assert_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


class TestExitCodeContract:
    """Malformed values, float overflow or underflow and an undefined ratio are bad input (exit 2), never a
    traceback that exits 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--family", "zab", "--params", "a=800,b=0,alpha=0.5", "--trials", "20"],
            ["chi", "eval", "--family", "abel", "--params", "a=0.5,b=0", "--x", "1e300", "--y", "1e300"],
            ["lmg", "demo", "--m", "1", "--N", "14", "--occupations", "7,7", "--a", "1e300", "--alpha", "0.5"],
            ["lmg", "demo", "--m", "1", "--N", "14", "--occupations", "14,0", "--a", "2.2", "--extensive"],
            ["log", "eval", "--family", "tsallis", "--params", "q=-5", "--x", "1e300"],
            ["exp", "eval", "--family", "tsallis", "--params", "q=0.5", "--x", "1e300"],
            # the asymptotic value underflows to 0 (a=700) or overflows (a=1e300) at alpha=2
            ["lmg", "demo", "--m", "1", "--N", "14", "--occupations", "7,7", "--a", "700", "--alpha", "2"],
            ["lmg", "demo", "--m", "1", "--N", "14", "--occupations", "7,7", "--a", "1e300", "--alpha", "2"],
            # a / b underflows to 0 in the abel domain edge
            ["log", "eval", "--family", "abel", "--params", "a=1e-300,b=1e300", "--x", "1e300"],
            ["entropy", "sweep", "--family", "renyi", "--dist", "u4", "--param", "alpha=0:1e300:1"],
            # a negative seed, and malformed numbers inside an option's value
            ["verify", "--family", "renyi", "--params", "alpha=0.5", "--trials", "20", "--seed", "-1"],
            ["entropy", "eval", "--family", "renyi", "--params", "alpha=0.5", "--dist", "0.5,abc"],
            ["lmg", "demo", "--m", "1", "--N", "14", "--occupations", "7,x", "--a", "2.2", "--extensive"],
            # the sampled N grid overflows int64
            ["extensivity", "solve", "--family", "renyi", "--params", "alpha=0.5", "--horizon", "1e19"],
            # an explicit block of 0 used to run at N/2, a sweep over N < 2 printed an empty table
            ["lmg", "demo", "--m", "1", "--N", "14", "--occupations", "7,7", "--a", "2.2", "--extensive", "--L", "0"],
            ["lmg", "demo", "--m", "1", "--N", "-2", "--occupations", "1,1", "--a", "2.2", "--extensive",
             "--sweep-L"],
            # the power sum underflows to 0
            ["entropy", "eval", "--family", "renyi", "--params", "alpha=1100", "--dist", "0.5,0.5"],
            ["verify", "--family", "renyi", "--params", "alpha=1100", "--trials", "20"],
            ["verify", "--family", "landsberg_vedral", "--params", "q=1100", "--trials", "20"],
            # sizes past the bounds: an exact series order that would run for minutes, a shorthand too large to build
            ["series", "invert", "--coeffs", "0,1,1", "--order", "100000"],
            ["series", "invert", "--coeffs", "0,1,1", "--order", str(MAX_SERIES_ORDER + 1)],
            ["grouplaw", "expand", "--family", "tsallis", "--params", "q=1/2", "--order", str(MAX_SERIES_ORDER + 1)],
            ["entropy", "eval", "--family", "renyi", "--params", "alpha=0.5", "--dist", "u99999999999"],
            ["entropy", "sweep", "--family", "renyi", "--dist", "u1000000", "--param", "alpha=0.001:0.999:0.001"],
            # a repeated parameter key used to keep its last value
            ["entropy", "eval", "--family", "renyi", "--params", "alpha=0.5,alpha=2", "--dist", "u4"],
            ["grouplaw", "expand", "--family", "tsallis", "--params", "q=1/2, q=1/3", "--order", "3"],
            # a rate lam <= 0 is bad input for every family, also one whose power law ignores it
            ["verify", "--family", "tsallis_aq", "--params", "a=0.5,q=0.5", "--trials", "20", "--lam", "-1"],
            ["verify", "--family", "zq", "--params", "q=0.5,alpha=0.5", "--suite", "sk", "--trials", "20",
             "--lam", "-0"],
            ["extensivity", "solve", "--family", "tsallis_aq", "--params", "a=0.5,q=0.5", "--lam", "-1"],
            ["extensivity", "solve", "--family", "renyi", "--params", "alpha=0.5", "--lam", "0"],
            # the growth exponent 1/(a(1 - q)) divided by 0 (a=5e-324) or overflowed to inf (a=1e-320)
            ["verify", "--family", "tsallis_aq", "--params", "a=5e-324,q=0.5", "--suite", "extensivity"],
            ["extensivity", "solve", "--family", "tsallis_aq", "--params", "a=5e-324,q=0.5"],
            ["verify", "--family", "tsallis_aq", "--params", "a=1e-320,q=0.5", "--suite", "extensivity"],
            ["extensivity", "solve", "--family", "tsallis_aq", "--params", "a=1e-320,q=0.5"],
            # a parameter without a value, a sweep with a non-numeric bound, a negative tolerance
            ["entropy", "eval", "--family", "renyi", "--params", "alpha", "--dist", "u4"],
            ["entropy", "sweep", "--family", "renyi", "--dist", "u4", "--param", "alpha=a:b:c"],
            ["verify", "--family", "renyi", "--params", "alpha=0.5", "--trials", "20", "--tol", "-1"],
            # a swept key that --params also sets used to drop the --params value
            ["entropy", "sweep", "--family", "zq", "--params", "q=0.5,alpha=0.3", "--param", "alpha=0.1:0.5:0.2",
             "--dist", "u4"],
            # shorthands with no distribution: u0 is empty, d0 has no entry to put the mass on
            ["entropy", "eval", "--family", "renyi", "--params", "alpha=0.5", "--dist", "u0"],
            ["entropy", "eval", "--family", "renyi", "--params", "alpha=0.5", "--dist", "d0"],
            # G(gamma ln x) overflows, and KaniadakisGroup.eval raises its RangeError
            ["log", "eval", "--family", "kaniadakis", "--params", "k=0.5", "--x", "10", "--gamma", "1e6"],
        ],
        ids=["zab-a800", "chi-abel-1e300", "lmg-a1e300", "lmg-occupations-14-0", "log-tsallis-1e300",
             "exp-tsallis-1e300", "lmg-a700-alpha2", "lmg-a1e300-alpha2", "log-abel-ratio-underflow",
             "sweep-1e300-points", "verify-seed-minus-1", "dist-inline-abc", "lmg-occupations-7-x",
             "solve-horizon-1e19", "lmg-L-0", "lmg-N-minus-2-sweep", "eval-renyi-alpha1100",
             "verify-renyi-alpha1100", "verify-lv-q1100", "invert-order-100000", "invert-order-past-bound",
             "expand-order-past-bound", "dist-u99999999999", "sweep-entries-past-bound", "eval-repeated-key",
             "expand-repeated-key", "verify-saq-lam-minus-1", "verify-zq-lam-minus-0", "solve-saq-lam-minus-1",
             "solve-renyi-lam-0", "verify-saq-rho-divides-by-0", "solve-saq-rho-divides-by-0",
             "verify-saq-rho-inf", "solve-saq-rho-inf", "params-key-without-value", "sweep-non-numeric-bounds",
             "verify-tol-minus-1", "sweep-key-also-in-params", "dist-u0", "dist-d0", "log-kaniadakis-overflow"],
    )
    def test_exit_two_with_a_message(self, argv, capsys):
        assert_exit_two(argv, capsys)

    def test_lam_refused_by_the_library_rule_before_any_trial(self, monkeypatch, capsys):
        # composability never reads the rate, and gek.properties states the one rule for it
        import gek.properties

        monkeypatch.setattr(gek.properties, "check_composability", lambda *a: pytest.fail("a trial ran"))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "renyi", "--params", "alpha=0.5", "--suite", "composability", "--lam", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", "error: the extensivity constant must be positive and finite, got 0.0\n")

    def test_non_finite_params_rejected_while_parsing(self):
        for text in ("alpha=nan", "k=0.3,alpha=inf", "q=-inf", "a=1e309"):
            with pytest.raises(InputError, match="must be finite"):
                _float_params(text)
        # g names a group function and is left to the registry
        assert _float_params("g=abel,a=1e308,b=-0") == {"g": "abel", "a": 1e308, "b": -0.0}

    def test_negative_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("GEK_SEED", "-1")
        assert_exit_two(["verify", "--family", "renyi", "--params", "alpha=0.5", "--trials", "20"], capsys)

    def test_non_integer_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("GEK_SEED", "x")
        assert_exit_two(["verify", "--family", "renyi", "--params", "alpha=0.5", "--trials", "20"], capsys)

    @pytest.mark.parametrize(
        "command, content",
        [(["entropy", "eval", "--family", "renyi", "--params", "alpha=0.5", "--dist"], b"0.5\nabc\n0.5\n"),
         (["qentropy", "eval", "--rho"], b"0.5,0 abc\n0,0 0.5\n"),
         (["entropy", "eval", "--family", "renyi", "--params", "alpha=0.5", "--dist"], b"\xff\xfe0.5\n"),
         (["qentropy", "eval", "--rho"], b"\xff\xfe0.5\n"),
         # non-finite matrix entries used to print -0 and exit 0
         (["qentropy", "eval", "--rho"], b"nan 0\n0 1\n"),
         (["qentropy", "eval", "--rho"], b"1,nan 0\n0 0\n"),
         (["qentropy", "eval", "--rho"], b"inf 0\n0 1\n"),
         (["entropy", "eval", "--family", "renyi", "--params", "alpha=0.5", "--dist"], b""),
         (["qentropy", "eval", "--rho"], b"0.5,0,1 0\n0 0.5\n")],
        ids=["dist-file-abc", "rho-file-abc", "dist-file-not-utf8", "rho-file-not-utf8", "rho-file-nan",
             "rho-file-nan-imaginary", "rho-file-inf", "dist-file-empty", "rho-file-three-part-entry"],
    )
    def test_unreadable_file_entry(self, command, content, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_bytes(content)
        assert_exit_two(command + [str(path)], capsys)

    @pytest.mark.parametrize("q", ["1.0000000009", "0.9999999991"])
    @pytest.mark.parametrize("family, g", [("zq", ""), ("zg", "g=tsallis,"), ("altz", "g=tsallis,")])
    def test_tsallis_g_near_one_passes(self, family, g, q, tmp_path):
        # a q -> 1 cutoff in G, but not in its law, used to fail composability by about 3.5e-10
        argv = ["verify", "--family", family, "--params", f"{g}q={q},alpha=0.5", "--trials", "200", "--seed", "3"]
        code, text = invoke(argv, tmp_path)
        assert code == 0, text

    def test_tsallis_aq_growth_past_float_range(self, tmp_path):
        # W = N^200 overflowed a float before the rates were taken in log space; rho = 2e300 is still a float
        for params in ("a=0.01,q=0.5", "a=1e-300,q=0.5"):
            for argv in (["extensivity", "solve", "--family", "tsallis_aq", "--params", params],
                         ["verify", "--family", "tsallis_aq", "--params", params, "--suite", "extensivity"]):
                code, text = invoke(argv, tmp_path)
                assert code == 0, (argv, text)

    def test_abel_inverse_still_shrinks_its_bracket_out_of_overflow(self, tmp_path):
        # e^(2t) overflows while the bracket doubles t, and the bracket shrinks back
        code, text = invoke(["exp", "eval", "--family", "abel", "--params", "a=2,b=1", "--x", "1e300"], tmp_path)
        assert code == 0 and float(text) == pytest.approx(1e150, rel=1e-12)

    def test_extensivity_samples_stay_valid_json(self, tmp_path):
        def no_constant(name):
            raise AssertionError(f"non-finite JSON constant {name}")

        code, text = invoke(
            ["extensivity", "solve", "--family", "renyi", "--params", "alpha=0.5", "--lam", "1e308"], tmp_path
        )
        payload = json.loads(text, parse_constant=no_constant)
        assert code == 1 and payload["valid"] is False
        assert [s["N"] for s in payload["samples"]] == [1]
