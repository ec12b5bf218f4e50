"""The package surface: every name ``gek`` re-exports, loaded lazily from its home module."""

import importlib
import subprocess
import sys

import pytest

import gek

# the names gek re-exports, by home module; frozen so that none is dropped or moved unnoticed
EXPORTS = {
    "entropy": [
        "Distribution", "EntropySpec", "alt_z_entropy", "boltzmann", "composition_phi", "entropy_spec",
        "landsberg_vedral", "power_sum", "product_distribution", "renyi", "tsallis_aq", "z_ab", "z_entropy",
        "z_k_alpha", "z_q_alpha",
    ],
    "grouplog": [
        "AbelGroup", "GroupFunction", "GroupLogarithm", "IdentityGroup", "KaniadakisGroup", "MultiplicativeGroup",
        "SeriesGroup", "check_concavity_condition", "chi", "eval_G_inverse", "eval_exp_G", "eval_ln_G",
        "group_function",
    ],
    "growth": [
        "GrowthLaw", "PropertyReport", "check_extensivity", "round_trip_residual", "solve_growth_law", "tsallis_qstar",
    ],
    "properties": [
        "MajorizationPair", "check_composability", "check_composability_on_uniform", "check_concavity_region_saq",
        "check_group_axioms_numeric", "check_schur_concavity", "check_sk_axioms", "generate_majorization_pair",
        "majorizes", "saq_concavity_counterexample_search",
    ],
    "quantum": [
        "DensityMatrix", "DickeSpec", "LmgParams", "dicke_reduced_density", "dicke_reduced_density_dense",
        "eigenvalues", "extensive_alpha", "lmg_asymptotic_za0", "quantum_z_ab", "quantum_z_entropy", "trace_power",
        "von_neumann",
    ],
    "series": [
        "AbelCoefficients", "BivariateTruncatedSeries", "TruncatedSeries", "abel_group_coefficients", "compose",
        "group_law_from_G", "reversion", "series_from_b_sequence", "verify_group_axioms",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_is_the_frozen_list():
    assert gek.__all__ == [name for _module, name in NAMES]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _module, name in NAMES])
def test_name_resolves_to_its_home_object(module, name):
    home = importlib.import_module(f"gek.{module}")
    assert getattr(gek, name) is getattr(home, name)
    assert name in dir(gek)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from gek import *", namespace)
    assert {name for _module, name in NAMES} <= namespace.keys()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        gek.nosuch  # noqa: B018


@pytest.mark.parametrize(
    "probe",
    ["import gek.series", "import gek", "from gek import chi, reversion", "import gek.entropy",
     "from gek import entropy_spec, solve_growth_law"],
)
def test_pure_python_imports_load_no_numpy(probe):
    check = f"{probe}; import sys; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


@pytest.mark.parametrize("name", EXPORTS["growth"])
def test_properties_keeps_the_growth_names(name):
    # the growth law moved to gek.growth; gek.properties still offers the same objects
    assert getattr(importlib.import_module("gek.properties"), name) is getattr(gek, name)


def test_submodules_stay_attributes_of_the_package():
    # gek.properties and its siblings are reachable through a bare 'import gek', as callers expect
    check = "import gek; print(gek.properties.check_extensivity is gek.check_extensivity, gek.quantum.__name__)"
    result = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "True gek.quantum\n"), result.stderr


def test_distribution_loads_on_first_use():
    check = "import gek, sys; assert 'numpy' not in sys.modules; print(gek.Distribution.uniform(4).size)"
    result = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "4\n"), result.stderr


def test_the_version_is_the_projects():
    # bumped together: 0.2.0 is the version whose verify stream changed, when each chunk's draws moved to numpy
    import re
    from pathlib import Path

    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', pyproject, re.M) == [gek.__version__] == ["0.2.0"]
