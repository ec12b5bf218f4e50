"""Group-entropy kit: formal group laws, composable entropies, and their verification.

The names below are loaded on first use (PEP 562), so ``import gek.series`` or
``from gek import chi`` does not import numpy.  Only ``properties`` and
``quantum`` import it when they load; ``entropy`` imports it where a vector is
touched, so ``from gek import entropy_spec, solve_growth_law`` does not.
"""

import importlib

_EXPORTS = {
    "entropy": (
        "Distribution",
        "EntropySpec",
        "alt_z_entropy",
        "boltzmann",
        "composition_phi",
        "entropy_spec",
        "landsberg_vedral",
        "power_sum",
        "product_distribution",
        "renyi",
        "tsallis_aq",
        "z_ab",
        "z_entropy",
        "z_k_alpha",
        "z_q_alpha",
    ),
    "grouplog": (
        "AbelGroup",
        "GroupFunction",
        "GroupLogarithm",
        "IdentityGroup",
        "KaniadakisGroup",
        "MultiplicativeGroup",
        "SeriesGroup",
        "check_concavity_condition",
        "chi",
        "eval_G_inverse",
        "eval_exp_G",
        "eval_ln_G",
        "group_function",
    ),
    "growth": (
        "GrowthLaw",
        "PropertyReport",
        "check_extensivity",
        "round_trip_residual",
        "solve_growth_law",
        "tsallis_qstar",
    ),
    "properties": (
        "MajorizationPair",
        "check_composability",
        "check_composability_on_uniform",
        "check_concavity_region_saq",
        "check_group_axioms_numeric",
        "check_schur_concavity",
        "check_sk_axioms",
        "generate_majorization_pair",
        "majorizes",
        "saq_concavity_counterexample_search",
    ),
    "quantum": (
        "DensityMatrix",
        "DickeSpec",
        "LmgParams",
        "dicke_reduced_density",
        "dicke_reduced_density_dense",
        "eigenvalues",
        "extensive_alpha",
        "lmg_asymptotic_za0",
        "quantum_z_ab",
        "quantum_z_entropy",
        "trace_power",
        "von_neumann",
    ),
    "series": (
        "AbelCoefficients",
        "BivariateTruncatedSeries",
        "TruncatedSeries",
        "abel_group_coefficients",
        "compose",
        "group_law_from_G",
        "reversion",
        "series_from_b_sequence",
        "verify_group_axioms",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.2.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, reachable through a bare 'import gek'
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
