"""Behavior of the verification engine itself: sensitivity, pairs, growth laws."""

import math
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gek.entropy import Distribution, EntropySpec, composition_phi, entropy_spec, product_distribution
from gek.errors import DomainError, InputError, ParameterError, RangeError
from gek.grouplog import AbelGroup, IdentityGroup, KaniadakisGroup, MultiplicativeGroup
from gek.properties import (
    GrowthLaw,
    MajorizationPair,
    PropertyReport,
    check_composability,
    check_composability_on_uniform,
    check_concavity_region_saq,
    check_extensivity,
    check_group_axioms_numeric,
    check_schur_concavity,
    check_sk_axioms,
    generate_majorization_pair,
    majorizes,
    round_trip_residual,
    saq_concavity_counterexample_search,
    solve_growth_law,
    tsallis_qstar,
    _Worst,
    _interior_rows,
)

SPECS = {
    "renyi": entropy_spec("renyi", {"alpha": 0.5}),
    "zab": entropy_spec("zab", {"a": 0.3, "b": -0.2, "alpha": 0.5}),
    "tsallis_aq": entropy_spec("tsallis_aq", {"a": 1.0, "q": 0.5}),
}


class TestComposability:
    def test_renyi_passes(self):
        report = check_composability(SPECS["renyi"], trials=1000, tol=1e-10, seed=3)
        assert report.passed and report.worst_residual <= 1e-10

    def test_zab_passes(self):
        report = check_composability(SPECS["zab"], trials=500, tol=1e-10, seed=4)
        assert report.passed

    def test_null_case(self):
        spec = SPECS["renyi"]
        d = Distribution.delta(3)
        assert spec.value(d) == 0.0
        assert spec.phi(0.0, 0.0) == 0.0

    def test_control_entropy_fails(self):
        # engine sensitivity: the quadratically weighted surprise obeys no law
        report = check_composability(entropy_spec("control"), trials=200, tol=1e-10, seed=5)
        assert not report.passed
        assert report.failures > 100
        assert report.witness  # worst case is recorded

    def test_report_shape(self):
        report = check_composability(SPECS["renyi"], trials=10, seed=6)
        d = report.as_dict()
        assert d["property"] == "composability"
        assert d["seed"] == 6
        assert d["passed"] is True

    def test_uniform_restriction(self):
        # non-normative probe: strict composability implies the uniform-only law
        report = check_composability_on_uniform(SPECS["zab"], trials=200, seed=8)
        assert report.passed
        control = check_composability_on_uniform(entropy_spec("control"), trials=200, seed=8)
        assert not control.passed


class TestGroupAxiomsNumeric:
    def test_identity_exact(self):
        report = check_group_axioms_numeric(IdentityGroup(), 0.5, trials=200, tol=1e-14, seed=0)
        assert report.passed

    def test_multiplicative(self):
        report = check_group_axioms_numeric(MultiplicativeGroup(0.7), 0.4, trials=500, tol=1e-12, seed=1)
        assert report.passed

    def test_kaniadakis(self):
        report = check_group_axioms_numeric(KaniadakisGroup(0.5), 0.5, trials=500, tol=1e-10, seed=2)
        assert report.passed

    def test_range_errors_become_skips(self):
        # both exponents positive: the function has a finite range infimum and
        # alpha > 1 pushes sampled values below it, so some trials are skipped,
        # and at alpha = 3 all of them, which leaves nothing evaluated to pass
        report = check_group_axioms_numeric(AbelGroup(2.0, 1.0), 3.0, trials=300, tol=1e-9, seed=3)
        assert report.skipped == 300 and report.failures == 0 and not report.passed
        report = check_group_axioms_numeric(AbelGroup(2.0, 1.0), 1.2, trials=300, tol=1e-9, seed=3)
        assert 0 < report.skipped < 300 and report.passed

    def test_a_report_whose_every_trial_is_skipped_fails(self):
        # at alpha = 1.5 every drawn law leaves the range of this G, so no trial is evaluated
        report = check_group_axioms_numeric(AbelGroup(2, 1), 1.5, trials=1000, seed=7)
        assert report.skipped == report.trials == 1000 and report.failures == 0
        assert report.worst_residual == 0.0 and not report.passed and not report.as_dict()["passed"]


class TestSkAxioms:
    @pytest.mark.parametrize("name", ["renyi", "zab"])
    def test_families_pass(self, name):
        continuity, maximum, expansibility = check_sk_axioms(SPECS[name], trials=200, seed=7)
        assert continuity.passed and math.isfinite(continuity.worst_residual)
        assert maximum.passed
        assert expansibility.passed and expansibility.worst_residual == 0.0

    @pytest.mark.parametrize("chunk", [1024, 7, 1])
    def test_continuity_counts_the_trials_it_skips(self, chunk, monkeypatch):
        # on one outcome the mean-free direction is 0, so no shifted vector is ever evaluated; every chunk is wholly
        # skipped, and a report that evaluated no trial does not pass
        import gek.properties as properties

        monkeypatch.setattr(properties, "_CHUNK", chunk)
        continuity = check_sk_axioms(SPECS["renyi"], 10, 0, w_values=(1,))[0]
        assert continuity.skipped == continuity.trials == 10 and not continuity.passed
        assert continuity.failures == 0 and continuity.worst_residual == 0.0 and continuity.witness == {}
        assert check_sk_axioms(SPECS["renyi"], 10, 0)[0].skipped == 0

    def test_uniform_maximum_value(self):
        spec = SPECS["renyi"]
        assert spec.uniform_value(4) == pytest.approx(math.log(4))


class TestMajorization:
    def test_partial_sum_check(self):
        assert majorizes([0.6, 0.3, 0.1], [0.4, 0.35, 0.25], tol=1e-12)
        assert not majorizes([0.4, 0.35, 0.25], [0.6, 0.3, 0.1], tol=1e-12)

    def test_exact_fractions(self):
        r = [Fraction(3, 4), Fraction(1, 4), Fraction(0)]
        p = [Fraction(1, 3)] * 3
        assert majorizes(r, p)
        assert not majorizes(p, r)

    def test_uniform_is_minimal_delta_is_maximal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = int(rng.integers(2, 7))
            q = rng.dirichlet(np.ones(w))
            assert majorizes(q.tolist(), [1.0 / w] * w, tol=1e-12)
            assert majorizes([1.0] + [0.0] * (w - 1), q.tolist(), tol=1e-12)

    def test_generated_pairs_validate_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pair = generate_majorization_pair(int(rng.integers(2, 8)), steps=int(rng.integers(1, 15)), rng=rng)
            # power-of-two mass grid makes the float dominance check exact
            assert majorizes(pair.r.p.tolist(), pair.p.p.tolist(), tol=0)

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            MajorizationPair(p=Distribution([0.9, 0.1]), r=Distribution([0.5, 0.5]))


class TestSchurConcavity:
    @pytest.mark.parametrize(
    "spec",
        [
            entropy_spec("renyi", {"alpha": 2.0}),
            entropy_spec("zab", {"a": 0.4, "b": 0.1, "alpha": 2.0}),
            entropy_spec("zq", {"q": 1.5, "alpha": 3.0}),
        ],
        ids=lambda s: s.describe(),
    )
    def test_families_pass_above_one(self, spec):
        ordering, criterion = check_schur_concavity(spec, trials=100, seed=13)
        assert ordering.passed, ordering.witness
        assert criterion.passed, criterion.witness

    def test_ordering_chain(self):
        spec = entropy_spec("renyi", {"alpha": 2.0})
        w = 5
        u, d = Distribution.uniform(w), Distribution.delta(w)
        rng = np.random.default_rng(0)
        p = Distribution(rng.dirichlet(np.ones(w)))
        assert spec.value(u) >= spec.value(p) >= spec.value(d) - 1e-12
        assert spec.value(d) == pytest.approx(0.0, abs=1e-12)


class TestGrowthLaws:
    def test_renyi_solves_to_exponential(self):
        law = solve_growth_law(entropy_spec("renyi", {"alpha": 0.5}), lam=0.25)
        assert law.kind == "exponential"
        assert law.valid and not law.restricted
        assert law.log_w(10.0) == 0.25 * 10.0
        assert law.w(4.0) == pytest.approx(math.exp(1.0))

    def test_zq_power_like_form(self):
        # q < 1 keeps the deformed exponential defined for all N
        q, alpha, lam = 0.5, 0.5, 1.0
        law = solve_growth_law(entropy_spec("zq", {"q": q, "alpha": alpha}), lam=lam)
        assert law.valid
        c = (1 - q) * (1 - alpha)
        for n in (1.0, 10.0, 250.0):
            expected = (1 + c * lam * n) ** (1 / c)
            assert law.w(n) == pytest.approx(expected, rel=1e-12)

    def test_restricted_domain_detected(self):
        # q > 1 with alpha < 1 hits the range boundary of the deformed exponential
        law = solve_growth_law(entropy_spec("zq", {"q": 3.0, "alpha": 0.5}), lam=1.0)
        assert law.restricted and not law.valid

    def test_horizon_is_bounded(self):
        # past 1e18 the sampled N grid would overflow int64
        with pytest.raises(InputError, match="horizon"):
            solve_growth_law(entropy_spec("renyi", {"alpha": 0.5}), lam=1.0, horizon=1e19)
        assert solve_growth_law(entropy_spec("renyi", {"alpha": 0.5}), lam=1.0, horizon=1e18).valid

    def test_round_trip_flat_at_large_n(self):
        spec = entropy_spec("renyi", {"alpha": 0.25})
        law = solve_growth_law(spec, lam=0.25)
        assert round_trip_residual(spec, law, 1e4) <= 1e-9

    def test_round_trip_with_rounding_at_small_n(self):
        spec = entropy_spec("zq", {"q": 0.5, "alpha": 0.5})
        law = solve_growth_law(spec, lam=1.0)
        # the residual is taken at the unrounded ln W(N), so it is rounding-level even at small N
        assert round_trip_residual(spec, law, 50.0) <= 1e-12


class TestExtensivityIndex:
    def test_direct_formula(self):
        assert tsallis_qstar(1.0, 2.0) == 0.5
        assert tsallis_qstar(2.0, 1.5) == pytest.approx(2 / 3)

    def test_validation(self):
        with pytest.raises(ParameterError):
            tsallis_qstar(-1.0, 2.0)
        with pytest.raises(ParameterError):
            tsallis_qstar(1.0, 1.0)

    @pytest.mark.parametrize("a, rho", [(math.nan, 2.0), (1.0, math.nan)], ids=["a-nan", "rho-nan"])
    def test_nan_is_refused(self, a, rho):
        # both returned nan
        with pytest.raises(ParameterError):
            tsallis_qstar(a, rho)

    def test_uniform_rate_flattens(self):
        a, rho = 1.0, 2.0
        qstar = tsallis_qstar(a, rho)
        spec = entropy_spec("tsallis_aq", {"a": a, "q": qstar})
        rates = []
        for n in (1e5, 1e6):
            rates.append(spec.uniform_value(n**rho) / n)
        assert abs(rates[1] - rates[0]) / rates[0] < 1e-3
        # the limit rate is a * rho
        assert rates[1] == pytest.approx(a * rho, rel=1e-4)

    def test_power_growth_rates_in_log_space(self):
        # rho = 200: W = N^rho overflows a float, rho * ln N does not
        (report,) = check_extensivity(entropy_spec("tsallis_aq", {"a": 0.01, "q": 0.5}))
        assert report.passed and report.witness["rho"] == pytest.approx(200.0)
        assert report.witness["rates"][1] == pytest.approx(2.0 * (1.0 - 1e-6))

    def test_bounded_family_has_no_growth_law(self):
        # q > 1 bounds the entropy by 1/(q - 1), so no W(N) makes it extensive
        spec = entropy_spec("tsallis_aq", {"a": 4.0, "q": 1.5})
        assert spec.growth is None
        with pytest.raises(ParameterError, match="no growth law"):
            check_extensivity(spec)

    def test_closed_form_matches_direct_sum(self):
        spec = entropy_spec("tsallis_aq", {"a": 1.0, "q": 0.5})
        for w in (2, 17, 301):
            direct = spec.value(Distribution.uniform(w))
            assert spec.uniform_value(w) == pytest.approx(direct, rel=1e-12)


class TestConcavityRegions:
    def test_region_predicate(self):
        assert check_concavity_region_saq(1.5, 0.5)
        assert check_concavity_region_saq(7.0, 2.0)
        assert not check_concavity_region_saq(3.0, 0.5)
        assert not check_concavity_region_saq(-1.0, 2.0)

    def test_counterexample_search_finds_violations_outside(self):
        report = saq_concavity_counterexample_search(3.0, 0.5, trials=200, seed=21)
        assert report.failures > 0  # report-only: documents non-concavity

    def test_search_clean_inside_region(self):
        report = saq_concavity_counterexample_search(1.5, 0.5, trials=200, seed=22)
        assert report.failures == 0

    @pytest.mark.parametrize("a, q, w", [(3.0, 0.5, 4), (1.5, 0.5, 9), (0.5, 2.0, 33)])
    def test_search_equals_the_per_vector_formula(self, a, q, w):
        # the search evaluates p1, p2 and their mix in one numpy expression; one formula call per vector is the reference
        exponent = a * (q - 1.0) + 1.0

        def raw(arr):
            return (1.0 - float(np.sum(arr**exponent))) / (q - 1.0)

        rng = np.random.default_rng(5)  # the search's one chunk: each trial's two rows of exponentials, then lambdas
        violations, witnesses = [], []
        exponentials, lams = rng.standard_exponential((100, 2, w)), rng.uniform(0.05, 0.95, size=100)
        for (e1, e2), lam in zip(exponentials, lams.tolist()):
            p1, p2 = 0.99 * (e1 / e1.sum()) + 0.01 / w, 0.99 * (e2 / e2.sum()) + 0.01 / w
            violations.append(lam * raw(p1) + (1 - lam) * raw(p2) - raw(lam * p1 + (1 - lam) * p2))
            witnesses.append({"p1": p1.tolist(), "p2": p2.tolist(), "lambda": lam})
        report = saq_concavity_counterexample_search(a, q, trials=100, seed=5, w=w)
        assert report.worst_residual == max(violations)
        assert report.witness == witnesses[violations.index(max(violations))]
        assert report.failures == sum(v > 1e-12 for v in violations)


class TestTrialDraws:
    @pytest.mark.parametrize("n", [1, 7, 256, 1024])
    def test_rows_of_one_kind_of_variate_keep_their_scalar_stream(self, n):
        # on-uniform draws its W pairs and group-axioms its triples in one call per chunk, the same stream as one
        # scalar call per trial, generator state included
        from gek.properties import _GROUP_AXIOMS, _ON_UNIFORM

        for seed in range(20):
            for w_values in (range(1, 9), range(1, 41), (2, 3, 5)):
                by_chunk, by_trial = np.random.default_rng(seed), np.random.default_rng(seed)
                ((key, ids, pairs),) = _ON_UNIFORM[0].draw(by_chunk, n, w_values)
                expected = [tuple(int(w_values[by_trial.integers(len(w_values))]) for _ in "ab") for _ in range(n)]
                assert key is None and ids.tolist() == list(range(n)) and pairs == expected
                assert by_chunk.bit_generator.state == by_trial.bit_generator.state
            ((_, _, triples),) = _GROUP_AXIOMS[0].draw(by_chunk, n, ())
            expected = [by_trial.uniform(0.0, 3.0, size=3) for _ in range(n)]
            assert np.array_equal(triples, expected) and type(triples[0][0]) is np.float64
            assert by_chunk.bit_generator.state == by_trial.bit_generator.state

    @pytest.mark.parametrize("row", [0, 1, 2, 3, 4, 5])
    def test_a_chunk_draw_gives_each_trial_one_shape(self, row):
        # shapes come in the order of their first trials, each with its trial ids ascending and its variates stacked
        # along the first axis, one row per trial, as wide as the shape's W
        from gek.properties import _COMPOSABILITY, _SCHUR, _SK_AXIOMS

        row = (_COMPOSABILITY + _SK_AXIOMS + _SCHUR)[row]
        w_values = range(2, 9)
        for n in (1, 7, 300):
            shapes = row.draw(np.random.default_rng(n), n, w_values)
            ids = np.concatenate([ids for _, ids, _ in shapes])
            assert sorted(ids.tolist()) == list(range(n))
            firsts = [ids[0] for _, ids, _ in shapes]
            assert firsts == sorted(firsts) and len({key for key, _, _ in shapes}) == len(shapes)
            for key, ids, variates in shapes:
                assert (np.diff(ids) > 0).all()
                widths = key if isinstance(key, tuple) else (key,) * len(variates)
                for v, w in zip(variates, widths):
                    assert v.shape[0] == len(ids) and (v.ndim == 1 or v.shape[1] == w)

    def test_checks_in_threads_report_what_they_report_alone(self):
        # the ordering draws share one read-only pvals array per w; each check owns its generator, so checks run in
        # more threads than cores report what each reports alone
        from gek.properties import _uniform_pvals

        spec = SPECS["zab"]
        jobs = [lambda s=s: check_schur_concavity(spec, 200, seed=s, w_values=(2, 3, 4, 5, 6)) for s in (1, 2)]
        jobs += [lambda s=s: check_composability(spec, 200, seed=s) for s in (3, 4)]
        alone = [job() for job in jobs]
        together = [None] * len(jobs)

        def run(k):
            together[k] = jobs[k]()

        _uniform_pvals.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert together == alone

    def test_schur_ordering_draw_is_the_block_chain(self):
        # the ordering row draws each trial's W, then its step count, then one block of chains per W, with
        # generate_majorization_pair the chain of one trial; every pair is exact on the power-of-two grid
        from gek.properties import _SCHUR, _majorization_masses

        ordering = _SCHUR[0]
        assert ordering.name == "schur-majorization-ordering" and ordering.dists == 2
        w_values = (2, 3, 5, 8)
        by_row, by_chain = np.random.default_rng(9), np.random.default_rng(9)
        shapes = ordering.draw(by_row, 300, w_values)
        drawn = by_chain.integers(0, len(w_values), size=300)
        steps = by_chain.integers(1, 12, size=300)
        assert {key for key, _, _ in shapes} == set(w_values)
        for w, ids, (masses_p, masses_r, chain_steps) in shapes:
            assert [w_values[i] for i in drawn[ids]] == [w] * len(ids)
            assert np.array_equal(chain_steps, steps[ids]) and 1 <= steps.min() and steps.max() == 11
            expected_p, expected_r = _majorization_masses(by_chain, w, steps[ids])
            assert np.array_equal(masses_p, expected_p) and np.array_equal(masses_r, expected_r)
            assert (masses_r.sum(axis=1) == 2**20).all() and (masses_p.sum(axis=1) == 2**20).all()
            for p, r in zip(masses_p.tolist(), masses_r.tolist()):
                assert majorizes(r, p, tol=0)
            blocks, extras = ordering.build(w, (masses_p, masses_r, chain_steps))
            assert extras is None
            assert np.array_equal(blocks[0], masses_r / 2**20) and np.array_equal(blocks[1], masses_p / 2**20)
        assert by_row.bit_generator.state == by_chain.bit_generator.state
        for w, k in ((2, 1), (3, 0), (5, 11), (7, 40)):
            by_pair, by_chain = np.random.default_rng(w), np.random.default_rng(w)
            pair = generate_majorization_pair(w, k, by_pair)
            masses_p, masses_r = _majorization_masses(by_chain, w, np.array([k]))
            assert np.array_equal(pair.p.p, masses_p[0] / 2**20) and np.array_equal(pair.r.p, masses_r[0] / 2**20)
            assert by_pair.bit_generator.state == by_chain.bit_generator.state
            assert k or np.array_equal(pair.p.p, pair.r.p)

    def test_every_continuity_trial_evaluates_two_vectors(self, monkeypatch):
        # p stands in for a shift that is not admissible, so a skipped trial runs two scalar tails, as any other
        calls = []
        from_row_sums = EntropySpec.from_row_sums

        def counting(self, sums):
            calls.extend(sums)
            return from_row_sums(self, sums)

        monkeypatch.setattr(EntropySpec, "from_row_sums", counting)
        skips = []
        for w_values in ((1,), (1, 3), (3,)):
            calls.clear()
            continuity = check_sk_axioms(SPECS["renyi"], 40, 0, w_values=w_values)[0]
            skips.append(continuity.skipped)
            # maximum-on-uniform evaluates 1 vector per trial and expansibility 2
            assert len(calls) == 2 * 40 + 40 + 2 * 40, w_values
        assert skips[0] == 40 and 0 < skips[1] < 40 and skips[2] == 0

    @pytest.mark.parametrize("w", [3, 6])
    def test_a_shift_that_is_not_admissible_is_never_reduced(self, w, monkeypatch):
        # a step of 0.5 sends some shifts below 0: those trials are skipped, and p is reduced in their place
        import gek.properties as properties

        monkeypatch.setattr(properties, "_STEP", 0.5)
        least = []
        block_sums = EntropySpec.block_sums

        def spying(self, block):
            least.append(float(block.min()))
            return block_sums(self, block)

        monkeypatch.setattr(EntropySpec, "block_sums", spying)
        continuity = check_sk_axioms(SPECS["renyi"], 300, 4, w_values=(w,))[0]
        negative = 0
        for _, (e, normal) in _trial_variates(properties._SK_AXIOMS[0].draw(np.random.default_rng(4), 300, (w,))):
            p = _interior(e)
            direction = normal - normal.mean()
            negative += bool((p + 0.5 * direction / np.abs(direction).sum() < 0).any())
        assert 0 < negative < 300
        assert continuity.skipped == negative
        assert least and min(least) >= 0.0

    def test_verify_builds_no_distribution_per_trial(self, monkeypatch, capsys):
        # the trial loops validate their rows in one batched pass; a Distribution per trial is per-call overhead
        from gek.cli import main

        built = []
        init = Distribution.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Distribution, "__init__", counting_init)
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--family", "renyi", "--params", "alpha=0.5", "--suite", "all", "--trials", "300"])
        assert exit_info.value.code == 0
        assert '"all_passed": true' in capsys.readouterr().out
        assert len(built) == 0

    @pytest.mark.parametrize(
        "family, params",
        [("control", {}), ("zg", {"g": "abel", "a": 0.3, "b": -0.2, "alpha": 0.5}),
         ("zab", {"a": 0.3, "b": -0.2, "alpha": 0.5}), ("tsallis_aq", {"a": 1.0, "q": 0.5}),
         ("landsberg_vedral", {"q": 0.5})],
        ids=["control", "zg-abel", "zab", "tsallis_aq", "landsberg_vedral"],
    )
    @pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 2500])
    def test_reports_match_the_reference_on_both_sides_of_a_chunk(self, trials, family, params):
        assert [repr(r.as_dict()) for r in _six_rows(entropy_spec(family, params), trials, 5)] == [
            repr(r.as_dict()) for r in _six_reference_rows(entropy_spec(family, params), trials, 5)]


# The scalar sampler that the chunk draws replaced, kept as the reference of their law: one draw per trial, each
# bounded integer through a mirror of numpy's 32-bit Lemire draw (arXiv:1805.10941) read off the bit generator's
# next_uint32, and each Schur transfer pair by Floyd's algorithm, its shuffle drawn and not applied.  Its stream is
# that of numpy's scalar integers and choice calls.


def _scalar_reader(rng):
    """``below(n)``, the value and stream of ``int(rng.integers(n))`` for 1 <= n < 2**32."""
    bits = rng.bit_generator.ctypes
    next_uint32, state = bits.next_uint32, bits.state

    def below(n):
        if n == 1:
            return 0
        m = next_uint32(state) * n
        if m & 0xFFFFFFFF < n:
            threshold = 2**32 % n
            while m & 0xFFFFFFFF < threshold:
                m = next_uint32(state) * n
        return m >> 32

    below.bit_generator = rng.bit_generator  # the state that next_uint32 writes lives as long as the reader
    return below


def _scalar_masses(w, steps, rng, below):
    masses_r = rng.multinomial(2**20, np.full(w, 1.0 / w)).tolist()
    masses_p = list(masses_r)
    for _ in range(steps):
        i, j = below(w - 1), below(w)
        if j == i:
            j = w - 1
        below(2)
        a, b = masses_p[i], masses_p[j]
        if a == b:
            continue
        if a < b:
            i, j, a, b = j, i, b, a
        amount = below((a - b) // 2 + 1)
        masses_p[i] = a - amount
        masses_p[j] = b + amount
    return masses_p, masses_r


def _scalar_draws(name, rng, trials, w_values):
    """(key, variates) of each trial of the row ``name``, drawn one trial at a time as the row drew them."""
    below, count = _scalar_reader(rng), len(w_values)
    draws = []
    for _ in range(trials):
        w = int(w_values[below(count)])
        if name == "composability":
            key = w, int(w_values[below(count)])
            draws.append((key, tuple(rng.standard_exponential(v) for v in key)))
        elif name == "sk-continuity-proxy":
            draws.append((w, (rng.standard_exponential(w), rng.normal(size=w))))
        elif name == "schur-majorization-ordering":
            steps = 1 + below(11)
            draws.append((w, (*map(np.array, _scalar_masses(w, steps, rng, below)), np.array(steps))))
        else:
            draws.append((w, (rng.standard_exponential(w),)))
    return draws


def _upper_normal_quantile(alpha):
    # z with P(Z > z) = alpha, by bisection on erfc
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if 0.5 * math.erfc(mid / math.sqrt(2)) > alpha else (lo, mid)
    return lo


def _chi_square_exceeds(counts_a, counts_b, alpha):
    """Whether two equal-sized samples' counts differ at level alpha: the two-sample chi-square test of
    homogeneity, its critical value by the Wilson-Hilferty approximation, which is close for 3 or more cells."""
    cells = sorted(set(counts_a) | set(counts_b))
    a, b = (np.array([c.get(cell, 0) for cell in cells], dtype=float) for c in (counts_a, counts_b))
    assert a.sum() == b.sum() and len(cells) >= 3
    statistic = float(((a - b) ** 2 / (a + b)).sum())
    df, z = len(cells) - 1, _upper_normal_quantile(alpha)
    return statistic > df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def _ks_exceeds(a, b, alpha):
    """Whether two samples differ at level alpha by the two-sample Kolmogorov-Smirnov test, with its asymptotic
    critical value, which is conservative where ties are many."""
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    gap = np.abs(np.searchsorted(a, grid, side="right") / a.size - np.searchsorted(b, grid, side="right") / b.size)
    return gap.max() > math.sqrt(-math.log(alpha / 2) / 2 * (a.size + b.size) / (a.size * b.size))


class TestDrawLaw:
    """The chunk draws sample the law the scalar sampler sampled: 1e5 trials of each row from each, at fixed seeds.

    W counts, and composability's (W_a, W_b) pairs, are compared by chi-square; the Schur ordering's step counts
    and each coordinate of its decreasingly sorted masses of p and of r at each W, and the first coordinate of
    every other vector variate, by two-sample Kolmogorov-Smirnov.  A row's comparisons share a family-wise
    significance of 1%, split evenly among them (Bonferroni).
    """

    TRIALS = 100_000

    @pytest.mark.parametrize("name, w_values", [
        ("composability", range(1, 9)), ("sk-continuity-proxy", (2, 3, 4, 5, 6)),
        ("sk-maximum-on-uniform", (2, 3, 4, 5, 6)), ("sk-expansibility", (2, 3, 4, 5, 6)),
        ("schur-majorization-ordering", (3, 4, 5, 6)), ("schur-ostrowski-criterion", (3, 4, 5, 6))])
    def test_each_row_draws_the_scalar_samplers_law(self, name, w_values):
        from collections import Counter

        from gek.properties import _CHUNK, _COMPOSABILITY, _SCHUR, _SK_AXIOMS

        (row,) = [row for row in _COMPOSABILITY + _SK_AXIOMS + _SCHUR if row.name == name]
        rng = np.random.default_rng(41)
        chunked = [shape for start in range(0, self.TRIALS, _CHUNK)
                   for shape in row.draw(rng, min(_CHUNK, self.TRIALS - start), w_values)]
        scalar = _scalar_draws(name, np.random.default_rng(42), self.TRIALS, w_values)
        samples = []  # (name, chunk sample, scalar sample) for each Kolmogorov-Smirnov comparison
        if name == "schur-majorization-ordering":
            samples.append(("steps", np.concatenate([v[2] for _, _, v in chunked]), [v[2] for _, v in scalar]))
            for w in w_values:
                for slot, side in enumerate("pr"):
                    ours = np.concatenate([-np.sort(-v[slot], axis=1) for key, _, v in chunked if key == w])
                    theirs = np.array([-np.sort(-v[slot]) for key, v in scalar if key == w])
                    samples += [(f"w={w} {side}[{c}]", ours[:, c], theirs[:, c]) for c in range(w)]
        else:
            for slot in range(len(scalar[0][1])):
                samples.append((f"slot {slot}", np.concatenate([v[slot][:, 0] for _, _, v in chunked]),
                                [v[slot][0] for _, v in scalar]))
        alpha = 0.01 / (1 + len(samples))
        counts = Counter()
        for key, ids, _ in chunked:
            counts[key] += len(ids)
        assert sum(counts.values()) == self.TRIALS
        assert not _chi_square_exceeds(counts, Counter(key for key, _ in scalar), alpha), name
        assert [label for label, ours, theirs in samples if _ks_exceeds(ours, theirs, alpha)] == [], name
        if name == "schur-majorization-ordering":  # the same test tells the transfers' p from their r
            for w in w_values:
                p, r = (np.concatenate([-np.sort(-v[slot], axis=1) for key, _, v in chunked if key == w])[:, 0]
                        for slot in (0, 1))
                assert _ks_exceeds(p, r, alpha), w


class TestPower:
    @pytest.mark.parametrize("eps, fails", [(1e-9, True), (0.0, False)])
    def test_a_law_defect_of_1e_9_fails_composability_at_every_seed(self, eps, fails):
        # zk's law plus eps * x * y, at the verify default of 1000 trials and tol 1e-10 (ROADMAP items 12 and 27)
        spec = entropy_spec("zk", {"k": 0.3, "alpha": 0.5})
        laws = spec._laws
        object.__setattr__(spec, "_laws", laws._replace(
            phi=lambda x, y: laws.phi(x, y) + eps * x * y,
            phis=lambda xs, ys: [v + eps * x * y for v, x, y in zip(laws.phis(xs, ys), xs, ys)]))
        reports = [check_composability(spec, 1000, 1e-10, seed) for seed in range(10)]
        assert [r.passed for r in reports] == [not fails] * 10
        assert all(r.failures > 500 for r in reports) if fails else all(r.failures == 0 for r in reports)


# The trial loop as it was before draws kept only seeded variates: each trial builds its own vectors from its own
# variates, every vector is validated and evaluated on its own, and each judge gets numpy rows.  Its trials are those
# that the rows' chunk draws give at the current _CHUNK, taken apart trial by trial.  The stacked runner must match it
# bit for bit, including at w >= 9, where numpy's pairwise summation starts to matter.


def _trial_variates(shapes):
    """Each trial's (shape key, its own variates), in trial order, from the shapes of one chunk draw."""
    trials = {}
    for key, ids, variates in shapes:
        for j, t in enumerate(ids.tolist()):
            trials[t] = key, tuple(v[j] for v in variates)
    return [trials[t] for t in range(len(trials))]


def _flat(e):
    return e / e.sum()


def _interior(e):
    return 0.99 * _flat(e) + 0.01 / e.size


def _vectors_product(key, variates):
    p, r = map(_flat, variates)
    return (p, r, np.outer(p, r).ravel()), 3, None


def _vectors_continuity(w, variates):
    e, normal = variates
    p = _interior(e)
    direction = normal - normal.mean()
    norm = np.abs(direction).sum()
    if norm > 0:
        shifted = p + 1e-6 * direction / norm
        if not (shifted < 0).any():
            return (p, shifted), 1, None
    return (p,), 1, None


def _vectors_maximum(w, variates):
    return (_flat(*variates),), 1, w


def _vectors_expansibility(w, variates):
    p = _flat(*variates)
    return (p, np.append(p, 0.0)), 2, None


def _vectors_ordering(w, variates):
    masses_p, masses_r, _ = variates
    return (np.array(masses_r, dtype=float) / 2**20, np.array(masses_p, dtype=float) / 2**20), 2, None


def _vectors_criterion(w, variates):
    p = _interior(*variates)
    h = 1e-6 * np.maximum(p, 1e-3)
    shifted = np.tile(p, (2 * p.size, 1))
    i = np.arange(p.size)
    shifted[2 * i, i] += h
    shifted[2 * i + 1, i] -= h
    return (p, *shifted), 1, h


def _reference_judges():
    def product(spec, vectors, values, _):
        s_p, s_r, joint = values
        combined = spec.phi(s_p, s_r)
        return abs(joint - combined) / (1.0 + abs(joint)), lambda: {
            "p": vectors[0].tolist(), "r": vectors[1].tolist(), "joint": joint, "combined": combined,
        }

    def continuity(spec, vectors, values, _):
        if len(vectors) == 1:
            return None
        ratio = abs(values[1] - values[0]) / 1e-6
        return ratio, lambda: ({"lipschitz_estimate": ratio} if math.isfinite(ratio) else {"p": vectors[0].tolist()})

    def maximum(spec, vectors, values, w):
        return values[0] - spec.uniform_value(w), lambda: {"p": vectors[0].tolist(), "w": w}

    def expansibility(spec, vectors, values, _):
        return abs(values[1] - values[0]), lambda: {"p": vectors[0].tolist()}

    def ordering(spec, vectors, values, _):
        r, p = vectors
        return values[0] - values[1], lambda: {"p": p.tolist(), "r": r.tolist()}

    def criterion(spec, vectors, values, h):
        grad = [(values[2 * i + 1] - values[2 * i + 2]) / (2 * hi) for i, hi in enumerate(h.tolist())]
        p, w = vectors[0].tolist(), len(grad)
        products = [(p[i] - p[j]) * (grad[i] - grad[j]) for i in range(w) for j in range(i + 1, w)]
        return (max(products) if all(v == v for v in products) else math.nan), lambda: {"p": p}

    return {
        "composability": [("composability", _vectors_product, product, 0.0, None)],
        "sk": [
            ("sk-continuity-proxy", _vectors_continuity, continuity, 0.0, sys.float_info.max),
            ("sk-maximum-on-uniform", _vectors_maximum, maximum, -math.inf, 1e-12),
            ("sk-expansibility", _vectors_expansibility, expansibility, 0.0, 1e-14),
        ],
        "schur": [
            ("schur-majorization-ordering", _vectors_ordering, ordering, -math.inf, 1e-12),
            ("schur-ostrowski-criterion", _vectors_criterion, criterion, -math.inf, 1e-10),
        ],
    }


class PerTrialWorst:
    """The fold one trial at a time: a value fails unless it is <= limit, and the first NaN, else the first
    value larger than every one before it, becomes the worst and the witness."""

    def __init__(self, worst, limit):
        self.worst, self.limit = worst, limit
        self.failures = 0
        self.witness = {}

    def add(self, value, witness):
        if value > self.worst or (value != value and self.worst == self.worst):
            self.worst = value
            self.witness = witness()
        if not value <= self.limit:
            self.failures += 1

    def report(self, name, trials, seed, skipped=0):
        return PropertyReport(name, trials, self.failures, self.worst, seed, skipped, self.witness)


def reference_run_rows(spec, rows, trials, seed, w_values, tol=None):
    """One trial at a time: each chunk's trials from the row's own chunk draw, then per trial its vectors, each
    distribution validated, ``raw_value`` per vector, judged."""
    import gek.properties as properties

    draws = {row.name: row.draw for row in properties._COMPOSABILITY + properties._SK_AXIOMS + properties._SCHUR}
    rng = np.random.default_rng(seed)
    reports = []
    for name, build, judge, worst, limit in rows:
        fold, skipped = PerTrialWorst(worst, tol if limit is None else limit), 0
        for start in range(0, trials, properties._CHUNK):
            for key, variates in _trial_variates(draws[name](rng, min(properties._CHUNK, trials - start), w_values)):
                vectors, dists, extra = build(key, variates)
                for v in vectors[:dists]:
                    Distribution(v)
                judged = judge(spec, vectors, [spec.raw_value(v) for v in vectors], extra)
                if judged is None:
                    skipped += 1
                else:
                    fold.add(*judged)
        reports.append(fold.report(name, trials, seed, skipped))
    return reports


class TestAgainstThePerTrialReference:
    """The stacked trial loop reports exactly what the per-trial loop reports, where the pin draws no w.

    The families are those of the verify-trials benchmark, and landsberg_vedral.  Both loops draw through the
    rows' chunk draws at each patched chunk size: a chunk of 7 trials splits the shapes of a chunk of 256
    unevenly, and a chunk of 1 judges each trial alone.
    """

    @pytest.mark.parametrize("seed", [3, 2024])
    @pytest.mark.parametrize(
        "family, params",
        [("control", {}), ("zg", {"g": "abel", "a": 0.3, "b": -0.2, "alpha": 0.5}),
         ("zab", {"a": 0.3, "b": -0.2, "alpha": 0.5}), ("tsallis_aq", {"a": 1.0, "q": 0.5}),
         ("landsberg_vedral", {"q": 0.5}), ("renyi", {"alpha": 0.5}), ("zq", {"q": 0.5, "alpha": 0.5}),
         ("zk", {"k": 0.3, "alpha": 0.5}), ("zg", {"g": "kaniadakis", "k": 0.4, "alpha": 0.5}),
         ("zg", {"g": "abel", "a": 2.0, "b": 1.0, "alpha": 0.5})],
        ids=["control", "zg-abel", "zab", "tsallis_aq", "landsberg_vedral", "renyi", "zq", "zk", "zg-kaniadakis",
             "zg-abel-2-1"],
    )
    def test_wide_draws_match_the_reference(self, family, params, seed, monkeypatch):
        import gek.properties as properties

        spec = entropy_spec(family, params)
        rows = _reference_judges()
        for chunk in (256, 7, 1):
            monkeypatch.setattr(properties, "_CHUNK", chunk)
            expected = reference_run_rows(spec, rows["composability"], 1000, seed, range(1, 41), 1e-10)
            expected += reference_run_rows(spec, rows["sk"], 500, seed, (9, 17, 33, 40))
            expected += reference_run_rows(spec, rows["schur"], 200, seed, (9, 17, 33))
            reports = [check_composability(spec, seed=seed, max_w=40)]
            reports += check_sk_axioms(spec, seed=seed, w_values=(9, 17, 33, 40))
            reports += check_schur_concavity(spec, seed=seed, w_values=(9, 17, 33))
            assert [r.as_dict() for r in reports] == [r.as_dict() for r in expected], chunk

    @pytest.mark.parametrize("chunk", [1024, 7, 1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("family, params", [("renyi", {"alpha": 0.5}), ("zk", {"k": 0.3, "alpha": 0.5}),
                                                ("control", {})], ids=["renyi", "zk", "control"])
    def test_the_witness_is_read_across_skipped_trials(self, family, params, seed, chunk, monkeypatch):
        # a w = 1 trial of the continuity proxy has no admissible shift and is skipped, so about a third of the
        # 300 trials are skipped among the kept ones, and the fold's i-th kept trial is not trial i
        import gek.properties as properties

        spec = entropy_spec(family, params)
        monkeypatch.setattr(properties, "_CHUNK", chunk)
        expected = reference_run_rows(spec, _reference_judges()["sk"][:1], 300, seed, (1, 2, 3))[0]
        report = check_sk_axioms(spec, 300, seed, w_values=(1, 2, 3))[0]
        assert 0 < report.skipped < 300
        assert repr(report.as_dict()) == repr(expected.as_dict())


class _NanAbove(IdentityGroup):
    """The identity G, except NaN above a threshold: an entropy that turns NaN on some inputs."""

    def __init__(self, threshold: float):
        self.threshold = threshold

    def eval(self, t: float) -> float:
        return t if t <= self.threshold else math.nan

    def eval_scaled(self, c: float, t: float) -> float:
        return self.eval(c * t) / c


class _RangeAbove(IdentityGroup):
    """The identity G, except a RangeError above a threshold: an entropy out of float range on some inputs."""

    def __init__(self, threshold: float):
        self.threshold = threshold

    def eval(self, t: float) -> float:
        if t > self.threshold:
            raise RangeError(f"G({t!r}) is out of range")
        return t

    def eval_scaled(self, c: float, t: float) -> float:
        return self.eval(c * t) / c


class _NanLaw(IdentityGroup):
    """The identity G with a composition law that is NaN everywhere."""

    def chi_scaled(self, c: float, x: float, y: float) -> float:
        return math.nan


class TestFailClosed:
    """A NaN residual, gap or criterion value is a failure and the witness, never a silent pass."""

    def test_all_nan_fails_every_check(self):
        spec = EntropySpec("zg", {"alpha": 0.5}, _NanAbove(-1.0))
        reports = [check_composability(spec, 50, 1e-10, 1)]
        reports += check_sk_axioms(spec, 50, 1) + check_schur_concavity(spec, 50, 1)
        assert [r.failures for r in reports] == [50] * 6
        for r in reports:
            assert math.isnan(r.worst_residual) and r.witness, r.name

    def test_first_nan_trial_becomes_the_witness(self):
        # finite on products of low entropy and NaN above, so NaN trials mix with finite ones
        import gek.properties as properties

        spec = EntropySpec("zg", {"alpha": 0.5}, _NanAbove(0.5 * math.log(3)))
        report = check_composability(spec, 300, 1e-10, 2)
        nan_trials = []
        products = properties._COMPOSABILITY[0].draw(np.random.default_rng(2), 300, range(1, 9))
        for _, (ea, eb) in _trial_variates(products):
            p, r = Distribution(_flat(ea)), Distribution(_flat(eb))
            if math.isnan(spec.value(product_distribution(p, r))):
                nan_trials.append(p.p.tolist())
        assert 0 < len(nan_trials) < 300
        assert report.failures == len(nan_trials)
        assert math.isnan(report.worst_residual)
        assert report.witness["p"] == nan_trials[0]

        # the continuity proxy: NaN where p or its shift has entropy above the threshold
        spec = EntropySpec("zg", {"alpha": 0.5}, _NanAbove(0.5 * math.log(4)))
        continuity = check_sk_axioms(spec, 300, 2)[0]
        nan_trials = []
        for _, (e, normal) in _trial_variates(properties._SK_AXIOMS[0].draw(np.random.default_rng(2), 300,
                                                                            (2, 3, 4, 5, 6))):
            p = _interior(e)
            direction = normal - normal.mean()
            shifted = p + 1e-6 * direction / np.abs(direction).sum()
            if math.isnan(spec.value(Distribution(shifted)) - spec.value(Distribution(p))):
                nan_trials.append(p.tolist())
        assert 1 < len(nan_trials) < 300
        assert continuity.failures == len(nan_trials)
        assert math.isnan(continuity.worst_residual)
        assert continuity.witness == {"p": nan_trials[0]}

    def test_nan_law_fails_the_law_checks(self):
        uniform = check_composability_on_uniform(EntropySpec("zg", {"alpha": 0.5}, _NanLaw()), trials=20, seed=3)
        assert uniform.failures == 20 and math.isnan(uniform.worst_residual)
        axioms = check_group_axioms_numeric(_NanLaw(), 0.5, trials=20, seed=3)
        assert axioms.failures == 20 and math.isnan(axioms.worst_residual)

    @pytest.mark.parametrize("chunk", [256, 1])
    def test_a_range_error_aborts_the_check(self, chunk, monkeypatch):
        # finite on low entropy and out of range above, as in test_first_nan_trial_becomes_the_witness
        import gek.properties as properties

        monkeypatch.setattr(properties, "_CHUNK", chunk)
        spec = EntropySpec("zg", {"alpha": 0.5}, _RangeAbove(0.5 * math.log(3)))
        with pytest.raises(RangeError, match="out of range"):
            check_composability(spec, 300, 1e-10, 2)



class _Constant(IdentityGroup):
    """G(t) = 1/4 for every t: every entropy value is the same, so every trial of a row has the same residual."""

    def eval(self, t: float) -> float:
        return 0.25

    def eval_scaled(self, c: float, t: float) -> float:
        return 0.25


class _InfAbove(IdentityGroup):
    """The identity G, except +inf above a threshold: inf - inf makes NaN residuals."""

    def __init__(self, threshold: float):
        self.threshold = threshold

    def eval(self, t: float) -> float:
        return t if t <= self.threshold else math.inf

    def eval_scaled(self, c: float, t: float) -> float:
        return self.eval(c * t) / c


class _LawRefusedAbove(IdentityGroup):
    """The identity G with a law that raises, naming its arguments, above a threshold."""

    def __init__(self, threshold: float):
        self.threshold = threshold

    def chi_scaled(self, c: float, x: float, y: float) -> float:
        if x + y > self.threshold:
            raise ZeroDivisionError(f"law at {x!r}, {y!r}")
        return x + y


class _OverflowingLaw(IdentityGroup):
    """The identity law, after a product that overflows: a numpy scalar warns there, a Python float gives inf."""

    def chi_scaled(self, c: float, x: float, y: float) -> float:
        return x + y + min(x * 1e308 * 1e308, 0.0)


def _six_rows(spec, trials, seed):
    return [check_composability(spec, trials, 1e-10, seed)] + check_sk_axioms(spec, trials, seed) \
        + check_schur_concavity(spec, trials, seed)


def _six_reference_rows(spec, trials, seed):
    rows = _reference_judges()
    expected = reference_run_rows(spec, rows["composability"], trials, seed, range(1, 9), 1e-10)
    expected += reference_run_rows(spec, rows["sk"], trials, seed, (2, 3, 4, 5, 6))
    return expected + reference_run_rows(spec, rows["schur"], trials, seed, (3, 4, 5, 6))


class TestBlockJudges:
    """Judges see a shape's block and the fold a chunk's residuals, and report what one trial at a time did."""

    def test_signed_zero_criterion_keeps_the_sign_max_gives(self):
        # all p equal, so each pair's product is 0 times a gradient gap: -0.0 where the gap is negative
        from gek.properties import _judge_criterion

        p = np.full((2, 3), 0.2)
        h = np.full((2, 3), 0.5)  # 2h = 1: gradient i is column 2i + 1 less column 2i + 2
        values = np.array([[0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
        residuals, skip, _ = _judge_criterion(None, (p, None), values, h)
        assert skip is None
        # trial 0's products are [-0.0, 0.0, 0.0], trial 1's [0.0, 0.0, 0.0]
        expected = [max((a - b) * (c - d) for a, b, c, d in ((0.2, 0.2, 1.0, 2.0), (0.2, 0.2, 1.0, 0.0),
                                                             (0.2, 0.2, 2.0, 0.0))), 0.0]
        assert [math.copysign(1.0, r) for r in residuals.tolist()] == [math.copysign(1.0, e) for e in expected]
        assert math.copysign(1.0, expected[0]) == -1.0

    def test_signed_zero_ordering_fold_keeps_the_first(self):
        from gek.properties import _judge_ordering

        values = np.array([[-0.0, 0.0], [0.0, 0.0]])  # S(p) - S(r) is -0.0, then 0.0
        residuals, _, _ = _judge_ordering(None, (), values, None)
        fold = _Worst(-math.inf, 1e-12)
        fold.fold([((0, 1), (), None)], [(0, 0), (0, 1)], [values], [(residuals, None, None)],
                  lambda blocks, values, extras, i: {"trial": i})
        reference = PerTrialWorst(-math.inf, 1e-12)
        for i, r in enumerate(residuals.tolist()):
            reference.add(r, lambda i=i: {"trial": i})
        assert repr(fold.worst) == repr(reference.worst) == repr(max(residuals.tolist())) == "-0.0"
        assert fold.witness == reference.witness == {"trial": 0}
        assert fold.failures == reference.failures == 0

    @pytest.mark.parametrize("chunk", [256, 7, 1])
    def test_equal_residuals_keep_trial_zeros_witness(self, chunk, monkeypatch):
        import gek.properties as properties

        monkeypatch.setattr(properties, "_CHUNK", chunk)
        spec = EntropySpec("zg", {"alpha": 0.5}, _Constant())
        reports = [check_composability(spec, 300, 1e-10, 4)] + check_schur_concavity(spec, 300, 4)
        rows = _reference_judges()
        expected = reference_run_rows(spec, rows["composability"], 300, 4, range(1, 9), 1e-10)
        expected += reference_run_rows(spec, rows["schur"], 300, 4, (3, 4, 5, 6))
        assert [repr(r.as_dict()) for r in reports] == [repr(r.as_dict()) for r in expected]
        # every residual is the same number (the criterion's up to the sign of 0), so trial 0 is the witness
        key, variates = _trial_variates(properties._COMPOSABILITY[0].draw(np.random.default_rng(4), chunk,
                                                                          range(1, 9)))[0]
        (p, r, _), _, _ = _vectors_product(key, variates)
        assert reports[0].witness["p"] == p.tolist() and reports[0].witness["r"] == r.tolist()
        assert reports[0].failures == 300 and reports[0].worst_residual == abs(0.5 - 1.0) / 1.5
        assert reports[1].worst_residual == 0.0 and reports[2].worst_residual == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("threshold", [-1.0, 0.5 * math.log(4)], ids=["all-inf", "some-inf"])
    def test_infinite_values_fail_without_a_warning(self, threshold):
        spec = EntropySpec("zg", {"alpha": 0.5}, _InfAbove(threshold))
        reports = _six_rows(spec, 200, 6)
        assert all(r.failures > 0 for r in reports), [r.as_dict() for r in reports]
        assert [repr(r.as_dict()) for r in reports] == [repr(r.as_dict()) for r in _six_reference_rows(spec, 200, 6)]
        if threshold < 0:
            assert [r.failures for r in reports] == [200] * 6

    def test_the_quiet_block_arithmetic_leaves_a_laws_warnings_alone(self):
        # the group-axioms row hands its numpy-scalar draws to the law, in a per-trial loop outside the block
        # arithmetic's np.errstate, so the law warns as it did in the row's own loop
        with pytest.warns(RuntimeWarning, match="overflow"):
            expected = _reference_group_axioms(_OverflowingLaw(), 0.5, 20, 1e-10, 0)
        with pytest.warns(RuntimeWarning, match="overflow"):
            report = check_group_axioms_numeric(_OverflowingLaw(), 0.5, 20, 1e-10, 0)
        assert repr(report.as_dict()) == repr(expected.as_dict())

    @pytest.mark.parametrize("chunk", [256, 7, 1])
    def test_a_judge_error_is_the_first_trials(self, chunk, monkeypatch):
        # the law raises on the products of highest entropy, which a chunk judged shape by shape would not meet in
        # trial order
        import gek.properties as properties

        spec = EntropySpec("zg", {"alpha": 0.5}, _LawRefusedAbove(3.5))
        monkeypatch.setattr(properties, "_CHUNK", chunk)
        with pytest.raises(ZeroDivisionError) as expected:
            _six_reference_rows(spec, 300, 1)
        with pytest.raises(ZeroDivisionError) as got:
            check_composability(spec, 300, 1e-10, 1)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("chunk", [1024, 256, 7, 1])
    @pytest.mark.parametrize("first", ["range", "input", "judge", "law"])
    def test_the_first_trials_error_ends_the_check_whatever_the_chunk(self, first, chunk, monkeypatch):
        # trials alternate w = 3 and w = 4 on low-entropy vectors; trial 3 (w = 4) and trial 4 (w = 3) are uniform,
        # whose entropy G refuses, or do not sum to 1, or trial 3's value (about 0.93) passes G but not the judge,
        # which refuses a value above 0.8, nor the row's law, which refuses it before the judge sees it.  The first
        # of the two raises, in any chunk that holds both
        import gek.properties as properties
        from gek.properties import _Row, _run_rows

        spec = EntropySpec("zg", {"alpha": 0.5}, _RangeAbove(0.5))
        low = {3: [0.98, 0.01, 0.01], 4: [0.97, 0.01, 0.01, 0.01]}
        refused = {3: [0.85, 0.05, 0.05, 0.05], 4: [1 / 3] * 3}
        special = {"range": {3: [0.25] * 4, 4: [0.5] * 3}, "input": {3: [0.5] * 4, 4: [1 / 3] * 3},
                   "judge": refused, "law": refused}[first]
        vectors = [special.get(t, low[3 + t % 2]) for t in range(300)]

        def refuse(who, value):
            if value > 0.8:
                raise ValueError(f"the {who} refuses {value!r}")

        with pytest.raises(Exception) as expected:  # one trial at a time: validate, evaluate, law, then judge
            for v in vectors:
                Distribution(v)
                value = spec.raw_value(v)
                if first == "law":
                    refuse("law", value)
                refuse("judge", value)
        assert expected.type is {"range": RangeError, "input": InputError}.get(first, ValueError)
        assert first not in ("judge", "law") or str(expected.value).startswith(f"the {first} refuses")

        def draw(rng, n, w_values, trials=iter(vectors)):
            drawn = [next(trials) for _ in range(n)]
            return [(w, ids, np.array([drawn[t] for t in ids.tolist()]))
                    for (w,), ids in properties._shapes(np.array([[len(v)] for v in drawn]))]

        def law(spec, values):
            for value in np.concatenate([v[:, 0] for v in values]).tolist():
                refuse("law", value)
            return [None] * len(values)

        def judge(spec, blocks, values, extras):
            for value in values[:, 0].tolist():
                refuse("judge", value)
            return values[:, 0], None, extras

        row = _Row("errors", draw, lambda key, variates: ((variates,), None), judge, lambda *args: {}, 1,
                   -math.inf, math.inf, law if first == "law" else None)
        monkeypatch.setattr(properties, "_CHUNK", chunk)
        with pytest.raises(expected.type) as got:
            _run_rows(spec, (row,), 300, 0, ())
        assert str(got.value) == str(expected.value)


class _AbelNanAbove(AbelGroup):
    """An Abel G that is NaN above a threshold: NaN entropies, and root searches that meet a NaN."""

    def __init__(self, a: float, b: float, threshold: float):
        super().__init__(a, b)
        self.threshold = threshold

    def eval(self, t: float) -> float:
        return math.nan if t > self.threshold else super().eval(t)


class _AbelRaisingAbove(_AbelNanAbove):
    """An Abel G whose eval raises ZeroDivisionError above a threshold."""

    def eval(self, t: float) -> float:
        if t > self.threshold:
            raise ZeroDivisionError(f"G({t!r}) refused")
        return AbelGroup.eval(self, t)


class _AbelNanInverse(_AbelNanAbove):
    """An Abel G whose own inverse is NaN above a threshold, so its law is NaN there."""

    def inverse(self, s: float) -> float:
        return math.nan if s > self.threshold else AbelGroup.inverse(self, s)


class _AbelOwnLaw(AbelGroup):
    """An Abel G with its own law, the additive one."""

    def chi_scaled(self, c: float, x: float, y: float) -> float:
        return x + y


class _AbelSeen(AbelGroup):
    """An Abel G that notes each t its overridden method sees, in ``seen``."""

    def __init__(self, a: float, b: float):
        self.seen = []
        super().__init__(a, b)


class _AbelOwnEval(_AbelSeen):
    def eval(self, t: float) -> float:
        self.seen.append(t)
        return AbelGroup.eval(self, t)


class _AbelOwnFormula(_AbelSeen):
    def formula(self, t: float) -> float:
        self.seen.append(t)
        return AbelGroup.formula(self, t)


class _AbelOwnDomain(_AbelSeen):
    def _check_domain(self, t: float) -> None:
        self.seen.append(t)
        AbelGroup._check_domain(self, t)


def _outcome(run):
    """The report of ``run()`` as a repr, or the type and message of the error it raises."""
    try:
        return repr(run().as_dict())
    except Exception as e:
        return type(e), str(e)


class TestChunkLaw:
    """The product row runs its law once per chunk, over every shape, and reports what one trial at a time did."""

    @pytest.mark.parametrize("trials, calls", [(1000, 1), (1025, 2), (2500, 3)])
    def test_one_block_law_per_chunk(self, trials, calls, monkeypatch):
        import gek.grouplog as grouplog

        seen = []
        block = grouplog._chi_scaled_block

        def spy(g, c, xs, ys):
            law = block(g, c, xs, ys)
            seen.append((len(xs), law is not None))
            return law

        monkeypatch.setattr(grouplog, "_chi_scaled_block", spy)
        spec = entropy_spec("zab", {"a": 0.3, "b": -0.2, "alpha": 0.5})
        report = check_composability(spec, trials)
        sizes = [min(1024, trials - start) for start in range(0, trials, 1024)]
        assert seen == [(n, True) for n in sizes] and len(seen) == calls
        monkeypatch.setattr(grouplog, "_chi_scaled_block", lambda *args: None)  # the scalar law, pair by pair
        assert repr(check_composability(spec, trials).as_dict()) == repr(report.as_dict())

    @pytest.mark.parametrize("chunk", [1024, 7, 1])
    @pytest.mark.parametrize(
        "g, block",
        [(_AbelNanAbove(0.3, -0.2, 50.0), True), (_AbelNanAbove(0.3, -0.2, 3.0), True),
         (_AbelNanAbove(0.3, -0.2, 1.5), True), (_AbelNanAbove(2.0, 1.0, 0.9), True),
         (_AbelRaisingAbove(0.3, -0.2, 50.0), True), (_AbelRaisingAbove(0.3, -0.2, 3.0), True),
         (_AbelRaisingAbove(2.0, 1.0, 0.9), True), (_AbelNanInverse(0.3, -0.2, 0.4), False),
         (_AbelNanInverse(0.3, -0.2, 50.0), False), (_AbelOwnLaw(0.3, -0.2), False)],
        ids=["nan-above-50", "nan-above-3", "nan-above-1.5", "nan-above-0.9-2-1", "raise-above-50", "raise-above-3",
             "raise-above-0.9-2-1", "nan-inverse-above-0.4", "nan-inverse-above-50", "own-law"],
    )
    def test_abel_subclasses_match_the_per_trial_loop(self, g, block, chunk, monkeypatch):
        import gek.grouplog as grouplog
        import gek.properties as properties

        spec = EntropySpec("zg", {"alpha": 0.5}, g)
        rows = _reference_judges()["composability"]
        monkeypatch.setattr(properties, "_CHUNK", chunk)
        expected = _outcome(lambda: reference_run_rows(spec, rows, 300, 5, range(1, 9), 1e-10)[0])
        seen, law = [], grouplog._chi_scaled_block
        monkeypatch.setattr(grouplog, "_chi_scaled_block", lambda *args: seen.append(args) or law(*args))
        assert _outcome(lambda: check_composability(spec, 300, 1e-10, 5)) == expected
        if not block:  # an overridden inverse or chi_scaled keeps its own code
            assert not seen
        elif isinstance(expected, str):  # no entropy value raised, so every chunk reached the law
            assert seen
        elif seen:  # the law raised (a tail that raises here does so in the first chunk, before any law): the
            # chunk's call, then the replay runs the law again, one pair a trial
            sizes = [len(xs) for _, _, xs, _ in seen]
            assert sizes[-1] == 1 and len(sizes) > 1
            if chunk > 1:
                first = sizes.index(1)
                assert sizes[first - 1] > 1 and set(sizes[first:]) == {1}
            else:  # the failing trial's own chunk, then its replay
                assert repr(seen[-1]) == repr(seen[-2])

    @pytest.mark.parametrize("g", [_AbelOwnEval(0.3, -0.2), _AbelOwnFormula(2.0, 1.0), _AbelOwnDomain(0.3, -0.2),
                                   _AbelOwnDomain(2.0, 1.0)], ids=["eval", "formula-2-1", "domain", "domain-2-1"])
    def test_an_abel_subclass_runs_its_own_g_once_per_element_in_the_block_law(self, g, monkeypatch):
        import gek.grouplog as grouplog

        lists, eval_block = [], AbelGroup.eval_block

        def spy(self, ts):
            start = len(self.seen)
            values = eval_block(self, ts)
            lists.append(self.seen[start:] == ts)
            return values

        monkeypatch.setattr(AbelGroup, "eval_block", spy)
        spec = EntropySpec("zg", {"alpha": 0.5}, g)
        report = check_composability(spec, 300)
        assert lists and all(lists)
        monkeypatch.setattr(grouplog, "_chi_scaled_block", lambda *args: None)  # the scalar law, pair by pair
        assert repr(check_composability(spec, 300).as_dict()) == repr(report.as_dict())


def test_the_readme_names_every_row_field():
    # the README describes a _Row twice, in the module table and above the six phases of the trial loop
    from gek.properties import _Row

    text = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    for pattern in (r"`_Row` records \((.*?)\) run by", r"a `_Row` holds (.*?)\. One runner"):
        found = re.search(pattern, text)
        assert found, pattern
        assert [f for f in _Row._fields if not re.search(rf"`{f}\b", found.group(1))] == [], pattern


# The three checks with no vector slot as they ran before they became rows: their own rng, trial loop and fold.


def _reference_on_uniform(spec, trials, tol, seed, max_w):
    rng = np.random.default_rng(seed)
    fold = PerTrialWorst(0.0, tol)
    for _ in range(trials):
        wa = int(rng.integers(1, max_w + 1))
        wb = int(rng.integers(1, max_w + 1))
        joint = spec.uniform_value(wa * wb)
        combined = spec.phi(spec.uniform_value(wa), spec.uniform_value(wb))
        fold.add(abs(joint - combined) / (1.0 + abs(joint)), lambda: {"w_a": wa, "w_b": wb})
    return fold.report("composability-on-uniform", trials, seed)


def _reference_group_axioms(g, alpha, trials, tol, seed):
    rng = np.random.default_rng(seed)
    fold = PerTrialWorst(0.0, tol)
    skipped = 0
    for _ in range(trials):
        x, y, z = rng.uniform(0.0, 3.0, size=3)
        try:
            sym = abs(composition_phi(g, alpha, x, y) - composition_phi(g, alpha, y, x))
            left = composition_phi(g, alpha, composition_phi(g, alpha, x, y), z)
            right = composition_phi(g, alpha, x, composition_phi(g, alpha, y, z))
            null = abs(composition_phi(g, alpha, x, 0.0) - x)
        except (RangeError, DomainError):
            skipped += 1
            continue
        parts = (sym, abs(left - right), null)
        residual = max(parts) if all(v == v for v in parts) else math.nan
        fold.add(residual / (1.0 + abs(x) + abs(y) + abs(z)), lambda: {"x": x, "y": y, "z": z})
    return fold.report("group-axioms", trials, seed, skipped)


def _reference_saq(a, q, trials, seed, w):
    # each chunk draws its trials' two rows of exponentials, then their mixing weights
    import gek.properties as properties

    rng = np.random.default_rng(seed)
    exponent = a * (q - 1.0) + 1.0
    found = PerTrialWorst(-math.inf, 1e-12)
    for start in range(0, trials, properties._CHUNK):
        n = min(properties._CHUNK, trials - start)
        exponentials, lams = rng.standard_exponential((n, 2, w)), rng.uniform(0.05, 0.95, size=n)
        for e, lam in zip(exponentials, lams.tolist()):
            p1, p2 = (Distribution(v).p for v in _interior_rows(w, e))
            mix = lam * p1 + (1 - lam) * p2
            raw = ((1.0 - np.sum(np.array([p1, p2, mix]) ** exponent, axis=1)) / (q - 1.0)).tolist()
            violation = lam * raw[0] + (1 - lam) * raw[1] - raw[2]
            found.add(violation, lambda: {"p1": p1.tolist(), "p2": p2.tolist(), "lambda": lam})
    return found.report("saq-concavity-counterexample-search", trials, seed)


class TestScalarRowsAgainstTheirLoops:
    """The rows with no vector slot report exactly what their own trial loops reported, at any chunk size.

    Reports are compared by repr, where a NaN equals a NaN and numpy scalars stay apart from floats.
    """

    @pytest.mark.parametrize(
        "family, params",
        [("renyi", {"alpha": 0.5}), ("zab", {"a": 0.3, "b": -0.2, "alpha": 0.5}), ("control", {}),
         ("zg", {"g": "abel", "a": 0.3, "b": -0.2, "alpha": 0.5}), ("tsallis_aq", {"a": 1.0, "q": 0.5}),
         ("landsberg_vedral", {"q": 0.5}), ("altz", {"g": "kaniadakis", "k": 0.4, "alpha": 0.7})],
        ids=["renyi", "zab", "control", "zg-abel", "tsallis_aq", "landsberg_vedral", "altz-kaniadakis"],
    )
    def test_on_uniform_matches_its_loop(self, family, params, monkeypatch):
        import gek.properties as properties

        spec = entropy_spec(family, params)
        cases = [(t, s, w) for s in (0, 3, 8, 99) for t in (1, 7, 200, 300) for w in (1, 8, 40)]
        expected = [repr(_reference_on_uniform(spec, t, 1e-10, s, w).as_dict()) for t, s, w in cases]
        for chunk in (256, 1):
            monkeypatch.setattr(properties, "_CHUNK", chunk)
            got = [repr(check_composability_on_uniform(spec, t, 1e-10, s, w).as_dict()) for t, s, w in cases]
            assert got == expected, chunk

    @pytest.mark.parametrize(
        "g",
        [IdentityGroup(), MultiplicativeGroup(0.7), KaniadakisGroup(0.5), AbelGroup(2.0, 1.0), AbelGroup(0.3, -0.2),
         _NanLaw()],
        ids=["id", "tsallis", "kaniadakis", "abel-2-1", "abel-0.3--0.2", "nan-law"],
    )
    def test_group_axioms_match_their_loop(self, g, monkeypatch):
        import gek.properties as properties

        cases = [(a, t, s) for a in (0.4, 0.5, 3.0) for t in (1, 7, 300) for s in (0, 2)]
        reports = [_reference_group_axioms(g, a, t, 1e-10, s) for a, t, s in cases]
        expected = [repr(r.as_dict()) for r in reports]
        for chunk in (256, 1):
            monkeypatch.setattr(properties, "_CHUNK", chunk)
            got = [repr(check_group_axioms_numeric(g, a, t, 1e-10, s).as_dict()) for a, t, s in cases]
            assert got == expected, chunk
        if isinstance(g, AbelGroup) and g.a == 2.0:
            assert any(r.skipped for r in reports)
        if isinstance(g, _NanLaw):
            assert all(r.failures == r.trials for r in reports)

    @pytest.mark.parametrize("a, q", [(3.0, 0.5), (1.5, 0.5), (0.5, 0.5), (1.0, 1.5), (2.0, 3.0), (0.2, -1.0)])
    def test_saq_search_matches_its_loop(self, a, q, monkeypatch):
        import gek.properties as properties

        cases = [(t, s, w) for t in (1, 7, 200, 300) for s in (0, 5, 21, 99) for w in (1, 2, 4, 9)]
        for chunk in (256, 1):
            monkeypatch.setattr(properties, "_CHUNK", chunk)
            reports = [_reference_saq(a, q, t, s, w) for t, s, w in cases]
            got = [repr(saq_concavity_counterexample_search(a, q, t, s, w).as_dict()) for t, s, w in cases]
            assert got == [repr(r.as_dict()) for r in reports], chunk
            if not check_concavity_region_saq(a, q):
                assert any(r.failures for r in reports)
        for trials in (0, -3):
            with pytest.raises(InputError, match="at least one trial"):
                saq_concavity_counterexample_search(a, q, trials)


def _sampled_checks(trials):
    """Each public sampled check, on a spec or law that passes it."""
    spec = SPECS["renyi"]
    return {
        "composability": lambda: check_composability(spec, trials),
        "composability-on-uniform": lambda: check_composability_on_uniform(spec, trials),
        "group-axioms": lambda: check_group_axioms_numeric(KaniadakisGroup(0.5), 0.5, trials),
        "sk": lambda: check_sk_axioms(spec, trials),
        "schur": lambda: check_schur_concavity(spec, trials),
        "saq-search": lambda: saq_concavity_counterexample_search(1.5, 0.5, trials),
    }


class TestOneRunner:
    @pytest.mark.parametrize("trials", [0, -1])
    def test_every_sampled_check_rejects_fewer_than_one_trial(self, trials):
        # no trial is no evidence: a report of 0 trials would pass
        for name, check in _sampled_checks(trials).items():
            with pytest.raises(InputError, match="at least one trial"):
                check()

    @pytest.mark.parametrize("trials", [2.5, math.nan, 3.0])
    def test_trials_must_be_a_whole_number(self, trials):
        # 2.5 and nan reached range() as a bare TypeError
        with pytest.raises(InputError, match="at least one trial"):
            check_composability(SPECS["renyi"], trials)

    def test_numpy_integer_trials_are_whole(self):
        assert check_composability(SPECS["renyi"], np.int64(3)).trials == 3

    @pytest.mark.parametrize(
        "check, least",
        [(lambda: check_composability(SPECS["renyi"], 10, max_w=0), 1),
         (lambda: check_composability_on_uniform(SPECS["renyi"], 10, max_w=0), 1),
         (lambda: check_sk_axioms(SPECS["renyi"], 10, w_values=()), 1),
         (lambda: check_sk_axioms(SPECS["renyi"], 10, w_values=(0,)), 1),
         (lambda: check_sk_axioms(SPECS["renyi"], 10, w_values=(3, -2)), 1),
         (lambda: check_schur_concavity(SPECS["renyi"], 10, w_values=()), 2),
         (lambda: check_schur_concavity(SPECS["renyi"], 10, w_values=(1,)), 2),
         (lambda: check_schur_concavity(SPECS["renyi"], 10, w_values=(4, 1)), 2),
         (lambda: saq_concavity_counterexample_search(3.0, 0.5, w=0), 1),
         # a W that is not an integer used to pass, or to fail in range() or numpy with a bare TypeError
         (lambda: check_sk_axioms(SPECS["renyi"], 10, w_values=(2.5,)), 1),
         (lambda: check_schur_concavity(SPECS["renyi"], 10, w_values=(3.7,)), 2),
         (lambda: check_composability(SPECS["renyi"], 10, max_w=2.5), 1),
         (lambda: saq_concavity_counterexample_search(3.0, 0.5, w=2.5), 1)],
        ids=["composability-max-w-0", "on-uniform-max-w-0", "sk-empty", "sk-0", "sk-negative", "schur-empty",
             "schur-1", "schur-4-1", "saq-search-0", "sk-2.5", "schur-3.7", "composability-max-w-2.5",
             "saq-search-2.5"],
    )
    def test_every_sampled_check_rejects_a_degenerate_w_range_before_any_draw(self, check, least, monkeypatch):
        import gek.properties as properties

        monkeypatch.setattr(properties, "_run_rows", None)  # the range is checked before the runner is reached
        with pytest.raises(InputError, match=f"one or more W values, each at least {least}"):
            check()

    @pytest.mark.parametrize(
        "check",
        [lambda: check_composability(SPECS["renyi"], 10, max_w=2**32),
         lambda: check_composability_on_uniform(SPECS["renyi"], 10, max_w=2**40),
         lambda: check_sk_axioms(SPECS["renyi"], 10, w_values=range(2, 2**32 + 2)),
         lambda: check_composability(SPECS["renyi"], 10, max_w=10**30)],
        ids=["composability", "on-uniform", "sk", "composability-no-len"],
    )
    def test_more_w_values_than_a_bounded_draw_reaches_are_refused(self, check, monkeypatch):
        # W is drawn by its index, rng.integers(0, len(w_values)), which numpy draws by another method past 2**32
        import gek.properties as properties

        monkeypatch.setattr(properties, "_run_rows", None)
        with pytest.raises(InputError, match=r"at most 2\*\*32 - 1 W values"):
            check()

    @pytest.mark.parametrize(
        "check, total",
        [(lambda: check_sk_axioms(SPECS["renyi"], 300), r"1\.49"),
         (lambda: check_composability(SPECS["renyi"], 300), r"1\.5")],
        ids=["sk", "composability"],
    )
    def test_a_drawn_vector_that_is_not_a_distribution_fails_closed(self, check, total, monkeypatch):
        # the k-th build scales its first row by 1.5 + k / 4, so only the first bad vector in (trial, slot) order,
        # trial 0's first slot, sums to 1.5 (to 1.495 as the continuity draw's 0.99 p + 0.01 / w)
        import gek.properties as properties

        rows, builds = properties._flat_dirichlet_rows, []

        def scaled(exponentials):
            p = rows(exponentials)
            p[0] *= 1.5 + len(builds) / 4
            builds.append(1)
            return p

        monkeypatch.setattr(properties, "_flat_dirichlet_rows", scaled)
        with pytest.raises(InputError, match=rf"^probabilities sum to {total}"):
            check()
        assert len(builds) > 2  # bad vectors past the first were drawn too

    def test_group_axioms_reject_a_bad_alpha_before_any_trial(self):
        with pytest.raises(ParameterError, match="alpha = 1 is excluded"):
            check_group_axioms_numeric(KaniadakisGroup(0.5), 1.0, trials=0)
        with pytest.raises(ParameterError, match="alpha must be positive and finite, got nan"):
            check_group_axioms_numeric(KaniadakisGroup(0.5), math.nan)

    def test_every_sampled_check_runs_through_run_rows_once(self, monkeypatch):
        # the one trial loop that a grid, diagnostics, a referee or mutants can hook
        import gek.properties as properties

        calls = []
        run_rows = properties._run_rows

        def counting(*args, **kwargs):
            calls.append(1)
            return run_rows(*args, **kwargs)

        monkeypatch.setattr(properties, "_run_rows", counting)
        for name, check in _sampled_checks(10).items():
            calls.clear()
            check()
            assert len(calls) == 1, name


class TestExtensivityRateFailsClosed:
    """A rate lam that is not positive and finite is refused by the library, as the CLI refuses it."""

    @pytest.mark.parametrize("lam", [-5.0, 0.0, math.nan, math.inf])
    def test_power_family_refuses_a_bad_rate(self, lam):
        # the power branch never reads lam, so it used to pass at lam = -5 and at nan
        with pytest.raises(ParameterError, match="extensivity constant must be positive and finite"):
            check_extensivity(entropy_spec("tsallis_aq", {"a": 0.8, "q": 0.5}), lam)

    @pytest.mark.parametrize("lam", [-5.0, 0.0, math.nan, math.inf])
    def test_group_family_refuses_a_bad_rate(self, lam):
        spec = entropy_spec("renyi", {"alpha": 0.5})
        with pytest.raises(ParameterError, match="extensivity constant must be positive and finite"):
            check_extensivity(spec, lam)
        with pytest.raises(ParameterError, match="extensivity constant must be positive and finite"):
            solve_growth_law(spec, lam)

    def test_solve_refuses_nan(self):
        # lam <= 0 let nan through to an invalid law
        with pytest.raises(ParameterError):
            solve_growth_law(entropy_spec("zq", {"q": 0.5, "alpha": 0.5}), math.nan)

    def test_growth_law_is_defined_from_one(self):
        law = solve_growth_law(entropy_spec("renyi", {"alpha": 0.5}), lam=1.0)
        with pytest.raises(ValueError, match="N >= 1"):
            law.log_w(0.5)

    def test_growth_law_refuses_nan(self):
        # the guard n < 1 let nan through to a nan ln W
        with pytest.raises(ValueError, match="N >= 1"):
            GrowthLaw(kind="exponential", lam=1.0).log_w(math.nan)


class TestMajorizationFailsClosed:
    def test_unequal_lengths_are_refused(self):
        with pytest.raises(ValueError, match="equal length"):
            majorizes([1.0, 0.0], [0.5, 0.25, 0.25])

    def test_a_pair_needs_two_outcomes(self):
        with pytest.raises(ValueError, match="at least two outcomes"):
            generate_majorization_pair(1, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("w, steps, match", [(4, -1, "steps"), (4, 2.5, "steps"), (4, math.nan, "steps"),
                                                 (4, "3", "steps"), (4.0, 3, "outcomes"), (2.5, 3, "outcomes")])
    def test_a_negative_or_fractional_count_is_refused(self, w, steps, match):
        # steps = -1 returned p == r, and 2.5 or w = 4.0 raised a bare TypeError
        with pytest.raises(ValueError, match=f"number of (transfer )?{match} must be an integer"):
            generate_majorization_pair(w, steps, np.random.default_rng(0))

    def test_numpy_integer_counts_are_whole(self):
        pair = generate_majorization_pair(np.int64(4), np.int32(0), np.random.default_rng(0))
        assert np.array_equal(pair.p.p, pair.r.p) and pair.p.p.size == 4
