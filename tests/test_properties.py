"""Behavior of the verification engine itself: sensitivity, pairs, growth laws."""

import math
import sys
import threading
from fractions import Fraction

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
    _below,
    _bounded,
    _flat_dirichlet_rows,
    _interior_rows,
    _majorization_masses,
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
        # alpha > 1 pushes sampled values below it, so some trials are skipped
        report = check_group_axioms_numeric(AbelGroup(2.0, 1.0), 3.0, trials=300, tol=1e-9, seed=3)
        assert report.passed
        assert report.skipped > 0


class TestSkAxioms:
    @pytest.mark.parametrize("name", ["renyi", "zab"])
    def test_families_pass(self, name):
        continuity, maximum, expansibility = check_sk_axioms(SPECS[name], trials=200, seed=7)
        assert continuity.passed and math.isfinite(continuity.worst_residual)
        assert maximum.passed
        assert expansibility.passed and expansibility.worst_residual == 0.0

    def test_continuity_counts_the_trials_it_skips(self):
        # on one outcome the mean-free direction is 0, so no shifted vector is ever evaluated
        continuity = check_sk_axioms(SPECS["renyi"], 10, 0, w_values=(1,))[0]
        assert continuity.skipped == 10 and continuity.passed
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

        rng = np.random.default_rng(5)
        violations, witnesses = [], []
        for _ in range(100):
            p1 = 0.99 * rng.dirichlet(np.ones(w)) + 0.01 / w
            p2 = 0.99 * rng.dirichlet(np.ones(w)) + 0.01 / w
            lam = rng.uniform(0.05, 0.95)
            violations.append(lam * raw(p1) + (1 - lam) * raw(p2) - raw(lam * p1 + (1 - lam) * p2))
            witnesses.append({"p1": p1.tolist(), "p2": p2.tolist(), "lambda": lam})
        report = saq_concavity_counterexample_search(a, q, trials=100, seed=5, w=w)
        assert report.worst_residual == max(violations)
        assert report.witness == witnesses[violations.index(max(violations))]
        assert report.failures == sum(v > 1e-12 for v in violations)


class TestTrialDraws:
    def test_indexing_by_integers_draws_the_same_stream_as_choice(self):
        # the trial loops draw w as w_values[rng.integers(len(w_values))] in place of rng.choice(w_values)
        for w_values in ((2, 3, 4, 5, 6), (3, 4, 5, 6), (7,)):
            by_choice, by_index = np.random.default_rng(2024), np.random.default_rng(2024)
            drawn_choice = [int(by_choice.choice(w_values)) for _ in range(20_000)]
            drawn_index = [int(w_values[by_index.integers(len(w_values))]) for _ in range(20_000)]
            assert drawn_choice == drawn_index
            assert by_choice.bit_generator.state == by_index.bit_generator.state
        # composability draws w from range(1, max_w + 1), through the reader, in place of rng.integers(1, max_w + 1)
        for k in (1, 2, 7, 8, 40):
            by_bounds, by_range = np.random.default_rng(k), np.random.default_rng(k)
            below, w_values = _bounded(by_range), range(1, k + 1)
            drawn_bounds = [int(by_bounds.integers(1, k + 1)) for _ in range(20_000)]
            drawn_range = [int(w_values[below(len(w_values))]) for _ in range(20_000)]
            assert drawn_bounds == drawn_range
            assert by_bounds.bit_generator.state == by_range.bit_generator.state

    @staticmethod
    def assert_integers_stream(reader):
        """``reader(rng)(n)`` draws what ``int(rng.integers(n))`` draws, interleaved with other draws of rng.

        200 seeds of fixed and random bounds up to 2**32 - 1; 2**31 + 3 and 3 * 2**30 reach the redraw.
        If numpy ever changes how integers draws, this fails before any pinned report moves.
        """
        fixed = (1, 2, 3, 11, 40, 2**19 + 1, 2**31 + 3, 3 * 2**30, 2**32 - 1)
        for seed in range(200):
            by_integers, by_below = np.random.default_rng(seed), np.random.default_rng(seed)
            below = reader(by_below)
            plan = np.random.default_rng(10_000 + seed)
            for _ in range(60):
                if plan.random() < 0.5:
                    n = fixed[plan.integers(len(fixed))]
                else:
                    n = min(int(2 ** plan.uniform(0, 32)), 2**32 - 1)
                assert below(n) == int(by_integers.integers(n)), (seed, n)
                # the other draws share the bit generator, and its half-word buffer, with the bounded ones
                other, w = plan.integers(4), int(plan.integers(1, 9))
                for rng in (by_integers, by_below):
                    if other == 1:
                        rng.multinomial(2**20, np.full(w, 1.0 / w))
                    elif other == 2:
                        rng.standard_exponential(w)
                    elif other == 3:
                        rng.normal(size=w)
            assert by_integers.bit_generator.state == by_below.bit_generator.state, seed

    def test_below_draws_the_same_stream_as_integers(self):
        # _below binds a reader per call
        self.assert_integers_stream(lambda rng: lambda n: _below(rng, n))
        rng = np.random.default_rng(0)
        for n in (0, -1, 2**32, 2**40):
            with pytest.raises(ValueError):
                _below(rng, n)

    def test_one_reader_per_generator_draws_the_same_stream_as_integers(self):
        # every bounded draw of the trial loops goes through one reader, bound once per generator
        self.assert_integers_stream(_bounded)

    @staticmethod
    def reference_masses(w, steps, rng):
        """The transfer chain drawn by numpy calls: rng.choice for each pair, rng.integers for each amount."""
        masses_r = rng.multinomial(2**20, np.full(w, 1.0 / w)).tolist()
        masses_p = list(masses_r)
        for _ in range(steps):
            i, j = (int(v) for v in rng.choice(w, size=2, replace=False))
            if masses_p[i] == masses_p[j]:
                continue
            if masses_p[i] < masses_p[j]:
                i, j = j, i
            amount = int(rng.integers((masses_p[i] - masses_p[j]) // 2 + 1))
            masses_p[i] -= amount
            masses_p[j] += amount
        return masses_p, masses_r

    def test_transfer_chain_draws_the_same_stream_as_choice_without_replacement(self):
        # the chain draws each transfer pair by three bounded draws in place of rng.choice; a 60-step chain at
        # w = 2 closes the gap in far fewer steps, and each step after that draws a pair of equal masses and no amount
        closed = 0
        for w in range(2, 10):
            by_choice, by_reader = np.random.default_rng(w), np.random.default_rng(w)
            below = _bounded(by_reader)
            for steps in [1, 2, 11, 60] * 200:
                expected = self.reference_masses(w, steps, by_choice)
                assert _majorization_masses(w, steps, by_reader, below) == expected, (w, steps)
                closed += w == 2 and steps == 60 and expected[0][0] == expected[0][1]
            assert by_choice.bit_generator.state == by_reader.bit_generator.state
        assert closed == 200

    def test_checks_in_threads_report_what_they_report_alone(self):
        # the reader bypasses the generator's lock, and the ordering draws share one read-only pvals array per w;
        # each check owns its generator, so checks run in more threads than cores report what each reports alone
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

    def test_flat_dirichlet_draws_the_same_stream_as_dirichlet(self):
        # every Dirichlet(1, ..., 1) draw of the trial loops goes through _flat_dirichlet_rows in place of
        # rng.dirichlet; scaling by the reciprocal of e.sum() in place of the running sum differs from w = 8 upward
        for w in range(1, 41):
            for seed in range(100):
                by_dirichlet, by_flat = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = by_dirichlet.dirichlet(np.ones(w))
                assert np.array_equal(_flat_dirichlet_rows([by_flat.standard_exponential(w)])[0], expected), (w, seed)
                assert by_dirichlet.random() == by_flat.random()

    def test_schur_ordering_draw_is_generate_majorization_pair(self):
        # the ordering row draws integer masses without building a MajorizationPair; the vectors must not move
        from gek.properties import _SCHUR

        ordering = _SCHUR[0]
        assert ordering.name == "schur-majorization-ordering"
        assert ordering.dists == 2
        w_values = (2, 3, 5, 8)
        by_row, by_pair = np.random.default_rng(9), np.random.default_rng(9)
        below = _bounded(by_row)
        drawn = [ordering.draw(by_row, below, w_values) for _ in range(300)]
        shapes = {}
        for t, (key, masses) in enumerate(drawn):
            shapes.setdefault(key, []).append((t, masses))
        vectors = [None] * len(drawn)
        for key, members in shapes.items():
            ids, masses = zip(*members)
            blocks, extras = ordering.build(key, masses)
            assert len(blocks) == 2 and extras is None
            for t, r, p in zip(ids, *blocks):
                vectors[t] = (r, p)
        assert {key for key, _ in drawn} == set(w_values)
        for key, (r, p) in zip((key for key, _ in drawn), vectors):
            w = int(w_values[by_pair.integers(len(w_values))])
            pair = generate_majorization_pair(w, steps=int(by_pair.integers(1, 12)), rng=by_pair)
            assert key == w
            assert np.array_equal(r, pair.r.p) and np.array_equal(p, pair.p.p)
        assert by_row.bit_generator.state == by_pair.bit_generator.state

    def test_every_continuity_trial_evaluates_two_vectors(self, monkeypatch):
        # p stands in for a shift that is not admissible, so a skipped trial runs two scalar tails, as any other
        calls = []
        from_row_sum = EntropySpec.from_row_sum

        def counting(self, s):
            calls.append(s)
            return from_row_sum(self, s)

        monkeypatch.setattr(EntropySpec, "from_row_sum", counting)
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
        rng, negative = np.random.default_rng(4), 0
        for _ in range(300):
            p = _reference_interior(rng, _reference_w(rng, (w,)))
            direction = rng.normal(size=w)
            direction -= direction.mean()
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
    @pytest.mark.parametrize("trials", [1, 255, 256, 257, 600])
    def test_reports_do_not_depend_on_the_chunk_size(self, trials, family, params, monkeypatch):
        import gek.properties as properties

        spec = entropy_spec(family, params)

        def reports():
            out = [check_composability(spec, trials, 1e-10, 5)]
            out += check_sk_axioms(spec, trials, 5) + check_schur_concavity(spec, trials, 5)
            return [r.as_dict() for r in out]

        chunked = reports()
        monkeypatch.setattr(properties, "_CHUNK", 1)
        assert reports() == chunked


# The trial loop as it was before draws kept only seeded variates: each trial draws its own vectors, every
# vector is validated and evaluated on its own, and each judge gets numpy rows.  The stacked runner must match
# it bit for bit, including at w >= 9, where numpy's pairwise summation starts to matter.


def _reference_flat_dirichlet(rng, w):
    e = rng.standard_exponential(w)
    return e * (1.0 / e.cumsum()[-1])


def _reference_interior(rng, w):
    return 0.99 * _reference_flat_dirichlet(rng, w) + 0.01 / w


def _reference_w(rng, w_values):
    return int(w_values[rng.integers(len(w_values))])


def _reference_masses(rng, w, steps):
    # the Robin-Hood transfer chain, every bounded draw through numpy's own calls
    masses_r = rng.multinomial(2**20, np.full(w, 1.0 / w)).tolist()
    masses_p = list(masses_r)
    for _ in range(steps):
        i, j = (int(v) for v in rng.choice(w, size=2, replace=False))
        if masses_p[i] == masses_p[j]:
            continue
        if masses_p[i] < masses_p[j]:
            i, j = j, i
        amount = int(rng.integers(0, (masses_p[i] - masses_p[j]) // 2 + 1))
        masses_p[i] -= amount
        masses_p[j] += amount
    return masses_p, masses_r


def _reference_product(rng, w_values):
    wa, wb = _reference_w(rng, w_values), _reference_w(rng, w_values)
    p, r = _reference_flat_dirichlet(rng, wa), _reference_flat_dirichlet(rng, wb)
    return (p, r, np.outer(p, r).ravel()), 3, None


def _reference_continuity(rng, w_values):
    w = _reference_w(rng, w_values)
    p = _reference_interior(rng, w)
    direction = rng.normal(size=w)
    direction -= direction.mean()
    norm = np.abs(direction).sum()
    if norm > 0:
        shifted = p + 1e-6 * direction / norm
        if not (shifted < 0).any():
            return (p, shifted), 1, None
    return (p,), 1, None


def _reference_maximum(rng, w_values):
    w = _reference_w(rng, w_values)
    return (_reference_flat_dirichlet(rng, w),), 1, w


def _reference_expansibility(rng, w_values):
    p = _reference_flat_dirichlet(rng, _reference_w(rng, w_values))
    return (p, np.append(p, 0.0)), 2, None


def _reference_ordering(rng, w_values):
    w = _reference_w(rng, w_values)
    masses_p, masses_r = _reference_masses(rng, w, int(rng.integers(1, 12)))
    return tuple(np.array([masses_r, masses_p], dtype=float) / 2**20), 2, None


def _reference_criterion(rng, w_values):
    p = _reference_interior(rng, _reference_w(rng, w_values))
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
        "composability": [("composability", _reference_product, product, 0.0, None)],
        "sk": [
            ("sk-continuity-proxy", _reference_continuity, continuity, 0.0, sys.float_info.max),
            ("sk-maximum-on-uniform", _reference_maximum, maximum, -math.inf, 1e-12),
            ("sk-expansibility", _reference_expansibility, expansibility, 0.0, 1e-14),
        ],
        "schur": [
            ("schur-majorization-ordering", _reference_ordering, ordering, -math.inf, 1e-12),
            ("schur-ostrowski-criterion", _reference_criterion, criterion, -math.inf, 1e-10),
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
    """One trial at a time: draw, validate each distribution, ``raw_value`` per vector, judge."""
    rng = np.random.default_rng(seed)
    reports = []
    for name, draw, judge, worst, limit in rows:
        fold, skipped = PerTrialWorst(worst, tol if limit is None else limit), 0
        for _ in range(trials):
            vectors, dists, extra = draw(rng, w_values)
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

    The families are those of the verify-trials benchmark, and landsberg_vedral.  A chunk of 7 trials splits
    the shapes of a chunk of 256 unevenly, and a chunk of 1 judges each trial alone.
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
        expected = reference_run_rows(spec, rows["composability"], 1000, seed, range(1, 41), 1e-10)
        expected += reference_run_rows(spec, rows["sk"], 500, seed, (9, 17, 33, 40))
        expected += reference_run_rows(spec, rows["schur"], 200, seed, (9, 17, 33))
        for chunk in (256, 7, 1):
            monkeypatch.setattr(properties, "_CHUNK", chunk)
            reports = [check_composability(spec, seed=seed, max_w=40)]
            reports += check_sk_axioms(spec, seed=seed, w_values=(9, 17, 33, 40))
            reports += check_schur_concavity(spec, seed=seed, w_values=(9, 17, 33))
            assert [r.as_dict() for r in reports] == [r.as_dict() for r in expected], chunk


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
        spec = EntropySpec("zg", {"alpha": 0.5}, _NanAbove(0.5 * math.log(3)))
        report = check_composability(spec, 300, 1e-10, 2)
        rng = np.random.default_rng(2)
        nan_trials = []
        for _ in range(300):
            wa, wb = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            p, r = Distribution(rng.dirichlet(np.ones(wa))), Distribution(rng.dirichlet(np.ones(wb)))
            if math.isnan(spec.value(product_distribution(p, r))):
                nan_trials.append(p.p.tolist())
        assert 0 < len(nan_trials) < 300
        assert report.failures == len(nan_trials)
        assert math.isnan(report.worst_residual)
        assert report.witness["p"] == nan_trials[0]

        # the continuity proxy: NaN where p or its shift has entropy above the threshold
        spec = EntropySpec("zg", {"alpha": 0.5}, _NanAbove(0.5 * math.log(4)))
        continuity = check_sk_axioms(spec, 300, 2)[0]
        rng = np.random.default_rng(2)
        nan_trials = []
        for _ in range(300):
            w = int(rng.choice((2, 3, 4, 5, 6)))
            p = 0.99 * rng.dirichlet(np.ones(w)) + 0.01 / w
            direction = rng.normal(size=w)
            direction -= direction.mean()
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
        fold.fold(residuals, lambda i: (residuals.item(i), {"trial": i}))
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
        (p, r, _), _, _ = _reference_product(np.random.default_rng(4), range(1, 9))
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
        # the law raises on the products of highest entropy: at seed 1 the first such trial is trial 37, and in a
        # chunk of 256 judged shape by shape, trial 146 would raise first
        import gek.properties as properties

        spec = EntropySpec("zg", {"alpha": 0.5}, _LawRefusedAbove(3.5))
        with pytest.raises(ZeroDivisionError) as expected:
            _six_reference_rows(spec, 300, 1)
        monkeypatch.setattr(properties, "_CHUNK", chunk)
        with pytest.raises(ZeroDivisionError) as got:
            check_composability(spec, 300, 1e-10, 1)
        assert str(got.value) == str(expected.value)


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
    rng = np.random.default_rng(seed)
    exponent = a * (q - 1.0) + 1.0
    found = PerTrialWorst(-math.inf, 1e-12)
    for _ in range(trials):
        p1, p2 = (Distribution(v).p for v in _interior_rows(w, [rng.standard_exponential(w) for _ in range(2)]))
        lam = rng.uniform(0.05, 0.95)
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
        reports = [_reference_saq(a, q, t, s, w) for t, s, w in cases]
        expected = [repr(r.as_dict()) for r in reports]
        for chunk in (256, 1):
            monkeypatch.setattr(properties, "_CHUNK", chunk)
            got = [repr(saq_concavity_counterexample_search(a, q, t, s, w).as_dict()) for t, s, w in cases]
            assert got == expected, chunk
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
        # W is drawn by the unchecked reader as below(len(w_values)); past 2**32 - 1 it is wrong or never returns
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
