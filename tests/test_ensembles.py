"""Ensemble observables: coherent and mixed detection curves, conditional
gain, perception/threshold times, widths, and peak-time discrimination."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonamp import cli, ensembles
from photonamp.ensembles import (
    AtomicMixture,
    CoherentInput,
    coherent_projection_probability,
    discriminate_photon_number,
    fwhm,
    intensity_gain,
    mixed_projection_probability,
    perception_time,
    threshold_time,
)
from photonamp.hp_model import ground_projection_probabilities
from photonamp.traces import ProbabilityTrace

TAU = np.linspace(0.0, math.pi, 1024)


def mp_coherent(n_e, lam, tau):
    """exp(-lam sin^2) sin^(2 n_e) L_{n_e}(-lam cos^2) in 30-digit arithmetic."""
    with mpmath.workdps(30):
        s2, c2 = mpmath.sin(tau) ** 2, mpmath.cos(tau) ** 2
        return float(mpmath.exp(-lam * s2) * s2**n_e * mpmath.laguerre(n_e, 0, -lam * c2))


def mp_mixed(n_e_max, lam, tau):
    """The coherent curve averaged over n_e = 0..n_e_max, the Laguerre
    polynomials from their three-term recurrence in 30-digit arithmetic."""
    with mpmath.workdps(30):
        s2, y = mpmath.sin(tau) ** 2, -lam * mpmath.cos(tau) ** 2
        prev, lag, power, total = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(0)
        for m in range(n_e_max + 1):
            total += power * lag
            prev, lag = lag, ((2 * m + 1 - y) * lag - m * prev) / (m + 1)
            power *= s2
        return float(mpmath.exp(-lam * s2) * total / (n_e_max + 1))


def mp_gain(n_e_values, lam, tau):
    """Conditional gain from the Poisson double sum over n and the n_e values."""
    with mpmath.workdps(30):
        lam = mpmath.mpf(lam)
        s2, c2 = mpmath.sin(tau) ** 2, mpmath.cos(tau) ** 2
        weight = photons = mpmath.mpf(0)
        for m in n_e_values:
            for n in range(80):
                w = mpmath.exp(-lam) * lam**n / mpmath.factorial(n)
                w *= mpmath.binomial(n + m, m) * c2**n * s2**m
                weight += w
                photons += w * (n + m)
        return float(photons / (weight * lam))


def reference_poisson_averages(n_e, intensity, tau):
    """The pass with a fresh array per operation and max(sigma) measured on
    every step. Returns its four rows and the steps m at which it rescales."""
    s2 = np.sin(tau) ** 2
    x = intensity * np.cos(tau) ** 2
    log_scale = -intensity * s2
    q, sigma = np.ones(tau.shape), np.ones(tau.shape)
    q_sum, t_sum = np.zeros(tau.shape), np.zeros(tau.shape)
    rescaled_at = []
    for m in range(n_e + 1):
        x_sigma = x * sigma
        t = m * q + x_sigma
        q_sum += q
        t_sum += t
        if m == n_e:
            break
        q = s2 * (q + x_sigma / (m + 1))
        sigma = s2 * sigma + q
        if sigma.max(initial=0.0) > 1e100:
            rescaled_at.append(m)
            scale = np.maximum(sigma, 1.0)
            q, sigma, q_sum, t_sum = q / scale, sigma / scale, q_sum / scale, t_sum / scale
            log_scale += np.log(scale)
    out = np.array([q, t, q_sum, t_sum])
    with np.errstate(divide="ignore"):
        values = np.where(
            log_scale > -700.0, out * np.exp(log_scale), np.exp(np.log(out) + log_scale)
        )
    return values, rescaled_at


GRIDS = {"default": TAU, "wide": np.linspace(-3.0, 40.0, 777)}


class TestCoherentInput:
    def test_auto_truncation_tail_below_bound(self):
        for lam in (0.0, 0.1, 0.9, 3.7):
            source = CoherentInput(lam)
            weights = source.photon_weights()
            assert 1.0 - weights.sum() < 1e-12

    @pytest.mark.parametrize(
        "lam,nmax", [(0.0, 0), (0.1, 7), (0.9, 14), (3.7, 24), (800.0, 1007), (1e6, 1007043)]
    )
    def test_auto_truncation_is_minimal(self, lam, nmax):
        # the values a step-by-step search up from int(lam) returns
        assert CoherentInput(lam).truncation_nmax == nmax

    def test_auto_truncation_at_huge_intensity_takes_few_tail_calls(self, monkeypatch):
        # a step-by-step search makes about 7 sqrt(lam) calls, 6.7e5 here
        calls = []
        tail = ensembles._poisson_tail
        monkeypatch.setattr(ensembles, "_poisson_tail", lambda *a: calls.append(a) or tail(*a))
        nmax = CoherentInput(1e10).truncation_nmax
        assert len(calls) <= 200
        assert tail(nmax, 1e10) < ensembles.POISSON_TAIL_BOUND <= tail(nmax - 1, 1e10)

    def test_explicit_truncation_validated(self):
        CoherentInput(0.1, truncation_nmax=12)  # roomy, fine
        with pytest.raises(ValueError, match="tail"):
            CoherentInput(0.9, truncation_nmax=2)

    def test_regime_flag(self):
        assert CoherentInput(0.5).in_design_regime
        assert not CoherentInput(1.5).in_design_regime

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            CoherentInput(-0.1)

    def test_vacuum_weights(self):
        w = CoherentInput(0.0).photon_weights()
        assert w[0] == 1.0 and w.sum() == 1.0


class TestCoherentProbability:
    def test_vacuum_input_reduces_to_dark_curve(self):
        trace = coherent_projection_probability(4, CoherentInput(0.0), TAU)
        np.testing.assert_array_equal(trace.values, ground_projection_probabilities(4, 0, TAU))

    def test_peak_value_is_survival_weight(self):
        trace = coherent_projection_probability(25, CoherentInput(0.1), np.array([math.pi / 2]))
        assert trace.values[0] == pytest.approx(math.exp(-0.1), abs=1e-12)

    def test_brighter_input_lowers_peak(self):
        half = np.array([math.pi / 2])
        p_dim = coherent_projection_probability(10, CoherentInput(0.5), half).values[0]
        p_bright = coherent_projection_probability(10, CoherentInput(0.9), half).values[0]
        assert p_dim > p_bright

    def test_weak_light_limit_approaches_dark_curve(self):
        dark = ground_projection_probabilities(8, 0, TAU)
        for lam in (1e-3, 1e-4):
            trace = coherent_projection_probability(8, CoherentInput(lam), TAU)
            gap = np.max(np.abs(trace.values - dark))
            assert gap <= 2.0 * lam  # linear in the intensity

    def test_meta_records_input(self):
        trace = coherent_projection_probability(3, CoherentInput(0.2), TAU)
        assert trace.meta["model"] == "coherent"
        assert trace.meta["intensity"] == 0.2
        assert "truncation_nmax" not in trace.meta

    def test_survives_underflow_of_the_poisson_factor(self):
        # exp(-800 * 0.9615) underflows, the curve itself does not
        tau = math.asin(math.sqrt(0.9615))
        trace = coherent_projection_probability(20000, CoherentInput(800.0), np.array([tau]))
        want = mp_coherent(20000, 800, tau)
        assert want == pytest.approx(0.0102664, rel=1e-5)
        assert trace.values[0] == pytest.approx(want, rel=1e-11)


class TestClosedForm:
    @pytest.mark.parametrize("lam", [0.3, 0.95, 5.0])
    @pytest.mark.parametrize("n_e", [200, 1000, 10**4])
    def test_curves_match_mpmath(self, n_e, lam):
        # around the pure curve's peak at pi/2, whose width is about 1/sqrt(n_e)
        width = 1.0 / math.sqrt(n_e)
        tau = np.array([1.0, math.pi / 2 - width, math.pi / 2 + 0.5 * width])
        source = CoherentInput(lam)
        pure = coherent_projection_probability(n_e, source, tau).values
        mixed = mixed_projection_probability(AtomicMixture(n_e), source, tau).values
        want_pure = [mp_coherent(n_e, lam, t) for t in tau]
        want_mixed = [mp_mixed(n_e, lam, t) for t in tau]
        np.testing.assert_allclose(pure, want_pure, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mixed, want_mixed, rtol=0, atol=1e-12)


class TestPoissonPass:
    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("lam", [0.0, 1e-300, 0.3, 5.0, 700.0, 1e5])
    @pytest.mark.parametrize("n_e", [0, 1, 25, 1000])
    def test_bit_for_bit_equal_to_the_reference(self, n_e, lam, grid):
        ensembles._poisson_pass.cache_clear()
        got = ensembles._poisson_averages(n_e, lam, grid)
        want, _ = reference_poisson_averages(n_e, lam, grid)
        assert [row.tobytes() for row in got] == [row.tobytes() for row in want]

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("lam,first", [(5.0, None), (700.0, 163), (1e5, 30)])
    def test_reference_rescales_within_the_compared_inputs(self, lam, first, grid):
        _, rescaled_at = reference_poisson_averages(1000, lam, grid)
        assert (rescaled_at[0] if rescaled_at else None) == first

    def test_cached_result_is_read_only(self):
        values = ensembles._poisson_averages(25, 0.3, TAU)
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 0.0

    def test_fig3_curves_equal_separately_computed_ones(self):
        cfg = {
            "n_e_max": 1000, "intensity": [0.1, 5.0],
            "grid_points": TAU.size, "tau_min": 0.0, "tau_max": math.pi,
        }
        ensembles._poisson_pass.cache_clear()
        series = cli._run_fig3(cfg)["series"]
        info = ensembles._poisson_pass.cache_info()
        assert (info.hits, info.misses) == (2, 2)  # one pass per intensity
        for lam in cfg["intensity"]:
            source = CoherentInput(lam)
            ensembles._poisson_pass.cache_clear()
            pure = coherent_projection_probability(1000, source, TAU).values
            ensembles._poisson_pass.cache_clear()
            mixed = mixed_projection_probability(AtomicMixture(1000), source, TAU).values
            assert series[f"p_pure_i{lam:g}"].tobytes() == pure.tobytes()
            assert series[f"p_mixed_i{lam:g}"].tobytes() == mixed.tobytes()

    @pytest.mark.parametrize(
        "n_e,lam,tau",
        [
            (26, 0.3, TAU),
            (25, np.nextafter(0.3, 1.0), TAU),
            (25, 0.3, np.where(TAU == TAU[5], np.nextafter(TAU[5], 0.0), TAU)),
            (25, 0.3, TAU.reshape(32, 32)),  # the same bytes in another shape
        ],
        ids=["n_e", "intensity", "grid-values", "grid-shape"],
    )
    def test_a_changed_argument_misses_the_cache(self, n_e, lam, tau):
        ensembles._poisson_pass.cache_clear()
        ensembles._poisson_averages(25, 0.3, TAU)
        got = ensembles._poisson_averages(n_e, lam, tau)
        assert ensembles._poisson_pass.cache_info().misses == 2
        assert got.tobytes() == reference_poisson_averages(n_e, lam, tau)[0].tobytes()


class TestMixedProbability:
    def test_background_at_start(self):
        trace = mixed_projection_probability(
            AtomicMixture(25), CoherentInput(0.1), np.array([0.0])
        )
        assert trace.values[0] == pytest.approx(1.0 / 26.0, abs=1e-12)

    def test_peak_equals_pure_peak(self):
        half = np.array([math.pi / 2])
        mixed = mixed_projection_probability(AtomicMixture(25), CoherentInput(0.1), half)
        assert mixed.values[0] == pytest.approx(math.exp(-0.1), abs=1e-12)

    def test_trivial_mixture_equals_pure(self):
        source = CoherentInput(0.3)
        mixed = mixed_projection_probability(AtomicMixture(0), source, TAU)
        pure = coherent_projection_probability(0, source, TAU)
        np.testing.assert_array_equal(mixed.values, pure.values)

    def test_mixture_weights(self):
        w = AtomicMixture(25).weights()
        assert w.size == 26
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            AtomicMixture(-1)

    @pytest.mark.parametrize("lam", [0.1, 0.5])
    def test_mixture_widens_the_peak(self, lam):
        grid = np.linspace(0.0, math.pi, 2048)
        source = CoherentInput(lam)
        pure = coherent_projection_probability(25, source, grid)
        mixed = mixed_projection_probability(AtomicMixture(25), source, grid)
        assert fwhm(mixed) > fwhm(pure)


class TestIntensityGain:
    def test_pure_gain_limit(self):
        gain = intensity_gain(25, CoherentInput(0.1), math.pi / 2 - 1e-4)
        assert gain == pytest.approx(250.0, rel=1e-3)

    def test_mixed_gain_limit(self):
        gain = intensity_gain(AtomicMixture(25), CoherentInput(0.1), math.pi / 2 - 1e-4)
        assert gain == pytest.approx(125.0, rel=1e-3)

    def test_no_excited_atoms_no_amplification_at_start(self):
        assert intensity_gain(0, CoherentInput(0.4), 0.0) == 1.0

    @pytest.mark.parametrize("mixture", [False, True], ids=["pure", "mixed"])
    def test_matches_mpmath_series(self, mixture):
        # conditioning reweights the Poisson tail, so no truncation of the
        # photon number bounds the error of the gain
        atoms = AtomicMixture(25) if mixture else 25
        want = mp_gain(range(26) if mixture else [25], 0.1, 0.3)
        assert intensity_gain(atoms, CoherentInput(0.1), 0.3) == pytest.approx(want, rel=1e-12)

    def test_requires_positive_intensity(self):
        with pytest.raises(ValueError, match="intensity"):
            intensity_gain(5, CoherentInput(0.0), 1.0)

    @pytest.mark.parametrize(
        "atoms,tau", [(25, math.nan), (AtomicMixture(5), math.inf), (25, -math.inf)]
    )
    def test_non_finite_tau_rejected(self, atoms, tau):
        with pytest.raises(ValueError, match="tau"):
            intensity_gain(atoms, CoherentInput(0.1), tau)

    @pytest.mark.parametrize("atoms", [25, AtomicMixture(25)], ids=["pure", "mixed"])
    def test_overflowing_gain_names_the_intensity(self, atoms):
        # the gain near pi/2 is about n_e / intensity: finite at 1e-300, not at 1e-320
        assert math.isfinite(intensity_gain(atoms, CoherentInput(1e-300), math.pi / 2))
        with pytest.raises(ValueError, match="^intensity 1e-320 is too small"):
            intensity_gain(atoms, CoherentInput(1e-320), math.pi / 2)

    def test_vanishing_projection_is_an_error(self):
        # sin^50(1e-8) underflows to zero weight
        with pytest.raises(ValueError, match="vanishes"):
            intensity_gain(25, CoherentInput(0.1), 1e-8)


class TestPerceptionTime:
    def test_dark_input_peaks_at_quarter_period(self):
        assert perception_time(25, 0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_balanced_pair(self):
        assert perception_time(1, 1) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_ten_five(self):
        assert perception_time(10, 5) == pytest.approx(0.9553166181245093, abs=1e-12)

    def test_degenerate_vacuum_convention(self):
        assert perception_time(0, 0) == math.pi / 2

    @given(n_e=st.integers(1, 40), n=st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_matches_numerical_argmax(self, n_e, n):
        grid = np.linspace(0.0, math.pi / 2, 10**4)
        p = ground_projection_probabilities(n_e, n, grid)
        assert perception_time(n_e, n) == pytest.approx(
            grid[np.argmax(p)], abs=2e-4
        )


class TestThresholdTime:
    def test_single_excitation_inverts_analytically(self):
        # sin^2(tau) = 0.01 first crosses at arcsin(0.1)
        assert threshold_time(1, 0, 0.01) == pytest.approx(math.asin(0.1), abs=1e-10)

    @pytest.mark.parametrize("n", [0, 1, 5, 10])
    def test_more_atoms_respond_later(self, n):
        assert threshold_time(25, n, 0.01) > threshold_time(1, n, 0.01)

    def test_epsilon_above_peak_is_an_error(self):
        with pytest.raises(ValueError, match="no threshold"):
            threshold_time(2, 0, 1.1)

    def test_crossing_value_is_epsilon(self):
        for n_e, n, eps in [(25, 0, 0.01), (10, 3, 0.05), (4, 4, 1e-6)]:
            tau = threshold_time(n_e, n, eps)
            from photonamp.hp_model import ground_projection_probability

            assert ground_projection_probability(n_e, n, tau) == pytest.approx(eps, rel=1e-6)


@pytest.mark.parametrize(
    "make,name",
    [
        (lambda: AtomicMixture(2.5), "n_e_max"),
        (lambda: CoherentInput(0.1, truncation_nmax=30.5), "truncation_nmax"),
        (lambda: perception_time(2.5, 1), "n_e"),
        (lambda: perception_time(math.nan, 1), "n_e"),
        (lambda: threshold_time(2.5, 1), "n_e"),
        (lambda: discriminate_photon_number(2.5, 0.5, 3), "n_e"),
        (lambda: discriminate_photon_number(3, 0.5, 2.5), "n_max"),
        (lambda: coherent_projection_probability(2.5, CoherentInput(0.1), TAU), "n_e"),
        (lambda: intensity_gain(2.5, CoherentInput(0.1), 0.5), "n_e"),
    ],
    ids=["mixture", "truncation", "perception", "perception-nan", "threshold",
         "discriminate-n_e", "discriminate-n_max", "coherent", "gain"],
)
def test_fractional_count_rejected(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
        make()


def test_whole_valued_counts_still_accepted():
    assert perception_time(3.0, 1.0) == perception_time(np.int64(3), 1) == math.acos(0.5)
    assert discriminate_photon_number(np.int64(10), 0.9553, np.int64(10)).inferred_n == 5


class TestWholeValuedFloatCounts:
    """A whole-valued float count is used as the int it equals."""

    def test_mixture_weights(self):
        np.testing.assert_array_equal(AtomicMixture(3.0).weights(), AtomicMixture(3).weights())

    def test_discrimination_n_max(self):
        got, want = discriminate_photon_number(3, 0.5, 2.0), discriminate_photon_number(3, 0.5, 2)
        assert got.inferred_n == want.inferred_n
        np.testing.assert_array_equal(got.candidate_peak_times, want.candidate_peak_times)

    def test_coherent_curve(self):
        got = coherent_projection_probability(3.0, CoherentInput(0.1), TAU).values
        want = coherent_projection_probability(3, CoherentInput(0.1), TAU).values
        np.testing.assert_array_equal(got, want)


class TestDiscrimination:
    def test_exact_match_dark(self):
        assert discriminate_photon_number(10, math.pi / 2, 10).inferred_n == 0

    def test_nearest_neighbor_mid_range(self):
        assert discriminate_photon_number(10, 0.9553, 10).inferred_n == 5

    def test_single_excitation_quarter_turn(self):
        assert discriminate_photon_number(1, math.pi / 4, 3).inferred_n == 1

    def test_report_contents(self):
        report = discriminate_photon_number(10, 1.0, 4)
        assert report.candidate_peak_times.shape == (5,)
        assert list(report.candidate_peak_times) == [perception_time(10, n) for n in range(5)]
        assert report.distances[report.inferred_n] == report.distances.min()

    def test_negative_n_e_rejected(self):
        with pytest.raises(ValueError, match="n_e"):
            discriminate_photon_number(-1, 0.5, 5)

    def test_observed_time_validated(self):
        with pytest.raises(ValueError):
            discriminate_photon_number(10, 0.0, 5)
        with pytest.raises(ValueError):
            discriminate_photon_number(10, 2.0, 5)

    @given(n=st.integers(0, 12), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_in_separation_regime(self, n, data):
        n_e = data.draw(st.integers(max(2 * n, 1), 50))
        report = discriminate_photon_number(n_e, perception_time(n_e, n), 12)
        assert report.inferred_n == n


class TestFwhm:
    def test_sine_squared_width_is_quarter_period(self):
        grid = np.linspace(0.0, math.pi, 2048)
        trace = ProbabilityTrace(grid, np.sin(grid) ** 2, {})
        assert fwhm(trace) == pytest.approx(math.pi / 2, abs=1e-5)

    def test_curve_without_crossings_rejected(self):
        grid = np.linspace(0.0, 1.0, 64)
        flat = ProbabilityTrace(grid, np.full(64, 0.8), {})
        with pytest.raises(ValueError, match="half maximum"):
            fwhm(flat)


class TestProbabilityTrace:
    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            ProbabilityTrace(np.array([0.0, 0.0]), np.array([0.1, 0.1]), {})
        with pytest.raises(ValueError, match="out of"):
            ProbabilityTrace(np.array([0.0, 1.0]), np.array([0.5, 1.5]), {})
        with pytest.raises(ValueError, match="equal length"):
            ProbabilityTrace(np.array([0.0, 1.0]), np.array([0.5]), {})

    @pytest.mark.parametrize(
        "tau,values",
        [
            ([0.0, 1.0], [math.nan, 0.5]),
            ([0.0, math.inf], [0.1, 0.5]),
            ([math.nan, 1.0], [0.1, 0.5]),
        ],
    )
    def test_rejects_non_finite(self, tau, values):
        with pytest.raises(ValueError, match="finite"):
            ProbabilityTrace(np.array(tau), np.array(values), {})

    def test_peak_helpers(self):
        trace = ProbabilityTrace(np.array([0.0, 1.0, 2.0]), np.array([0.1, 0.9, 0.2]), {})
        assert trace.peak_time == 1.0
        assert trace.peak_value == 0.9

    @given(
        n_e=st.integers(0, 20),
        lam=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_coherent_trace_stays_in_unit_interval(self, n_e, lam):
        grid = np.linspace(0.0, math.pi, 64)
        trace = coherent_projection_probability(n_e, CoherentInput(lam), grid)
        assert np.all(trace.values >= 0.0)
        assert np.all(trace.values <= 1.0)
