"""Ensemble observables: coherent and mixed detection curves, conditional
gain, perception/threshold times, widths, and peak-time discrimination."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestCoherentInput:
    def test_auto_truncation_tail_below_bound(self):
        for lam in (0.0, 0.1, 0.9, 3.7):
            source = CoherentInput(lam)
            weights = source.photon_weights()
            assert 1.0 - weights.sum() < 1e-12

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
