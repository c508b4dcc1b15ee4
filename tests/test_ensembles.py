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
from photonamp.hp_model import ground_projection_probabilities, ground_projection_probability
from photonamp.traces import ProbabilityTrace

TAU = np.linspace(0.0, math.pi, 1024)


def mp_coherent(n_e, lam, tau):
    """exp(-lam sin^2) sin^(2 n_e) L_{n_e}(-lam cos^2) in 30-digit arithmetic."""
    with mpmath.workdps(30):
        s2, c2 = mpmath.sin(tau) ** 2, mpmath.cos(tau) ** 2
        return float(mpmath.exp(-lam * s2) * s2**n_e * mpmath.laguerre(n_e, 0, -lam * c2))


def mp_crossing(n_e, n, eps):
    """The first tau with P(n_e, n, tau) = eps in 50-digit arithmetic: the
    root in u = ln sin^2 tau of n_e u + n ln(1 - e^u) = ln(eps / C(n + n_e, n_e)),
    bracketed by u = ln(eps / C) / n_e and the peak ln(n_e / (n_e + n))."""
    with mpmath.workdps(50):
        log_t = mpmath.log(eps) - mpmath.log(mpmath.binomial(n + n_e, n_e))
        if n == 0:
            return mpmath.asin(mpmath.exp(log_t / (2 * n_e)))
        u = mpmath.findroot(
            lambda u: n_e * u + n * mpmath.log(-mpmath.expm1(u)) - log_t,
            (log_t / n_e, mpmath.log(mpmath.mpf(n_e) / (n_e + n))), solver="anderson")
        return mpmath.asin(mpmath.exp(u / 2))


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
    every step. Returns its five rows and the steps m at which it rescales."""
    s2 = np.sin(tau) ** 2
    x = intensity * np.cos(tau) ** 2
    log_scale = -intensity * s2
    q, sigma = np.ones(tau.shape), np.ones(tau.shape)
    q_sum, sigma_sum, m_q_sum = np.zeros(tau.shape), np.zeros(tau.shape), np.zeros(tau.shape)
    rescaled_at = []
    for m in range(n_e + 1):
        q_sum = q_sum + q
        sigma_sum = sigma_sum + sigma
        m_q_sum = m_q_sum + m * q
        if m == n_e:
            break
        q = s2 * (q + x * sigma / (m + 1))
        sigma = s2 * sigma + q
        if sigma.max(initial=0.0) > 1e100:
            rescaled_at.append(m)
            scale = np.maximum(sigma, 1.0)
            q, sigma = q / scale, sigma / scale
            q_sum, sigma_sum, m_q_sum = q_sum / scale, sigma_sum / scale, m_q_sum / scale
            log_scale += np.log(scale)
    out = np.array([q, sigma, q_sum, sigma_sum, m_q_sum])
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

    def test_truncation_is_computed_only_when_read(self, monkeypatch):
        def tail(*args):
            raise AssertionError("the Poisson tail was computed")

        monkeypatch.setattr(ensembles, "_poisson_tail", tail)
        source = CoherentInput(0.5)
        coherent_projection_probability(3, source, TAU)
        mixed_projection_probability(AtomicMixture(3), source, TAU)
        intensity_gain(3, source, 0.5)
        intensity_gain(AtomicMixture(3), source, 0.5)
        with pytest.raises(AssertionError, match="tail"):
            source.truncation_nmax

    @pytest.mark.parametrize("lam", [1e7, 1e10, 1e300])
    def test_photon_weights_past_the_bound_name_intensity(self, lam, monkeypatch):
        # the check fires before any allocation: 1e10 would need about 80 GB
        def arange(*args):
            raise AssertionError("photon_weights() allocated past the bound")

        monkeypatch.setattr(ensembles.np, "arange", arange)
        with pytest.raises(ValueError, match="^intensity must be small enough that "
                                             "photon_weights\\(\\) needs at most 10000000"):
            CoherentInput(lam).photon_weights()

    def test_photon_weights_at_intensity_1e6(self):
        weights = CoherentInput(1e6).photon_weights()
        assert weights.size == 1_007_044
        assert 1.0 - weights.sum() < 1e-9

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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "curve",
    [
        lambda grid: coherent_projection_probability(3, CoherentInput(0.1), grid),
        lambda grid: coherent_projection_probability(3, CoherentInput(0.0), grid),
        lambda grid: mixed_projection_probability(AtomicMixture(3), CoherentInput(0.1), grid),
    ],
    ids=["coherent", "vacuum", "mixed"],
)
def test_non_finite_tau_grid_rejected_before_the_pass(curve, bad):
    # RuntimeWarnings are errors here, so a pass over the grid would fail
    # with one before the ValueError
    ensembles._poisson_pass.cache_clear()
    with pytest.raises(ValueError, match="^tau_grid must be finite"):
        curve(np.array([0.0, bad]))
    assert ensembles._poisson_pass.cache_info().misses == 0


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

    @pytest.mark.parametrize("intensity", [1e-320, 1e-310, 5e-324])
    @pytest.mark.parametrize("atoms", [0, AtomicMixture(0)], ids=["pure", "mixed"])
    def test_subnormal_intensity_keeps_the_gain(self, atoms, intensity):
        # with no excited atoms the gain is cos^2(1) = 0.29193, all of it
        # cos^2 tau sigma/q; the subnormal x = intensity cos^2 tau, which
        # keeps few bits, does not enter it
        assert intensity_gain(atoms, CoherentInput(intensity), 1.0) == pytest.approx(
            math.cos(1.0) ** 2, rel=1e-14
        )

    @pytest.mark.parametrize("atoms", [0, AtomicMixture(25)], ids=["pure", "mixed"])
    def test_unrounded_subnormal_photon_moment_is_kept(self, atoms):
        # at tau = 0, x = intensity * cos^2 tau = intensity exactly, however few
        # its bits, and the gain is exactly 1; at tau = 1 x is rounded, and
        # the gain is still cos^2(1)
        assert intensity_gain(atoms, CoherentInput(1e-320), 0.0) == 1.0
        assert intensity_gain(0, CoherentInput(1e-320), 1.0) == pytest.approx(
            math.cos(1.0) ** 2, rel=1e-14
        )

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

    def test_within_two_ulp_of_mpmath(self):
        # acos(sqrt(n / (n + n_e))) was off by 207 ulp at (1, 355) and by
        # 5.2e6 ulp at (3, 10^8)
        pairs = [(n_e, n) for n_e in range(1, 401, 37) for n in range(0, 401, 29)]
        for n_e, n in pairs + [(1, 355), (3, 10**8)]:
            with mpmath.workdps(40):
                exact = mpmath.atan2(mpmath.sqrt(n_e), mpmath.sqrt(n))
            tau = perception_time(n_e, n)
            assert abs(tau - exact) <= 2 * math.ulp(tau), (n_e, n)

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

    def test_no_excited_atoms_respond_at_once(self):
        assert threshold_time(0, 3, 0.5) == 0.0

    @pytest.mark.parametrize("eps,crossing", [(1e-30, 1e-15),
                                              (5e-324, 2.2227587494850775e-162)])
    def test_tiny_crossing_keeps_its_digits(self, eps, crossing):
        # a bisection stopped at a width of 1e-13 returned 4.46e-14 for both
        assert threshold_time(1, 0, eps) == pytest.approx(crossing, rel=1e-14, abs=0.0)

    def test_matches_mpmath_crossing(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(200):
            n_e, n = int(rng.integers(1, 501)), int(rng.integers(0, 501))
            peak = ground_projection_probability(n_e, n, perception_time(n_e, n))
            eps = peak * 10.0 ** rng.uniform(-10.0, math.log10(0.9))
            worst = max(worst, float(abs(threshold_time(n_e, n, eps) / mp_crossing(n_e, n, eps) - 1)))
        assert worst <= 1e-12  # the bisection read 6.5e-12 on these inputs

    @given(n_e=st.integers(1, 60), n=st.integers(0, 60),
           fraction=st.floats(1e-300, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_one_closed_form_call_and_never_past_the_peak(self, n_e, n, fraction):
        tau_peak = perception_time(n_e, n)
        eps = fraction * ground_projection_probability(n_e, n, tau_peak)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ensembles, "ground_projection_probability",
                          lambda *args: calls.append(args) or ground_projection_probability(*args))
            assert 0.0 < threshold_time(n_e, n, eps) <= tau_peak
        assert calls == [(n_e, n, tau_peak)]  # the peak guard, and no other

    # every (n_e, n) below 80 where the grid's closed form rounds the peak
    # below the scalar one, with epsilon one float below the scalar peak
    @pytest.mark.parametrize("n_e,n", [(1, 34), (2, 68), (7, 30), (9, 58), (14, 60), (30, 7),
                                       (41, 70), (60, 14), (70, 41), (76, 35)])
    def test_epsilon_between_the_grid_and_the_scalar_peak(self, n_e, n):
        # no grid point reached epsilon, so the bracket fell back to the
        # first step and inverted: (1, 34) gave 0.0849, where P = 0.197
        from photonamp.hp_model import ground_projection_probability

        tau_peak = perception_time(n_e, n)
        eps = float(np.nextafter(ground_projection_probability(n_e, n, tau_peak), 0.0))
        grid = np.linspace(0.0, tau_peak, 257)
        assert ground_projection_probabilities(n_e, n, grid).max() < eps
        tau = threshold_time(n_e, n, eps)
        assert tau_peak - 1e-8 <= tau <= tau_peak
        assert abs(ground_projection_probability(n_e, n, tau) - eps) <= 4e-15


@pytest.mark.parametrize(
    "make,name",
    [
        (lambda: AtomicMixture(2.5), "n_e_max"),
        (lambda: perception_time(2.5, 1), "n_e"),
        (lambda: perception_time(math.nan, 1), "n_e"),
        (lambda: threshold_time(2.5, 1), "n_e"),
        (lambda: discriminate_photon_number(2.5, 0.5, 3), "n_e"),
        (lambda: discriminate_photon_number(3, 0.5, 2.5), "n_max"),
        (lambda: coherent_projection_probability(2.5, CoherentInput(0.1), TAU), "n_e"),
        (lambda: intensity_gain(2.5, CoherentInput(0.1), 0.5), "n_e"),
    ],
    ids=["mixture", "perception", "perception-nan", "threshold",
         "discriminate-n_e", "discriminate-n_max", "coherent", "gain"],
)
def test_fractional_count_rejected(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
        make()


def test_whole_valued_counts_still_accepted():
    assert perception_time(3.0, 1.0) == perception_time(np.int64(3), 1) == math.atan2(
        math.sqrt(3), 1.0)
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
        with pytest.raises(ValueError, match="at least one grid point"):
            ProbabilityTrace(np.array([]), np.array([]), {})

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
