"""The argument contract of every public entry point: a count must be a
non-negative whole number (N_atoms at least 1) whose log-factorial, where
one is taken, and whose float arithmetic, where it enters any, stay
finite; a real scalar or a tau grid must be finite, a block's arrays
finite and as long as its basis asks, and an
angular-momentum label a multiple of 1/2 whose double converts to a
float, with 2j (n_e + n for a two-mode state) at most MAX_TWICE_J = 10**5
where a rotation is built (MAX_MATRIX_TWICE_J = 2000 for a whole rotation
matrix) and a sector dimension min(N_atoms, E) + 1 at most MAX_SECTOR_DIM =
10**4 + 1 where a block is built (tested in test_exact_model.py, since no
one argument here reaches it); and a call that
breaks this raises a ValueError whose message starts with the argument's
name, never an OverflowError or a silent value. A subnormal real scalar or tau point
gives finite values or a ValueError, and no RuntimeWarning."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

import photonamp
from photonamp import (
    AtomicMixture,
    CoherentInput,
    HalfInteger,
    HpEvolutionParams,
    SectorBasis,
    SectorHamiltonian,
    TwoModeFockState,
    build_sector,
    coherent_projection_probability,
    discriminate_photon_number,
    eigensystem,
    evolve_fock,
    exact_projection_probability,
    fwhm,
    ground_projection_probabilities,
    ground_projection_probability,
    hp_deviation,
    intensity_gain,
    log_binomial,
    log_factorial,
    mixed_projection_probability,
    perception_time,
    threshold_time,
    wigner_d_matrix,
    wigner_small_d,
)

TAU = np.linspace(0.0, math.pi, 64)
COUNT = (-1, 2.5, math.nan, math.inf)
HUGE = (10**400, 1e308)  # whole counts past a float, or past a finite log-factorial
REAL = (math.nan, math.inf, -math.inf)  # listed first for every real scalar
SUBNORMAL = 5e-324
WIDE = (1e308, -1e308)  # finite, but past the float range once multiplied
GRID = tuple(np.array([0.0, 0.5, v]) for v in REAL)
LABEL = (-1, 0.25, math.nan, math.inf)  # j: a non-negative multiple of 1/2
PAST_CAP = (50_000.5, 10**20)  # j with 2j past MAX_TWICE_J = 10**5
QUANTA_PAST_CAP = (100_000, 10**19)  # n_e or n taking n_e + n past MAX_TWICE_J
PAST_MATRIX = (1000.5,)  # j with 2j past MAX_MATRIX_TWICE_J = 2000, for a whole matrix
INDEX = (0.25, math.nan, math.inf)  # m, m': any multiple of 1/2


def block_grids(size):
    return tuple(np.append(np.zeros(size - 1), v) for v in REAL)


# Result records, returned rather than taken as input.
EXEMPT = {"AmplitudeVector", "DiscriminationReport", "ProbabilityTrace"}
# Init fields that are records, which check themselves, rather than arguments.
RECORD_FIELDS = {("SectorHamiltonian", "basis")}

# public name -> (call with every argument defaulted to a valid value,
#                 {argument as the message names it: bad values})
CONTRACT = {
    "AtomicMixture": (lambda n_e_max=3: AtomicMixture(n_e_max), {"n_e_max": COUNT}),
    "CoherentInput": (
        lambda intensity=0.1: CoherentInput(intensity), {"intensity": REAL},
    ),
    "HalfInteger": (
        lambda x=1.5, twice_value=3: (HalfInteger.of(x), HalfInteger(twice_value)),
        {"x": INDEX + HUGE, "twice_value": (2.5, math.nan)},
    ),
    "HpEvolutionParams": (
        lambda tau=0.3, N_atoms=100: HpEvolutionParams(tau, N_atoms),
        {"tau": REAL, "N_atoms": COUNT + (0,)},
    ),
    "SectorBasis": (
        lambda N_atoms=4, total_excitation=2: SectorBasis(N_atoms, total_excitation),
        {"N_atoms": COUNT + (0,), "total_excitation": COUNT},
    ),
    "SectorHamiltonian": (
        lambda diagonal=np.zeros(2), off_diagonal=np.ones(1):
        SectorHamiltonian(SectorBasis(4, 1), diagonal, off_diagonal),
        {"diagonal": block_grids(2) + (np.zeros(3),),
         "off_diagonal": block_grids(1) + (np.ones(2),)},
    ),
    "TwoModeFockState": (lambda n_e=2, n=1: TwoModeFockState(n_e, n), {"n_e": COUNT, "n": COUNT}),
    "build_sector": (
        lambda N_atoms=10, E=3, omega=1.0, omega0=1.0: build_sector(N_atoms, E, omega, omega0),
        {"N_atoms": COUNT + (0,) + HUGE, "E": COUNT + HUGE, "omega": REAL + WIDE,
         "omega0": REAL + WIDE},
    ),
    "coherent_projection_probability": (
        lambda n_e=3, tau_grid=TAU: coherent_projection_probability(
            n_e, CoherentInput(0.1), tau_grid),
        {"n_e": COUNT, "tau_grid": GRID},
    ),
    "discriminate_photon_number": (
        lambda n_e=10, observed_peak_time=1.0, n_max=4:
        discriminate_photon_number(n_e, observed_peak_time, n_max),
        {"n_e": COUNT, "observed_peak_time": REAL, "n_max": COUNT},
    ),
    # takes only a SectorHamiltonian, which checks itself
    "eigensystem": (lambda: eigensystem(build_sector(10, 3)), {}),
    # through the records it takes
    "evolve_fock": (
        lambda n_e=2, n=1, tau=0.3: evolve_fock(TwoModeFockState(n_e, n), HpEvolutionParams(tau)),
        {"n_e": COUNT + QUANTA_PAST_CAP, "n": COUNT + QUANTA_PAST_CAP, "tau": REAL},
    ),
    "exact_projection_probability": (
        lambda n_e=2, n=1, tau_grid=TAU: exact_projection_probability(
            build_sector(10, 3), (n_e, n), tau_grid),
        {"n_e": COUNT, "n": COUNT, "tau_grid": GRID + (np.array([0.0, 1e300]),)},
    ),
    # takes only a ProbabilityTrace, which checks itself
    "fwhm": (lambda: fwhm(coherent_projection_probability(3, CoherentInput(0.1), TAU)), {}),
    "ground_projection_probabilities": (
        lambda n_e=3, n=1, tau_grid=TAU: ground_projection_probabilities(n_e, n, tau_grid),
        {"n_e": COUNT + HUGE, "n": COUNT + HUGE, "tau_grid": GRID},
    ),
    "ground_projection_probability": (
        lambda n_e=3, n=1, tau=0.5: ground_projection_probability(n_e, n, tau),
        {"n_e": COUNT + HUGE, "n": COUNT + HUGE, "tau": REAL},
    ),
    "hp_deviation": (
        lambda N_atoms=100, n_e=2, n=1, tau_grid=TAU: hp_deviation(N_atoms, n_e, n, tau_grid),
        {"N_atoms": COUNT + (0,) + HUGE, "n_e": COUNT + HUGE, "n": COUNT + HUGE,
         "tau_grid": GRID},
    ),
    # the pure form's count is n_e; the mixture checks its own n_e_max
    "intensity_gain": (
        lambda n_e=3, tau=0.5: intensity_gain(n_e, CoherentInput(0.1), tau),
        {"n_e": COUNT, "tau": REAL},
    ),
    "log_binomial": (
        lambda n=5, k=2: log_binomial(n, k), {"n": COUNT + HUGE, "k": COUNT + (6,) + HUGE}
    ),
    "log_factorial": (lambda k=5: log_factorial(k), {"k": COUNT + (-math.inf,) + HUGE}),
    "mixed_projection_probability": (
        lambda tau_grid=TAU: mixed_projection_probability(
            AtomicMixture(3), CoherentInput(0.1), tau_grid),
        {"tau_grid": GRID},
    ),
    "perception_time": (lambda n_e=3, n=1: perception_time(n_e, n), {"n_e": COUNT, "n": COUNT}),
    "threshold_time": (
        lambda n_e=3, n=1, epsilon=0.01: threshold_time(n_e, n, epsilon),
        {"n_e": COUNT, "n": COUNT, "epsilon": REAL},
    ),
    "wigner_d_matrix": (
        lambda j=1.5, beta=0.3: wigner_d_matrix(j, beta),
        {"j": LABEL + HUGE + PAST_CAP + PAST_MATRIX, "beta": REAL}
    ),
    # integer labels, so that j = 10**400 passes the parity check
    "wigner_small_d": (
        lambda j=2, m_prime=1, m=0, beta=0.3: wigner_small_d(j, m_prime, m, beta),
        {"j": LABEL + HUGE + PAST_CAP, "m_prime": INDEX + HUGE, "m": INDEX + HUGE,
         "beta": REAL},
    ),
}


def _label(value):
    if isinstance(value, np.ndarray):
        return f"grid[..,{value[-1]}]"
    text = repr(value)
    return text if len(text) < 20 else f"10**{len(text) - 1}"


CASES = [
    pytest.param(name, arg, value, id=f"{name}-{arg}={_label(value)}")
    for name, (_, bad) in CONTRACT.items()
    for arg, values in bad.items()
    for value in values
]


def test_table_covers_every_public_name():
    assert set(CONTRACT) | EXEMPT == set(photonamp.__all__)
    assert not set(CONTRACT) & EXEMPT


@pytest.mark.parametrize(
    "name", sorted(n for n in CONTRACT if dataclasses.is_dataclass(getattr(photonamp, n))))
def test_every_init_field_has_bad_values(name):
    fields = {f.name for f in dataclasses.fields(getattr(photonamp, name)) if f.init}
    exempt = {field for record, field in RECORD_FIELDS if record == name}
    assert fields - exempt <= set(CONTRACT[name][1]), fields - exempt - set(CONTRACT[name][1])


def test_evolve_fock_takes_an_N_atoms_past_a_float():
    # N_atoms enters only the exact integer test of the validity warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = evolve_fock(TwoModeFockState(2, 1), HpEvolutionParams(0.3, N_atoms=10**400))
    assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_defaults_are_accepted(name):
    CONTRACT[name][0]()


@pytest.mark.parametrize("name,arg,value", CASES)
def test_bad_argument_raises_value_error_naming_it(name, arg, value):
    call, _ = CONTRACT[name]
    with pytest.raises(ValueError) as caught:
        call(**{arg: value})
    assert str(caught.value).startswith(f"{arg} must "), str(caught.value)


def _finite(result):
    """Every float in a result (arrays, records and tuples of them) is finite."""
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, tuple):
        return all(map(_finite, result))
    if isinstance(result, (np.ndarray, float)):
        return bool(np.isfinite(result).all())
    return True  # counts and metadata


# every real scalar gets the smallest subnormal, and every tau grid a point at it
TINY_CASES = [
    pytest.param(name, arg, value, id=f"{name}-{arg}")
    for name, (_, bad) in CONTRACT.items()
    for arg, values in bad.items()
    for value in ([np.array([0.0, SUBNORMAL, 1.0])] if arg == "tau_grid"
                  else [SUBNORMAL] if values[0] is REAL[0] else [])
]


@pytest.mark.parametrize("name,arg,value", TINY_CASES)
def test_subnormal_argument_gives_finite_values_or_a_value_error(name, arg, value):
    call, _ = CONTRACT[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = call(**{arg: value})
        except ValueError:  # a named argument, or a domain error such as a vanishing gain
            return
    assert _finite(result)
