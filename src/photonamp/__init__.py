"""Collective atom-photon beam-splitter dynamics: detection probabilities,
an exact finite-N sector solver, intensity gain, and photon-number
discrimination from peak timing.

Each module's __all__ declares its public names; the package re-exports
them all."""

from . import ensembles, exact_model, hp_model, numerics, traces
from .ensembles import *  # noqa: F401,F403
from .exact_model import *  # noqa: F401,F403
from .hp_model import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .traces import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (ensembles, exact_model, hp_model, numerics, traces)
    for name in module.__all__
)
