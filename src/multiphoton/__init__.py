"""Simulation and statistical-validation toolkit for multiphoton
linear-optical experiments with probabilistic heralded pair sources.

Exact interference distributions via matrix permanents, standard and
scattershot sampling under loss, GHZ fidelity estimation, spectral-purity
models, and hypothesis tests for sample streams.
"""

__version__ = "0.1.0"

from . import errors, ghz, linalg, permanent, rng, sampling, sources, validation
from .errors import *
from .rng import *
from .linalg import *
from .permanent import *
from .sources import *
from .ghz import *
from .sampling import *
from .validation import *

__all__ = ["__version__", *errors.__all__, *rng.__all__, *linalg.__all__,
           *permanent.__all__, *sources.__all__, *ghz.__all__, *sampling.__all__,
           *validation.__all__]
