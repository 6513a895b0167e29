"""Qubit dephasing-channel mixtures: decay rates, divisibility regions, measures.

The package analyses convex blends of the three single-axis Pauli dephasing
semigroups.  `channels` holds the channel algebra, `generator` the time-local
decay rates, `divisibility` the Markovian/non-Markovian classification,
`geometry` the region boundaries and measures, and `choi` the intermediate-map
dynamical-matrix witness.  The `cli` module exposes everything as subcommands.
"""

__version__ = "0.1.0"

from .channels import MixtureWeights
from .choi import rhp_witness
from .divisibility import classify
from .generator import three_mix_rates
from .geometry import monte_carlo_measures, total_measures

__all__ = [
    "__version__",
    "MixtureWeights",
    "three_mix_rates",
    "classify",
    "total_measures",
    "monte_carlo_measures",
    "rhp_witness",
]
