"""Qubit dephasing-channel mixtures: decay rates, divisibility regions, measures.

The package analyses convex blends of the three single-axis Pauli dephasing
semigroups.  `channels` holds the channel algebra, `generator` the time-local
decay rates, `divisibility` the Markovian/non-Markovian classification,
`geometry` the region boundaries and measures, `choi` the intermediate-map
witness, `oracles` every independent check (only `rates` and `choi --oracle`
load it), `_procs` the forked workers, and `cli` the commands over them all.

The names in `__all__` are imported from their submodule on first use
(PEP 562), so `import pauli_simplex` alone loads neither the submodules nor
numpy.  This is what lets `import pauli_simplex.cli`, which runs this file
first, set OPENBLAS_NUM_THREADS before numpy loads: eager imports here would
silently undo that pin.
"""

import importlib

__version__ = "0.1.0"

#: each public name and the submodule that defines it
_EXPORTS = {
    "MixtureWeights": "channels",
    "three_mix_rates": "generator",
    "classify": "divisibility",
    "total_measures": "geometry",
    "monte_carlo_measures": "geometry",
    "rhp_witness": "choi",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
