"""ordview: ordinal classification with soft labels, cumulative link heads,
and multi-view weighted ensembles.

Labels are 0-based ranks 0..n_classes-1 throughout. All randomness flows
through explicit integer seeds; no function touches global RNG state.
"""

__all__ = ["__version__"]

__version__ = "0.1.0"
