"""Exact symbolic verification of the metric and spectral Einstein
functionals for the Witten deformation on even-dimensional manifolds.

`evaluate_labels` evaluates ledger labels (and every label they sum over)
into a dict of exact `ScalarInvariantExpr` values in ledger order;
`wres_density` is the residue density of one term sum.  The `wittenres`
command (`wittenres.cli`) diffs the labels against the stored reference.
"""

from .residue import evaluate_labels, wres_density
from .tensor import ScalarInvariantExpr

__all__ = [
    "ScalarInvariantExpr",
    "evaluate_labels",
    "wres_density",
]

__version__ = "0.1.0"
