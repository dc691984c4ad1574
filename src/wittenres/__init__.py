"""Exact symbolic verification of the metric and spectral Einstein
functionals for the Witten deformation on even-dimensional manifolds.

`evaluate_labels` evaluates ledger labels (and every label they sum over)
into a dict from label to value in ledger order; `wres_density` is the
residue density of one term sum.  A value is what the report prints: a
dict from invariant atom name, such as "g(u,w)*s", to its real polynomial
in m (`scalars.PolyM`), in units of TrId*Vol, with no zero atom.  The
`wittenres` command (`wittenres.cli`) diffs the labels against the stored
reference.
"""

from .residue import evaluate_labels, wres_density

__all__ = [
    "evaluate_labels",
    "wres_density",
]

__version__ = "0.1.0"
