"""Statistics toolkit used by every analysis in the paper.

The kernels here (ECDF/PDF construction, Spearman rank correlation with
p-value, Lorenz-style concentration curves) are implemented from scratch
on NumPy and, where scipy offers a reference implementation,
cross-checked against it in the test suite.

Every name resolves lazily (PEP 562): ``from repro.stats.distributions
import ECDF`` loads that module alone, and only
:mod:`repro.stats.correlation` (``pearson``, ``spearman``) imports
``scipy.special``.
"""

from repro import _lazy

__all__ = [
    "ECDF",
    "fraction_below",
    "quantile",
    "pearson",
    "spearman",
    "lorenz_curve",
    "top_share",
    "overlap_fraction",
    "histogram_pdf",
    "freedman_diaconis_bins",
]

# Lazy attribute map (PEP 562): name -> defining module.
_LAZY_ATTRS = {
    "ECDF": "repro.stats.distributions",
    "fraction_below": "repro.stats.distributions",
    "quantile": "repro.stats.distributions",
    "pearson": "repro.stats.correlation",
    "spearman": "repro.stats.correlation",
    "lorenz_curve": "repro.stats.concentration",
    "top_share": "repro.stats.concentration",
    "overlap_fraction": "repro.stats.concentration",
    "histogram_pdf": "repro.stats.binning",
    "freedman_diaconis_bins": "repro.stats.binning",
}

__getattr__, __dir__ = _lazy.exports(__name__, _LAZY_ATTRS)
