"""likeiper: arbitrary-precision Li-Keiper coefficients and their structure.

The package computes the coefficients lambda(n), splits each into a smooth
trend part and a tiny oscillatory remainder, feeds them through binomial
difference/recurrence approximation schemes, checks them against the first
nontrivial zeta zeros, and scans the conjectured bound
|lambda_tiny(n)| <= gamma * n.

The package root re-exports only the four names of the README's Library
example; every other name lives in its module (``likeiper.bigreal.BigReal``,
``likeiper.goldens.verify_table`` and so on), and ``import likeiper`` loads
neither the CLI, the fixture verifier nor the probe.
"""

from .lambda_core import conjecture_scan, lambda_table
from .zeros import inversion_check, load_zeros

__version__ = "1.0.0"
