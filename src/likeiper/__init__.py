"""likeiper: arbitrary-precision Li-Keiper coefficients and their structure.

The package computes the coefficients lambda(n), splits each into a smooth
trend part and a tiny oscillatory remainder, feeds them through binomial
difference/recurrence approximation schemes, checks them against the first
nontrivial zeta zeros, and scans the conjectured bound
|lambda_tiny(n)| <= gamma * n.

The package root re-exports only the four names of the README's Library
example; every other name lives in its module (``likeiper.bigreal.BigReal``,
``likeiper.goldens.verify_table`` and so on).  The four resolve on first use
(PEP 562), so ``import likeiper`` loads no module of the package, nor mpmath.
"""

__version__ = "1.0.0"


def __getattr__(name: str):
    module = {"conjecture_scan": "lambda_core", "lambda_table": "lambda_core",
              "inversion_check": "zeros", "load_zeros": "zeros"}.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return globals()[name]
