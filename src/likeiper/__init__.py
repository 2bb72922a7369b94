"""likeiper: arbitrary-precision Li-Keiper coefficients and their structure.

The package computes the coefficients lambda(n), splits each into a smooth
trend part and a tiny oscillatory remainder, feeds them through binomial
difference/recurrence approximation schemes, checks them against the first
nontrivial zeta zeros, and scans the conjectured bound
|lambda_tiny(n)| <= gamma * n.

The package root re-exports the names the README and the tests use; every
other name lives in its module (``likeiper.goldens.CellReport`` and so on).
"""

from .bigreal import DEFAULT_DIGITS, MIN_DIGITS, BigReal, PrecisionError, big
from .constants import (
    ConstantsError,
    euler_gamma,
    fundamental_constants,
    load_stieltjes,
    log_pi,
    log_two,
    polygamma_half,
    zeta_int,
)
from .datafiles import DataFormatError
from .goldens import load_golden, verify_table
from .lambda_core import (
    LambdaTable,
    conjecture_scan,
    lambda1_closed_form,
    lambda_table,
    psi_perturbation,
)
from .probe import ProbeEvaluationError, f_eval, line_probe, zeta_complex, zeta_deriv
from .recurrences import (
    FULL_HISTORY,
    ORDER_M,
    VOROS,
    HistoryError,
    RecurrenceScheme,
    closed_form_check_linear,
    discrete_derivative,
    model_predictor,
    phi_nlogn,
    predict_full_history,
    predict_order_m,
    predict_voros,
    prediction_run,
    self_seeded_run,
)
from .series import (
    PowerSeries,
    SeriesDomainError,
    SeriesOrderError,
    binomial,
    koebe_series,
    parity_sign,
    series_add,
    series_compose_zmap,
    series_derivative,
    series_log,
    series_mul,
)
from .zeros import ZeroDataError, delta_bound, inversion_check, load_zeros, z_partial, z_tail_bound

__version__ = "1.0.0"
