"""Long-code DS-CDMA simulation and SOS-based semi-blind channel estimation.

Submodules: ``model`` (signal synthesis), ``sos`` (second-order-statistics
estimation), ``analytic`` (closed-form error predictions), ``estimators``
(training / moment-matching / subspace channel estimators), ``harness``
(Monte Carlo sweeps and I/O), ``cli`` (command-line front end).
"""

from . import analytic, estimators, harness, model, sos
from .errors import ConfigError, SingularSystemError

__version__ = "0.1.0"

__all__ = [
    "analytic",
    "estimators",
    "harness",
    "model",
    "sos",
    "ConfigError",
    "SingularSystemError",
]
