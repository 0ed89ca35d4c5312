"""thetacert: certified theta-function numerics and proof verification.

The package evaluates the Jacobi theta functions theta2, theta4 and their
first three derivatives with rigorous truncation bounds, and mechanically
certifies the inequality chains proving that y^2 theta4'(y)/theta4(y) is
strictly convex and strictly decreasing on (0, oo), including reproduction
of every numeric constant those chains rest on.
"""

from .certify import CertificationReport, Check, Status, Witness, certify_sign
from .enclosure import (
    DEFAULT_CONFIG,
    ConvergenceError,
    DomainError,
    Enclosure,
    EnclosureError,
    EvalConfig,
    as_enclosure,
    current_precision,
    precision,
)
from .envelopes import (
    EnvelopeConstants,
    PAPER_CONSTANTS,
    admissibility_factor,
    check_c_admissible,
    log_grid,
    verify_sandwiches,
)
from .exppoly import DegreeError, ExpPoly
from .modular import MODULAR_COEFFICIENTS, theta4_eval, verify_modular_identities
from .scanner import ExponentQuery, f_a_second, scan_rows
from .theta import theta2_series
from .verifier import (
    GreekConstants,
    QUANTITIES,
    checked_greek_constants,
    f_eval,
    f_prime,
    f_second,
    g_second,
    h_reciprocal,
    small_y_bracket,
    verify_convexity,
    verify_decreasing_argument,
    verify_even_terms_large_y,
    verify_g_chain,
    verify_odd_terms_large_y,
    verify_small_y_chain,
)

__version__ = "0.1.0"
