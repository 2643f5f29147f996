"""Quantifying violation of the original Bell inequality by two-qudit states.

The package provides the generalized Gell-Mann representation of traceless
qudit observables, correlation matrices of two-qudit states, certificates of
perfect correlations/anticorrelations, and a constrained maximizer of the
three-correlator Bell combination that verifies the 3/2 quantum bound.
"""

from .bellmax import (
    BellMaxReport,
    LhvCheckReport,
    MaximizeOptions,
    bell_expression,
    bell_expression_bloch,
    chsh_optimal_settings,
    chsh_value,
    exhaustive_qubit_max,
    lhv_monte_carlo,
    maximize_bell,
    scalar_bound,
    write_trace_csv,
)
from .bloch import (
    BlochVector,
    QuditObservable,
    bloch_ball_radius,
    from_bloch,
    haar_unitary,
    in_pm1_shell,
    make_diag_pm1,
    make_offdiag_imag_pm1,
    make_offdiag_real_pm1,
    operator_norm,
    pm1_round,
    to_bloch,
)
from .errors import (
    CertificationError,
    DimensionCapError,
    DimensionError,
    QuditBellError,
    ValidationError,
)
from .gellmann import build_basis
from .perfectness import (
    ClassMembership,
    PerfectnessCertificate,
    SignWitness,
    bell_condition_spectral_form,
    certify_state,
    check_bell_condition,
    correlation_spectrum,
    find_perfect_observables,
)
from .states import (
    CorrelationMatrix,
    TwoQuditState,
    bloch_expectation,
    correlation_matrix,
    ghz,
    maximally_mixed,
    product_expectation,
)

__version__ = "0.1.0"

__all__ = [
    "BellMaxReport",
    "BlochVector",
    "CertificationError",
    "ClassMembership",
    "CorrelationMatrix",
    "DimensionCapError",
    "DimensionError",
    "LhvCheckReport",
    "MaximizeOptions",
    "PerfectnessCertificate",
    "QuditBellError",
    "QuditObservable",
    "SignWitness",
    "TwoQuditState",
    "ValidationError",
    "bell_condition_spectral_form",
    "bell_expression",
    "bell_expression_bloch",
    "bloch_ball_radius",
    "bloch_expectation",
    "build_basis",
    "certify_state",
    "check_bell_condition",
    "chsh_optimal_settings",
    "chsh_value",
    "correlation_matrix",
    "correlation_spectrum",
    "exhaustive_qubit_max",
    "find_perfect_observables",
    "from_bloch",
    "ghz",
    "haar_unitary",
    "in_pm1_shell",
    "lhv_monte_carlo",
    "make_diag_pm1",
    "make_offdiag_imag_pm1",
    "make_offdiag_real_pm1",
    "maximally_mixed",
    "maximize_bell",
    "operator_norm",
    "pm1_round",
    "product_expectation",
    "scalar_bound",
    "to_bloch",
    "write_trace_csv",
]
