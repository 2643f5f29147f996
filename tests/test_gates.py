"""Every public entry point gates a sign or a dimension with the shared gates of
``quditbell.errors``: one rule, one named error, and a plain int in reports."""

import json
import os
import tracemalloc

import numpy as np
import pytest

import quditbell as qb
from quditbell import DimensionCapError, QuditBellError, ValidationError
from quditbell.gellmann import generator_entries

_STATE = qb.ghz(2)
_MEMBERSHIP = qb.certify_state(_STATE)
_TCORR = _MEMBERSHIP.tcorr
_SZ = qb.make_diag_pm1(2, [1, -1])
_SX = qb.make_offdiag_real_pm1(2, [0])

# name -> call with the sign as the only argument left open
SIGN_CALLS = {
    "bell_expression": lambda s: qb.bell_expression(_STATE, _SX, _SZ, _SX, s),
    "bell_expression_bloch": lambda s: qb.bell_expression_bloch(
        _TCORR, _SX.bloch, _SZ.bloch, _SX.bloch, s
    ),
    "bell_condition_spectral_form": lambda s: qb.bell_condition_spectral_form(
        _TCORR, _SZ.bloch, s
    ),
    "ClassMembership.for_sign": lambda s: _MEMBERSHIP.for_sign(s).to_dict(),
    "find_perfect_observables": lambda s: [
        b.to_dict() for b in qb.find_perfect_observables(_MEMBERSHIP, s, count=1)
    ],
    "exhaustive_qubit_max": lambda s: qb.exhaustive_qubit_max(_STATE, s, 8),
    "lhv_monte_carlo": lambda s: qb.lhv_monte_carlo(s, 10),
    "maximize_bell": lambda s: qb.maximize_bell(_STATE, s, qb.MaximizeOptions(restarts=2)),
}


@pytest.mark.parametrize("name", SIGN_CALLS)
@pytest.mark.parametrize("bad", [True, 1.0, np.float64(1), 0, 2, "+"])
def test_sign_gate_rejects_all_but_integer_pm1(name, bad):
    with pytest.raises(ValidationError, match="sign must be the integer"):
        SIGN_CALLS[name](bad)


@pytest.mark.parametrize("name", SIGN_CALLS)
@pytest.mark.parametrize("sign", [1, -1])
def test_numpy_integer_sign_gives_the_int_result(name, sign):
    result = SIGN_CALLS[name](np.int64(sign))
    if isinstance(result, (qb.BellMaxReport, qb.LhvCheckReport)):
        text = json.dumps(result.to_dict())
        assert f'"sign": {sign},' in text
        assert text == json.dumps(SIGN_CALLS[name](sign).to_dict())
    else:
        assert result == SIGN_CALLS[name](sign)


# name -> call with the tolerance as the only argument left open, returning a report
TOL_REPORTS = {
    "certify_state": lambda tol: qb.certify_state(_STATE, tol=tol),
    "check_bell_condition": lambda tol: qb.check_bell_condition(_STATE, _SZ, tol=tol),
}


@pytest.mark.parametrize("name", TOL_REPORTS)
@pytest.mark.parametrize("tol", [np.int64(0), np.float32(1e-6), np.float64(1e-9)], ids=repr)
def test_numpy_tolerance_gives_the_float_report(name, tol):
    # the report stores the gated float, so json.dumps reads no numpy scalar
    text = json.dumps(TOL_REPORTS[name](tol).to_dict())
    assert text == json.dumps(TOL_REPORTS[name](float(tol)).to_dict())


def test_numpy_tolerance_gives_a_plain_bool():
    tol = np.float32(1e-6)
    assert type(qb.bell_condition_spectral_form(_TCORR, _SZ.bloch, 1, tol=tol)) is bool
    assert type(qb.in_pm1_shell(_SZ.bloch, tol=tol)) is bool


# name -> call with the dimension as the only argument left open
DIM_CALLS = {
    "ghz": qb.ghz,
    "maximally_mixed": qb.maximally_mixed,
    "build_basis": qb.build_basis,
    "generator_entries": generator_entries,
    "bloch_ball_radius": qb.bloch_ball_radius,
    "BlochVector": lambda d: qb.BlochVector(dim=d, coords=np.zeros(15)),
    "from_bloch": lambda d: qb.from_bloch(np.zeros(15), d),
    "pm1_round": lambda d: qb.pm1_round(np.ones(15), d),
    "make_diag_pm1": lambda d: qb.make_diag_pm1(d, [1, 1, -1, -1]),
    "make_offdiag_real_pm1": lambda d: qb.make_offdiag_real_pm1(d, [0, 1]),
    "make_offdiag_imag_pm1": lambda d: qb.make_offdiag_imag_pm1(d, [0, 1]),
    "haar_unitary": lambda d: qb.haar_unitary(d, np.random.default_rng(0)),
}


@pytest.mark.parametrize("name", DIM_CALLS)
@pytest.mark.parametrize("bad", [4.0, "4", True, 1])
def test_dimension_gate_rejects_non_integer_or_small_d(name, bad):
    DIM_CALLS[name](4)  # a cached d = 4 must not let 4.0 or True through
    DIM_CALLS[name](np.int64(4))
    with pytest.raises(QuditBellError, match="dimension must be"):
        DIM_CALLS[name](bad)


def test_gated_dimensions_are_stored_as_int():
    assert type(qb.ghz(np.int64(2)).dim) is int
    assert type(qb.BlochVector(dim=np.int64(2), coords=np.zeros(3)).dim) is int
    assert type(qb.make_diag_pm1(np.int64(2), [1, -1]).dim) is int


@pytest.mark.parametrize("build", [qb.ghz, qb.maximally_mixed])
def test_over_cap_state_fails_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCapError, match="exceeds cap 64"):
            build(65)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("slot", range(3))
def test_bell_expression_bloch_rejects_a_foreign_dimension(slot):
    tcorr = qb.certify_state(qb.ghz(4)).tcorr
    vectors = [qb.make_diag_pm1(4, [1, 1, -1, -1]).bloch] * 3
    vectors[slot] = _SZ.bloch  # d = 2
    with pytest.raises(qb.DimensionError, match="do not match correlation dim 4"):
        qb.bell_expression_bloch(tcorr, *vectors, 1)


def test_check_bell_condition_rejects_a_foreign_dimension():
    with pytest.raises(qb.DimensionError, match="match state dim 4"):
        qb.check_bell_condition(qb.ghz(4), _SZ)


def test_haar_unitary_names_a_seed_passed_as_rng():
    with pytest.raises(ValidationError, match="rng must be a Generator, got int"):
        qb.haar_unitary(2, 3)


@pytest.mark.parametrize(
    "slots, name", [((0,), "A1"), ((1,), "A2"), ((2,), "B1"), ((3,), "B2"), (range(4), "A1")]
)
def test_chsh_value_gates_the_range_of_each_observable(slots, name):
    # the CHSH-optimal settings give 2 sqrt(2); all four scaled by 2 read 4 x 2 sqrt(2) ungated
    settings = list(qb.chsh_optimal_settings(_STATE))
    assert abs(qb.chsh_value(_STATE, *settings) - 2 * np.sqrt(2)) <= 1e-12
    for slot in slots:
        settings[slot] = qb.QuditObservable.from_matrix(2 * settings[slot].matrix)
    with pytest.raises(ValidationError, match=rf"^{name} has eigenvalues outside \[-1, 1\]"):
        qb.chsh_value(_STATE, *settings)


_Z = _SZ.bloch.coords  # a plain array where a BlochVector belongs

# name -> (call, the argument it names) with one argument of the wrong type
TYPE_CALLS = {
    "product_expectation state": (lambda: qb.product_expectation(_STATE.rho, _SZ, _SZ), "state"),
    "product_expectation a": (lambda: qb.product_expectation(_STATE, None, _SZ), "a"),
    "product_expectation b": (lambda: qb.product_expectation(_STATE, _SZ, _SZ.matrix), "b"),
    "bloch_expectation tcorr": (
        lambda: qb.bloch_expectation(_TCORR.matrix, _SZ.bloch, _SZ.bloch), "tcorr"
    ),
    "bloch_expectation a": (lambda: qb.bloch_expectation(_TCORR, _Z, _SZ.bloch), "a"),
    "bloch_expectation b": (lambda: qb.bloch_expectation(_TCORR, _SZ.bloch, None), "b"),
    "check_bell_condition state": (lambda: qb.check_bell_condition(None, _SZ), "state"),
    "check_bell_condition observable": (
        lambda: qb.check_bell_condition(_STATE, _SZ.matrix), "observable"
    ),
    "bell_condition_spectral_form tcorr": (
        lambda: qb.bell_condition_spectral_form(None, _SZ.bloch, 1), "tcorr"
    ),
    "bell_condition_spectral_form b": (lambda: qb.bell_condition_spectral_form(_TCORR, _Z, 1), "b"),
    "bell_expression Btilde": (lambda: qb.bell_expression(_STATE, _SX, _SZ, None, 1), "Btilde"),
    "bell_expression_bloch tcorr": (
        lambda: qb.bell_expression_bloch(None, _SX.bloch, _SZ.bloch, _SX.bloch, 1), "tcorr"
    ),
    "bell_expression_bloch a": (
        lambda: qb.bell_expression_bloch(_TCORR, _Z, _SZ.bloch, _SX.bloch, 1), "a"
    ),
    "certify_state state": (lambda: qb.certify_state(_STATE.rho), "state"),
    "correlation_matrix state": (lambda: qb.correlation_matrix(_STATE.rho), "state"),
    "chsh_optimal_settings state": (lambda: qb.chsh_optimal_settings(_STATE.rho), "state"),
    "chsh_value B1": (lambda: qb.chsh_value(_STATE, _SX, _SZ, None, _SZ), "B1"),
    "exhaustive_qubit_max state": (lambda: qb.exhaustive_qubit_max(None, 1, 4), "state"),
    "maximize_bell state": (lambda: qb.maximize_bell(None, 1), "state"),
    "maximize_bell opts": (lambda: qb.maximize_bell(_STATE, 1, {"restarts": 2}), "opts"),
    "find_perfect_observables membership": (
        lambda: qb.find_perfect_observables(None, 1), "membership"
    ),
    "write_trace_csv report": (lambda: qb.write_trace_csv(None, os.devnull), "report"),
    "make_diag_pm1 signs": (lambda: qb.make_diag_pm1(4, 5), "signs"),
    "make_offdiag_real_pm1 gammas": (lambda: qb.make_offdiag_real_pm1(4, None), "gammas"),
}


@pytest.mark.parametrize("name", TYPE_CALLS)
def test_type_gate_names_the_argument(name):
    call, argument = TYPE_CALLS[name]
    with pytest.raises(ValidationError, match=f"^{argument} must be a "):
        call()


@pytest.mark.parametrize(
    "call",
    [
        qb.in_pm1_shell,
        qb.from_bloch,
        qb.pm1_round,
        lambda r: qb.BlochVector(dim=2, coords=r),
    ],
)
@pytest.mark.parametrize(
    "bad",
    [
        "abc",
        [[0.0, 1.0], [1.0]],
        [{}, 1.0, 0.0],
        np.array([0.5 + 1j, 0.0, 0.0]),
        ["0", "0", "1"],
        [False, False, True],
    ],
)
@pytest.mark.filterwarnings("error")  # a complex vector must not be cast with a ComplexWarning
def test_non_numeric_bloch_vector_is_named(call, bad):
    with pytest.raises(ValidationError, match="Bloch vector must be an array of real numbers"):
        call(bad)


@pytest.mark.parametrize("call", [qb.to_bloch, qb.QuditObservable.from_matrix, qb.operator_norm])
@pytest.mark.parametrize(
    "bad",
    [
        "abc",
        [["a", "b"], ["c", "d"]],
        [[1, 0], [0]],
        {"a": 1},
        None,
        np.array([[False, True], [True, False]]),
    ],
    ids=["string", "strings", "ragged", "dict", "None", "bool-sx"],
)
def test_non_numeric_matrix_is_named(call, bad):
    with pytest.raises(ValidationError, match="must be a matrix of numbers"):
        call(bad)


@pytest.mark.parametrize(
    "bad, match",
    [
        # eigvalsh reads one triangle, so a non-hermitian matrix must fail before it
        ([[1, 2], [3, 4]], r"^matrix is not hermitian: max \|M - M\^dag\| = 1\.000e\+00$"),
        ([[np.nan, 0], [0, 1]], "^matrix entries must be finite$"),
        (np.ones(3), r"^matrix must be a non-empty square matrix, got shape \(3,\)$"),
        (np.zeros((2, 2, 2)), r"^matrix must be a non-empty square matrix, got shape \(2, 2, 2\)$"),
        (np.zeros((0, 0)), r"^matrix must be a non-empty square matrix, got shape \(0, 0\)$"),
    ],
)
def test_operator_norm_gates_its_matrix(bad, match):
    with pytest.raises(ValidationError, match=match):
        qb.operator_norm(bad)
