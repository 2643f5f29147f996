import importlib.util
import json
import math
import pathlib
import re
import shlex
import sys
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditbell import (
    MaximizeOptions,
    TwoQuditState,
    cli,
    ghz,
    maximally_mixed,
    maximize_bell,
    perfectness,
    scalar_bound,
    states,
)
from quditbell.bloch import SET_TOL
from quditbell.cli import main
from quditbell.serialize import complex_matrix_to_pairs

from conftest import random_state, rotated_ghz


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(path, rho):
    TwoQuditState.from_matrix(rho).to_file(path)
    return f"file:{path}"


class TestSpectrum:
    def test_ghz2(self, capsys):
        code, out, _ = run_cli(["spectrum", "--state", "ghz", "--dim", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "1"
        report = payload["report"]
        assert report["spectral_norm"] == pytest.approx(1.0, abs=1e-12)
        assert report["ghz_expected"]["matches"] is True
        assert sorted(np.round(report["eigenvalues"], 9)) == [-1.0, 1.0, 1.0]

    def test_ghz6_norm_one_third(self, capsys):
        code, out, _ = run_cli(["spectrum", "--state", "ghz", "--dim", "6"], capsys)
        assert code == 0
        report = json.loads(out)["report"]
        assert report["spectral_norm"] == pytest.approx(1 / 3, abs=1e-11)
        assert report["ghz_expected"]["plus_multiplicity"] == 20
        assert report["ghz_expected"]["minus_multiplicity"] == 15

    def test_csv_format(self, tmp_path, capsys):
        out_path = tmp_path / "t.csv"
        code, _, _ = run_cli(
            ["spectrum", "--state", "ghz", "--dim", "2", "--format", "csv", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        mat = np.loadtxt(out_path, delimiter=",")
        assert np.allclose(mat, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_non_psd_file_names_invariant(self, tmp_path, capsys):
        bad = {"dim": 2, "rho": [[0.0, 0.0]] * 16}
        rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        flat = [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]
        bad["rho"] = flat
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(["spectrum", "--state", f"file:{path}", "--dim", "2"], capsys)
        assert code == 1
        assert "positive semidefinite" in err
        assert "-5" in err  # the offending min eigenvalue appears in the message

    def test_over_cap_dim_is_input_error(self, capsys):
        code, out, err = run_cli(["spectrum", "--state", "ghz", "--dim", "65"], capsys)
        assert (code, out) == (1, "")
        assert "exceeds cap" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["spectrum", "--state", "file:/nonexistent.json"], capsys)
        assert code == 1

    def test_bad_source(self, capsys):
        code, _, err = run_cli(["spectrum", "--state", "whatever"], capsys)
        assert code == 1
        assert "ghz" in err

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="CPython 3.10 keeps call arguments on the caller's stack until the call returns",
    )
    @pytest.mark.parametrize("command", ["spectrum", "certify"])
    def test_state_is_freed_before_the_transform(self, command, monkeypatch, tmp_path, capsys):
        source = write_state(tmp_path / "rot4.json", rotated_ghz(4, np.random.default_rng(2)).rho)
        loaded, alive = [], []
        load, apply_u = cli._load_state, states._apply_u

        def tracked_load(*args):
            state = load(*args)
            loaded.append(weakref.ref(state))
            return state

        def tracked_apply_u(*args):
            alive.append(loaded[0]() is not None)
            return apply_u(*args)

        monkeypatch.setattr(cli, "_load_state", tracked_load)
        monkeypatch.setattr(states, "_apply_u", tracked_apply_u)
        code, _, err = run_cli([command, "--state", source], capsys)
        assert code == 0, err
        assert alive == [False, False]  # both halves of the transform run without rho


class TestCertify:
    def test_ghz4_both_signs(self, capsys):
        code, out, _ = run_cli(["certify", "--state", "ghz", "--dim", "4"], capsys)
        assert code == 0
        report = json.loads(out)["report"]
        assert report["in_class"] is True
        assert report["signs"]["+"]["certified"] is True
        assert report["signs"]["-"]["certified"] is True

    def test_ghz2_witnesses(self, capsys):
        code, out, _ = run_cli(["certify", "--state", "ghz", "--dim", "2"], capsys)
        assert code == 0
        report = json.loads(out)["report"]
        assert np.allclose(report["signs"]["+"]["witness"], [0, 0, 1], atol=1e-9)
        assert np.allclose(report["signs"]["-"]["witness"], [0, 1, 0], atol=1e-9)
        for key in ("+", "-"):
            observables = report["signs"][key]["perfect_observables"]
            assert len(observables) == 2
            assert observables[0]["dim"] == 2

    def test_maximally_mixed_fails_certification(self, tmp_path, capsys):
        source = write_state(tmp_path / "mixed.json", maximally_mixed(4).rho)
        code, out, _ = run_cli(["certify", "--state", source], capsys)
        assert code == 2
        assert json.loads(out)["report"]["in_class"] is False

    @pytest.mark.parametrize("flags", [["--tol", "nan"], ["--restarts", "-3"]])
    def test_bad_search_inputs_are_input_errors(self, flags, capsys):
        code, out, err = run_cli(["certify", "--state", "ghz", "--dim", "4"] + flags, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("input error:")

    def test_odd_dim_message(self, capsys):
        code, _, err = run_cli(["certify", "--state", "ghz", "--dim", "3"], capsys)
        assert code == 1
        assert "odd" in err

    def test_asymmetric_rejected(self, tmp_path, capsys):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        source = write_state(tmp_path / "asym.json", rho)
        code, _, err = run_cli(["certify", "--state", source], capsys)
        assert code == 1
        assert "symmetric" in err

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="CPython 3.10 keeps call arguments on the caller's stack until the call returns",
    )
    def test_state_is_freed_before_the_eigendecomposition(self, monkeypatch, tmp_path, capsys):
        source = write_state(tmp_path / "rot4.json", rotated_ghz(4, np.random.default_rng(2)).rho)
        loaded, alive = [], []
        load, spectrum = cli._load_state, perfectness.correlation_spectrum

        def tracked_load(*args):
            state = load(*args)
            loaded.append(weakref.ref(state))
            return state

        def tracked_spectrum(tcorr):
            alive.append(loaded[0]() is not None)
            return spectrum(tcorr)

        monkeypatch.setattr(cli, "_load_state", tracked_load)
        monkeypatch.setattr(perfectness, "correlation_spectrum", tracked_spectrum)
        code, _, err = run_cli(["certify", "--state", source], capsys)
        assert code == 0, err
        assert alive == [False]


class TestMaximize:
    def test_ghz2_plus(self, capsys):
        code, out, _ = run_cli(
            ["maximize", "--state", "ghz", "--dim", "2", "--sign", "+", "--restarts", "8"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["best_value"] == pytest.approx(1.5, abs=1e-6)
        assert report["b_perfect_residual"] <= 1e-9

    def test_odd_dim(self, capsys):
        code, _, err = run_cli(["maximize", "--state", "ghz", "--dim", "3", "--sign", "+"], capsys)
        assert code == 1
        assert "odd" in err

    def test_zero_restarts_is_input_error(self, capsys):
        code, _, err = run_cli(
            ["maximize", "--state", "ghz", "--dim", "2", "--sign", "+", "--restarts", "0"],
            capsys,
        )
        assert code == 1
        assert "restarts must be at least 1" in err

    def test_iteration_cap_warning(self, capsys):
        args = ["maximize", "--state", "ghz", "--dim", "2", "--sign", "+", "--restarts", "2"]
        code, _, err = run_cli(args + ["--max-iters", "1"], capsys)
        assert code == 0
        assert err == "warning: at least one restart hit the iteration cap\n"
        code, out, err = run_cli(args + ["--max-iters", "0"], capsys)
        assert code == 1
        assert out == ""
        assert "max_iters must be at least 1" in err

    def test_no_warning_at_a_fixed_point_on_the_last_iteration(self, capsys):
        # this restart's first iteration without a gain is iteration 14
        args = ["maximize", "--state", "ghz", "--dim", "2", "--sign", "+", "--restarts", "1"]
        code, out, err = run_cli(args + ["--max-iters", "14"], capsys)
        assert code == 0
        assert json.loads(out)["report"]["per_restart"][0]["iterations"] == 14
        assert err == ""
        code, _, err = run_cli(args + ["--max-iters", "13"], capsys)
        assert code == 0
        assert err == "warning: at least one restart hit the iteration cap\n"

    def test_nan_tol_is_input_error(self, capsys):
        code, out, err = run_cli(
            ["maximize", "--state", "ghz", "--dim", "2", "--sign", "+", "--tol", "nan"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("input error:")

    def test_negative_tol_is_input_error(self, capsys):
        code, out, err = run_cli(
            ["maximize", "--state", "ghz", "--dim", "2", "--sign", "+", "--restarts", "2",
             "--tol", "-1"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("input error:")

    def test_uncertified_exit_code(self, tmp_path, capsys):
        source = write_state(tmp_path / "mixed.json", maximally_mixed(2).rho)
        code, _, err = run_cli(
            ["maximize", "--state", source, "--sign", "+", "--restarts", "2"], capsys
        )
        assert code == 2
        assert "certification failure" in err

    def test_byte_identical_reports(self, tmp_path, capsys):
        args = ["maximize", "--state", "ghz", "--dim", "2", "--sign", "-", "--restarts", "4"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            [
                "maximize", "--state", "ghz", "--dim", "2", "--sign", "+",
                "--restarts", "2", "--seed", "3", "--trace-out", str(trace),
            ],
            capsys,
        )
        assert code == 0
        report = maximize_bell(ghz(2), 1, MaximizeOptions(restarts=2, seed=3))
        header, *rows = trace.read_text().split("\n")[:-1]  # the last line ends the file
        assert header == "restart,iteration,value"
        assert len(rows) == len(report.trace) > 2
        for row, (restart, iteration, value) in zip(rows, report.trace):
            assert row == f"{restart},{iteration},{value!r}"

    def test_timing_optional(self, capsys):
        args = ["maximize", "--state", "ghz", "--dim", "2", "--sign", "+", "--restarts", "2"]
        _, out_plain, _ = run_cli(args, capsys)
        _, out_timed, _ = run_cli(args + ["--timing"], capsys)
        assert "timing" not in json.loads(out_plain)["report"]
        wall_time = json.loads(out_timed)["report"]["timing"]["wall_time_seconds"]
        assert isinstance(wall_time, float) and wall_time > 0

    @pytest.mark.parametrize(
        "value, expected", [(1.5 + 1e-6, 0), (1.5 + 2e-6, 3), (1.51, 3), (float("nan"), 3)]
    )
    def test_bound_violation_exit_code(self, monkeypatch, capsys, value, expected):
        import quditbell.cli as cli_mod

        real = cli_mod.maximize_bell

        def inflated(state, sign, opts):
            report = real(state, sign, opts)
            object.__setattr__(report, "best_value", value)
            return report

        monkeypatch.setattr(cli_mod, "maximize_bell", inflated)
        code, _, err = run_cli(
            ["maximize", "--state", "ghz", "--dim", "2", "--sign", "+", "--restarts", "2"],
            capsys,
        )
        assert code == expected
        assert ("BOUND VIOLATION" in err) == (expected == 3)


def test_parser_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    maximize = vars(parser.parse_args(["maximize", "--sign", "+"]))
    opts = asdict(MaximizeOptions())
    assert {key: maximize[key] for key in opts} == opts
    certify = parser.parse_args(["certify"])
    assert (certify.tol, certify.restarts) == (SET_TOL, perfectness.DEFAULT_RESTARTS)
    assert cli.BOUND_LIMIT == scalar_bound()[0]


class TestLhv:
    def test_bound_and_determinism(self, capsys):
        args = ["lhv", "--models", "300", "--sign", "+", "--seed", "1"]
        code, out1, _ = run_cli(args, capsys)
        assert code == 0
        report = json.loads(out1)["report"]
        assert report["max_bell_value"] <= 1.0 + 1e-9
        assert report["models_sampled"] == 300
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_single_model(self, capsys):
        code, out, _ = run_cli(["lhv", "--models", "1", "--sign", "-"], capsys)
        assert code == 0
        assert json.loads(out)["report"]["models_sampled"] == 1

    def test_negative_seed_is_input_error(self, capsys):
        code, out, err = run_cli(["lhv", "--models", "3", "--sign", "+", "--seed", "-1"], capsys)
        assert code == 1
        assert out == ""
        assert "seed" in err


@pytest.mark.parametrize(
    "args, expected",
    [
        (
            ["spectrum", "--state", "ghz", "--dim", "2"],
            {"command": "spectrum", "state_source": "ghz", "dim": 2},
        ),
        (["spectrum", "--state", "FILE"], {"command": "spectrum", "state_source": "FILE"}),
        (
            ["certify", "--state", "ghz", "--dim", "4", "--restarts", "3", "--tol", "1e-8"],
            {"command": "certify", "state_source": "ghz", "dim": 4, "restarts": 3, "tol": 1e-8},
        ),
        (
            ["certify", "--state", "FILE", "--seed", "2"],
            {"command": "certify", "state_source": "FILE", "restarts": 32, "seed": 2},
        ),
        (
            ["maximize", "--state", "ghz", "--dim", "2", "--sign", "-", "--restarts", "2"],
            {
                "command": "maximize",
                "state_source": "ghz",
                "dim": 2,
                "sign": "-",
                "restarts": 2,
                "max_iters": 500,
            },
        ),
        (
            ["maximize", "--state", "FILE", "--sign", "+", "--restarts", "1", "--max-iters", "3"],
            {
                "command": "maximize",
                "state_source": "FILE",
                "sign": "+",
                "restarts": 1,
                "max_iters": 3,
            },
        ),
        (
            ["lhv", "--models", "5", "--sign", "+", "--seed", "7"],
            {"command": "lhv", "sign": "+", "models": 5, "seed": 7},
        ),
    ],
)
def test_config_echo(args, expected, tmp_path, capsys):
    source = write_state(tmp_path / "ghz2.json", ghz(2).rho)
    args = [source if a == "FILE" else a for a in args]
    expected = {k: source if v == "FILE" else v for k, v in expected.items()}
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    # seed, tol and format are echoed by every subcommand, spectrum and lhv included
    assert json.loads(out)["config"] == {"seed": 0, "tol": 1e-9, "format": "json", **expected}


def test_state_file_roundtrip_through_cli(tmp_path, capsys):
    rng = np.random.default_rng(3)
    state = random_state(2, rng, symmetric=True)
    source = write_state(tmp_path / "state.json", state.rho)
    code, out, _ = run_cli(["spectrum", "--state", source], capsys)
    assert code == 0
    assert json.loads(out)["report"]["dim"] == 2


def test_dim_mismatch_with_file(tmp_path, capsys):
    source = write_state(tmp_path / "s.json", maximally_mixed(2).rho)
    code, _, err = run_cli(["spectrum", "--state", source, "--dim", "3"], capsys)
    assert code == 1
    assert "does not match" in err


def test_pair_and_base64_files_give_identical_reports(tmp_path, capsys):
    rho = rotated_ghz(4, np.random.default_rng(5)).rho
    path = tmp_path / "state.json"
    reports = []
    for write in (
        lambda: path.write_text(json.dumps({"dim": 4, "rho": complex_matrix_to_pairs(rho)})),
        lambda: write_state(path, rho),
    ):
        write()
        assert TwoQuditState.from_file(path).rho.tobytes() == rho.tobytes()
        code, out, err = run_cli(["certify", "--state", f"file:{path}", "--seed", "3"], capsys)
        assert code == 0, err
        reports.append(out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv, match",
    [
        ("certify --dim four", "argument --dim: invalid int value: 'four'"),
        ("maximize --state ghz --dim 2", "the following arguments are required: --sign"),
        ("spectrum --bogus", "unrecognized arguments: --bogus"),
    ],
)
def test_usage_error_is_input_error(argv, match, capsys):
    # argparse's own exit code 2 is the documented code of a certification failure
    code, out, err = run_cli(argv.split(), capsys)
    assert (code, out) == (1, "")
    assert err.startswith("input error: quditbell") and match in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--help"])
    assert exc.value.code == 0
    assert "--restarts" in capsys.readouterr().out


@pytest.mark.parametrize(
    "payload",
    [
        '{"dim": 2.7, "rho": []}',
        '{"dim": 2, "rho": [[0.25, 0], [0.25]]}',
        '{"dim": 2, "rho": "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"}',  # 24 of 256 bytes
        "[1, 2]",
    ],
)
def test_malformed_state_file_is_input_error(payload, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    code, out, err = run_cli(["certify", "--state", f"file:{path}"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("input error:")


def _load_script(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLI_DIGESTS = _load_script("cli_digests")


def test_ghz_survey_warns_on_a_nan_best_value(monkeypatch, capsys):
    # max(1.5, nan) drops a NaN in second place, and nan < -1e-6 is false: the CLI's
    # exit-3 rule, not a gap to the larger sign, decides the warning
    survey = _load_script("ghz_survey")
    real = survey.maximize_bell

    def nan_for_minus(state, sign, opts):
        report = real(state, sign, opts)
        return replace(report, best_value=math.nan) if sign == -1 else report

    monkeypatch.setattr(survey, "maximize_bell", nan_for_minus)
    monkeypatch.setattr(sys, "argv", ["ghz_survey.py", "--dims", "2", "--restarts", "2"])
    survey.main()
    warnings = [line for line in capsys.readouterr().out.splitlines() if "WARNING" in line]
    assert warnings == ["    WARNING: max(-) exceeds 1.5 by nan"]


def _indented(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


# leaves the encoders write differently if at all: specials, numpy floats, escapes
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16])
LEAVES = (
    FLOATS
    | st.integers()
    | st.booleans()
    | st.none()
    | st.floats().map(np.float64)
    | st.text()
    | st.sampled_from(['"', "\\", 'a "quoted" \\ path', "é中\U0001f600", "\x00\n"])
)
# the writer's float-list layout, with empty, ragged and non-finite rows
FLOAT_LISTS = st.lists(FLOATS, max_size=4) | st.lists(st.lists(FLOATS, max_size=3), max_size=4)
TREES = st.recursive(
    LEAVES | FLOAT_LISTS,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=40,
)


class TestReportWriter:
    """``cli._dumps`` is ``json.dumps(value, sort_keys=True, indent=2)``, byte for byte."""

    @pytest.fixture(scope="class")
    def state_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("states")
        CLI_DIGESTS.write_states(directory)
        return directory

    @pytest.mark.parametrize("command", CLI_DIGESTS.COMMANDS)
    def test_every_digest_report(self, command, state_dir, monkeypatch, capsys):
        monkeypatch.chdir(state_dir)
        reports, write = [], cli._dumps

        def checked(value):
            reports.append((write(value), _indented(value)))
            return reports[-1][0]

        monkeypatch.setattr(cli, "_dumps", checked)
        code = main(shlex.split(command))
        capsys.readouterr()
        # a JSON report is written by every command that exits 0 or 2, csv output aside
        assert len(reports) == (code in (0, 2) and "--format csv" not in command)
        for written, reference in reports:
            assert written == reference

    @settings(max_examples=300, deadline=None)
    @given(TREES)
    def test_random_trees(self, tree):
        assert cli._dumps(tree) == _indented(tree)

    @pytest.mark.parametrize(
        "tree",
        [
            [[1.0, 2.0], [3.0, 4.0]],
            [[0.5], [-0.0, 5e-324, 1e16]],  # ragged rows of floats
            [[1.0, 2.0], []],
            [[1.0, math.nan], [math.inf, 2.0]],
            [[1.0, 2.0], (3.0, 4.0)],
            [[1.0, 2.0], [3, 4.0]],
            [1.0, np.float64(2.0), True],
            [[1.0], 2.0],
            {"b": [1.0, -math.inf], "a": {"x": [[0.1, 0.2]], "y": [[[0.1]]]}, "": []},
            {1: 0.5, 2: "x"},
            {1.5: None, -0.0: [1.0]},
            {True: 1, False: 2},
            {None: "null"},
            "top-level é",
            math.nan,
        ],
    )
    def test_layouts(self, tree):
        assert cli._dumps(tree) == _indented(tree)

    @pytest.mark.parametrize(
        "tree", [{(1, 2): 0}, [np.float32(1.0)], {"a": [object()]}, {1: 0, "a": 1}]
    )
    def test_errors_are_json_dumps_errors(self, tree):
        with pytest.raises(TypeError) as reference:
            _indented(tree)
        with pytest.raises(TypeError, match=f"^{re.escape(str(reference.value))}$"):
            cli._dumps(tree)
