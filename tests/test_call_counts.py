"""One call builds the correlation matrix once and certifies the state once; the
d = 2 oracle takes T and its eigenspace from that one ``certify_state``, so it
decomposes T once, and calls ``eigh`` only on a coupled T.

``correlation_matrix`` and ``certify_state`` are wrapped with counters in
every module that binds them, so calls through any import path are seen.
"""

import collections

import numpy as np
import pytest

import quditbell
from quditbell import MaximizeOptions, bellmax, cli, ghz, perfectness, states

from conftest import rotated_ghz

COUNTED = ("correlation_matrix", "certify_state")


@pytest.fixture
def calls(monkeypatch):
    counts = collections.Counter()
    for name in COUNTED:
        real = getattr(quditbell, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module in (quditbell, states, perfectness, bellmax, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return counts


def test_cli_certify_builds_t_once_and_certifies_once(calls, capsys):
    assert cli.main(["certify", "--state", "ghz", "--dim", "4"]) == 0
    report = capsys.readouterr().out
    assert '"perfect_observables"' in report
    assert calls == {"correlation_matrix": 1, "certify_state": 1}


@pytest.mark.parametrize("sign", [1, -1])
def test_maximize_bell_builds_t_once(calls, sign):
    bellmax.maximize_bell(ghz(4), sign, MaximizeOptions(restarts=2))
    assert calls == {"correlation_matrix": 1, "certify_state": 1}


@pytest.mark.parametrize("restarts", [2, 8, 64])
def test_maximize_bell_asks_only_for_the_witnesses_its_restarts_read(monkeypatch, restarts):
    counts = []

    def recorded(membership, sign, count, _real=bellmax.find_perfect_observables):
        counts.append(count)
        return _real(membership, sign, count)

    monkeypatch.setattr(bellmax, "find_perfect_observables", recorded)
    bellmax.maximize_bell(ghz(4), 1, MaximizeOptions(restarts=restarts))
    assert counts == [min(8, restarts)]


@pytest.fixture
def decompositions(calls, monkeypatch):
    """``calls``, also counting the spectral split of T and every ``np.linalg.eigh``."""
    for module, name in ((states, "_split_eigh"), (np.linalg, "eigh")):

        def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("sign", [1, -1])
def test_exhaustive_qubit_max_builds_t_once_and_decomposes_it_once(decompositions, sign):
    bellmax.exhaustive_qubit_max(ghz(2), sign, 8)
    # GHZ_2's T is diagonal: every coordinate is decoupled, so no eigh runs
    assert decompositions == {"correlation_matrix": 1, "certify_state": 1, "_split_eigh": 1}


@pytest.mark.parametrize("sign", [1, -1])
def test_exhaustive_qubit_max_on_a_rotated_state_runs_one_eigh(decompositions, sign):
    bellmax.exhaustive_qubit_max(rotated_ghz(2, np.random.default_rng(5)), sign, 8)
    assert decompositions == {
        "correlation_matrix": 1, "certify_state": 1, "_split_eigh": 1, "eigh": 1
    }
