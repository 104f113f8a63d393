"""Session-wide fixtures shared by more than one test package."""

import pytest


class _FigureResults(dict):
    """Each figure experiment's ``compute()`` at its defaults, made on first use."""

    def __missing__(self, name):
        from repro.figures.__main__ import EXPERIMENTS

        self[name] = result = EXPERIMENTS[name].compute()
        return result


@pytest.fixture(scope="session")
def figure_results():
    """``{experiment: result}``, each experiment computed once per session."""
    return _FigureResults()
