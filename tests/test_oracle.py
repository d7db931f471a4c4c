import pytest

from dbnkit import models, oracle


@pytest.mark.parametrize("check", oracle.ALL_CHECKS, ids=oracle.check_name)
def test_check_passes(check):
    r = check()
    assert r.passed, f"{r.name}: measured {r.measured:.3e}, tolerance {r.tolerance:.3e} {r.detail}"


def test_filter_selects_single_check():
    results = oracle.run_suite("em-monotone")
    assert [r.name for r in results] == ["em-monotone"]


def test_wrong_sign_energy_fails_marginal_consistency(monkeypatch):
    # mutation test: flip the energy sign and the enumeration identity breaks
    original = models.Rbm._energy_rows
    monkeypatch.setattr(models.Rbm, "_energy_rows", lambda self, x, y: -original(self, x, y))
    results = oracle.run_suite("marginal-consistency")
    assert len(results) == 1
    assert not results[0].passed


def test_crashing_check_reports_failure(monkeypatch):
    def broken():
        raise RuntimeError("kaboom")

    broken.__name__ = "check_broken_thing"
    monkeypatch.setattr(oracle, "ALL_CHECKS", [broken])
    results = oracle.run_suite()
    assert len(results) == 1
    assert not results[0].passed
    assert "kaboom" in results[0].detail
