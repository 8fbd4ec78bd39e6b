import pytest

from entrofun.functional import Functional, Kind


def test_required_parameters_enforced():
    with pytest.raises(ValueError):
        Functional(Kind.LAG_RENYI, 1, 50.0, mu=2.0, lam=1.0)  # kappa missing
    with pytest.raises(ValueError):
        Functional(Kind.GEG_RENYI, 1, 50.0, a=0.0, b=0.0, c=1.0, kappa=2.0)


def test_irrelevant_parameters_rejected():
    with pytest.raises(ValueError):
        Functional(Kind.LAG_RENYI, 1, 50.0, mu=2.0, lam=1.0, kappa=2.0,
                   sigma=1.0)
    with pytest.raises(ValueError):
        Functional(Kind.EXT_LAG_RENYI, 1, 50.0, sigma=1.0, lam=1.0,
                   kappa=2.0, c=1.0)


def test_shannon_kinds_fix_kappa():
    F = Functional.lag_shannon(1, 50.0, 2.0, 1.0)
    assert F.kappa == 2.0
    with pytest.raises(ValueError):
        Functional(Kind.LAG_SHANNON, 1, 50.0, mu=2.0, lam=1.0, kappa=3.0)


def test_basic_range_checks():
    with pytest.raises(ValueError):
        Functional.lag_renyi(-1, 50.0, 2.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        Functional.lag_renyi(1, 0.0, 2.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        Functional.lag_renyi(1, 50.0, 2.0, -1.0, 2.0)
    with pytest.raises(ValueError):
        Functional.geg_renyi(1, 50.0, 0.0, 0.0, 0.0, 1.0, 2.0)
    # non-finite alpha and weight parameters
    inf, nan = float("inf"), float("nan")
    for alpha in (inf, nan):
        with pytest.raises(ValueError, match="alpha must be"):
            Functional.lag_renyi(2, alpha, 2.5, 1.0, 2.0)
    for bad in (inf, -inf, nan):
        with pytest.raises(ValueError, match="must be"):
            Functional.lag_renyi(2, 50.0, bad, 1.0, 2.0)
        with pytest.raises(ValueError, match="must be"):
            Functional.lag_renyi(2, 50.0, 2.5, 1.0, bad)
        with pytest.raises(ValueError, match="a must be finite"):
            Functional.geg_renyi(2, 50.0, bad, 0.0, 1.0, 3.0, 2.0)
        with pytest.raises(ValueError, match="b must be finite"):
            Functional.geg_shannon(2, 50.0, 0.0, bad, 1.0, 3.0)
        with pytest.raises(ValueError, match="must be"):
            Functional.geg_renyi(2, 50.0, 0.0, 0.0, 1.0, bad, 2.0)
        with pytest.raises(ValueError, match="sigma must be finite"):
            Functional.ext_renyi(2, 50.0, bad, 2.0, 2.0)
        with pytest.raises(ValueError, match="must be"):
            Functional.ext_shannon(2, 50.0, 1.0, bad)


def test_symmetric_weight_shannon_helper():
    F = Functional.gegenbauer_weight_shannon(2, 80.0)
    assert (F.a, F.b, F.c, F.d) == (-0.5, -0.5, 1.0, 1.0)
    assert F.kind is Kind.GEG_SHANNON and F.kappa == 2.0


def test_params_dict_round_trip():
    F = Functional.ext_renyi(2, 120.0, 0.5, 2.0, 1.5)
    d = F.params_dict()
    rebuilt = Functional(Kind(d.pop("kind")), d.pop("m"), d.pop("alpha"), **d)
    assert rebuilt == F
