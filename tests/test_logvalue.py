import math

import pytest
from hypothesis import given, strategies as st

from entrofun.logvalue import LogValue

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
nonzero = finite.filter(lambda x: abs(x) > 1e-6)


def test_zero_and_one():
    assert LogValue.zero().is_zero
    assert LogValue.zero().to_float() == 0.0
    assert LogValue.one().to_float() == 1.0


def test_from_float_roundtrip():
    for x in (3.5, -2.0, 1e-200, -1e250):
        v = LogValue.from_float(x)
        assert v.to_float() == pytest.approx(x, rel=1e-15)


def test_overflow_representation():
    v = LogValue.from_log(1000.0)
    assert not v.representable
    assert v.to_float() == math.inf
    assert (-v).to_float() == -math.inf


@given(nonzero, nonzero)
def test_mul_div_match_floats(x, y):
    vx, vy = LogValue.from_float(x), LogValue.from_float(y)
    assert (vx * vy).to_float() == pytest.approx(x * y, rel=1e-12)
    assert (vx / vy).to_float() == pytest.approx(x / y, rel=1e-12)


@given(nonzero, nonzero)
def test_add_sub_match_floats(x, y):
    # cancellation between close operands amplifies the log-representation
    # rounding by the ratio of operand size to result size
    vx, vy = LogValue.from_float(x), LogValue.from_float(y)
    for result, expect in (((vx + vy), x + y), ((vx - vy), x - y)):
        cond = (abs(x) + abs(y)) / max(abs(expect), 1e-300)
        assert result.to_float() == pytest.approx(
            expect, rel=1e-13 * (1.0 + cond), abs=1e-18)


def test_add_huge_magnitudes():
    a = LogValue.from_log(5000.0)
    b = LogValue.from_log(5000.0 + math.log(2.0))
    assert (a + b).log_abs == pytest.approx(5000.0 + math.log(3.0), rel=1e-15)
    assert (b - a).log_abs == pytest.approx(5000.0, rel=1e-15)
    assert (a - b).sign == -1


def test_cancellation_to_zero():
    a = LogValue.from_float(7.25)
    assert (a - a).is_zero


def test_rel_diff():
    a = LogValue.from_float(2.0)
    b = LogValue.from_float(2.0000002)
    assert a.rel_diff(b) == pytest.approx(1e-7, rel=1e-4)
    assert a.rel_diff(-a) == pytest.approx(2.0)
    assert LogValue.zero().rel_diff(LogValue.zero()) == 0.0


def test_powf():
    v = LogValue.from_float(9.0)
    assert v.powf(0.5).to_float() == pytest.approx(3.0)
    with pytest.raises(ValueError):
        LogValue.from_float(-1.0).powf(0.5)
