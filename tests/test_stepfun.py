"""The step functions the scalar oracles are read through, and the
product-limit CDF read as one."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import km_survival
from oracles import StepFunction


def test_eval_before_first_knot():
    f = StepFunction(np.array([1.0]), np.array([0.5]), pre=0.0)
    assert f(0.9) == 0.0


def test_right_continuity_at_knot():
    f = StepFunction(np.array([1.0]), np.array([0.5]), pre=0.0)
    assert f(1.0) == 0.5


def test_km_cdf_between_jumps():
    surv = km_survival(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]))
    # product-limit by hand: P(2.5) = 2/3
    assert 1.0 - surv(2.5) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_left_continuous_side():
    f = StepFunction(np.array([1.0, 2.0]), np.array([10.0, 20.0]), pre=0.0, side="left")
    assert f(1.0) == 0.0       # knot keeps the previous level
    assert f(1.5) == 10.0
    assert f(2.0) == 10.0
    assert f(2.5) == 20.0


def test_strictly_increasing_knots_required():
    with pytest.raises(ValueError):
        StepFunction(np.array([1.0, 1.0]), np.array([0.1, 0.2]))


@given(st.lists(st.floats(0.01, 50.0), min_size=2, max_size=40, unique=True),
       st.lists(st.floats(-10.0, 60.0), min_size=2, max_size=20),
       st.integers(0, 2**32 - 1))
def test_cdf_eval_is_monotone(times, queries, seed):
    rng = np.random.default_rng(seed)
    x = np.array(sorted(times))
    delta = rng.integers(0, 2, x.size)
    delta[0] = 1
    qs = np.sort(np.asarray(queries))
    vals = 1.0 - km_survival(x, delta)(qs)
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals >= 0) & (vals <= 1))
