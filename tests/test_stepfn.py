import numpy as np
import pytest

from ncergo.errors import InvalidInputError
from ncergo.stepfn import StepFunction, integral_dominates


def test_from_levels_merges_and_drops():
    f = StepFunction.from_levels([3.0, 3.0, 1.0, 0.0], [1.0, 0.5, 1.0, 2.0])
    assert np.allclose(f.edges, [0.0, 1.5, 2.5])
    assert np.allclose(f.values, [3.0, 1.0])


def test_zero_function():
    f = StepFunction.from_levels([], [])
    assert f(0.0) == 0.0
    assert f(17.3) == 0.0
    assert f.integral(5.0) == 0.0
    assert f.support_end == 0.0


def test_right_continuity():
    f = StepFunction.from_levels([3.0, 1.0], [1.0, 1.0])
    assert f(0.0) == 3.0
    assert f(0.999) == 3.0
    # value at a breakpoint is the value on the interval to its right
    assert f(1.0) == 1.0
    assert f(2.0) == 0.0
    assert f(100.0) == 0.0
    with pytest.raises(InvalidInputError):
        f(-0.1)


def test_integral_exact():
    f = StepFunction.from_levels([3.0, 1.0], [1.0, 1.0])
    assert f.integral(0.0) == 0.0
    assert f.integral(0.5) == 1.5
    assert f.integral(1.0) == 3.0
    assert f.integral(1.5) == 3.5
    assert f.integral(2.0) == 4.0
    assert f.integral(10.0) == 4.0


def test_invalid_constructions():
    with pytest.raises(InvalidInputError):
        StepFunction(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        StepFunction(np.array([0.5, 1.0]), np.array([1.0]))
    with pytest.raises(InvalidInputError):
        StepFunction(np.array([0.0, 1.0, 1.0]), np.array([2.0, 1.0]))
    with pytest.raises(InvalidInputError):
        # increasing values
        StepFunction(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        StepFunction(np.array([0.0, 1.0]), np.array([-1.0]))


def test_to_csv():
    f = StepFunction.from_levels([3.0, 1.0], [1.0, 1.0])
    lines = f.to_csv().strip().splitlines()
    assert lines[0] == "t,value"
    assert lines[1].startswith("0.0,")
    assert lines[-1] == "2.0,0.0"


def test_integral_dominates_examples():
    big = StepFunction.from_levels([2.0], [1.0])     # diag(2, 0)
    small = StepFunction.from_levels([1.0], [2.0])   # diag(1, 1)
    assert integral_dominates(big, small, 1e-12)
    assert not integral_dominates(small, big, 1e-12)
    assert integral_dominates(big, big, 0.0)


def test_integral_dominates_needs_point_past_support():
    # equal on [0, 1] but the smaller support loses afterwards
    big = StepFunction.from_levels([1.0], [1.0])
    small = StepFunction.from_levels([1.0], [1.5])
    assert not integral_dominates(big, small, 1e-12)
    assert integral_dominates(small, big, 1e-12)
