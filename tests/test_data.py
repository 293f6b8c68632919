import numpy as np
import pytest

from lssurv.data import Dataset, SourceRecord, TargetRecord
from lssurv.errors import EmptyTarget, ValidationError


def test_source_record_validation():
    r = SourceRecord(1.5, 1, np.array([0.0, 2.0]))
    assert r.x == 1.5 and r.delta == 1
    with pytest.raises(ValidationError):
        SourceRecord(-1.0, 1, np.zeros(2))
    with pytest.raises(ValidationError):
        SourceRecord(1.0, 2, np.zeros(2))
    with pytest.raises(ValidationError):
        SourceRecord(1.0, 1, np.array([np.nan]))
    with pytest.raises(ValidationError):
        SourceRecord(np.inf, 1, np.zeros(2))


def test_target_record_validation():
    TargetRecord(np.array([1.0]))
    with pytest.raises(ValidationError):
        TargetRecord(np.array([np.inf]))


def test_dataset_basic_properties():
    ds = Dataset(
        np.array([1.0, 2.0, 3.0]),
        np.array([1, 0, 1]),
        np.zeros((3, 2)),
        np.ones((2, 2)),
    )
    assert ds.n1 == 3 and ds.n2 == 2 and ds.d_z == 2
    assert ds.pi_n == pytest.approx(3 / 5)
    assert ds.n0 == 2


def test_dataset_rejections_are_deterministic():
    for _ in range(3):
        with pytest.raises(ValidationError):
            Dataset(np.array([1.0]), np.array([1]), np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValidationError):
        Dataset(np.array([1.0, 2.0]), np.array([0, 0]), np.zeros((2, 1)), np.zeros((1, 1)))
    with pytest.raises(ValidationError):
        Dataset(np.array([1.0, 2.0]), np.array([1, 0]), np.zeros((2, 1)), np.zeros((1, 2)))
    with pytest.raises(ValidationError):
        Dataset(np.array([1.0, np.nan]), np.array([1, 0]), np.zeros((2, 1)), np.zeros((1, 1)))
    with pytest.raises(ValidationError):
        Dataset(np.array([1.0, 2.0]), np.array([1, 2]), np.zeros((2, 1)), np.zeros((1, 1)))


_X, _D, _Z2 = np.array([1.0, 2.0]), np.array([1, 0]), np.zeros((2, 1))


@pytest.mark.parametrize("x, delta, z_source, z_target, message", [
    (_X[:, None], _D, _Z2, _Z2, "x and delta must be 1-d arrays of equal length"),
    (_X, np.array([1, 0, 1]), _Z2, _Z2, "x and delta must be 1-d arrays of equal length"),
    (_X, _D, np.zeros((3, 1)), _Z2, "z_source row count must equal len"),
    (_X, _D, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)), "1-d or 2-d arrays, got 3-d source"),
    (_X, _D, _Z2, np.zeros((2, 1, 1)), "1-d or 2-d arrays, got 2-d source and 3-d target"),
    (_X, _D, np.array(0.0), _Z2, "1-d or 2-d arrays, got 0-d source"),
], ids=["x-2d", "delta-length", "z-rows", "z-3d", "z-target-3d", "z-0d"])
def test_malformed_arrays_name_their_fault(x, delta, z_source, z_target, message):
    with pytest.raises(ValidationError, match=message):
        Dataset(x, delta, z_source, z_target)


def test_from_records_dimension_check():
    src = [SourceRecord(1.0, 1, np.zeros(2)), SourceRecord(2.0, 0, np.zeros(3))]
    with pytest.raises(ValidationError):
        Dataset.from_records(src, [TargetRecord(np.zeros(2))])
    with pytest.raises(ValidationError, match="need at least two source records"):
        Dataset.from_records([], [TargetRecord(np.zeros(1))])


def test_an_empty_target_raises_empty_target():
    msg = "^need at least one target record$"
    with pytest.raises(EmptyTarget, match=msg):
        Dataset(np.array([1.0, 2.0]), np.array([1, 0]), np.zeros((2, 1)), np.zeros((0, 1)))
    src = [SourceRecord(1.0, 1, np.array([0.5])), SourceRecord(2.0, 0, np.array([1.5]))]
    with pytest.raises(EmptyTarget, match=msg):
        Dataset.from_records(src, [])
    # callers that catch ValidationError keep catching it
    assert issubclass(EmptyTarget, ValidationError)


def test_from_records_roundtrip():
    src = [SourceRecord(1.0, 1, np.array([0.5])), SourceRecord(2.0, 0, np.array([1.5]))]
    tgt = [TargetRecord(np.array([2.5]))]
    ds = Dataset.from_records(src, tgt)
    assert ds.n1 == 2 and ds.n2 == 1
    np.testing.assert_array_equal(ds.x, [1.0, 2.0])
    np.testing.assert_array_equal(ds.z_target, [[2.5]])


def test_arrays_are_immutable(small_dataset):
    with pytest.raises(ValueError):
        small_dataset.x[0] = 99.0
    with pytest.raises(ValueError):
        small_dataset.z_target[0, 0] = 99.0


def test_take_subsets():
    ds = Dataset(
        np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([1, 0, 1, 1]),
        np.arange(8.0).reshape(4, 2),
        np.arange(6.0).reshape(3, 2),
    )
    sub = ds.take([0, 2], [1])
    assert sub.n1 == 2 and sub.n2 == 1
    np.testing.assert_array_equal(sub.x, [1.0, 3.0])


def test_zero_covariate_dimension_allowed():
    ds = Dataset(np.array([1.0, 2.0]), np.array([1, 1]), np.empty((2, 0)), np.empty((3, 0)))
    assert ds.d_z == 0 and ds.n2 == 3
