"""The two-population sample: censored responses with covariates on one side,
covariates alone on the other."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyTarget, ValidationError


def check_records(x, delta, *zs):
    """Finite positive times, 0/1 indicators and finite covariates, else
    ``ValidationError``: the record checks of every sample entry point."""
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        raise ValidationError("observed times must be finite and positive")
    if not np.all(np.isin(delta, (0, 1))):
        raise ValidationError("delta entries must be 0 or 1")
    if not all(np.all(np.isfinite(z)) for z in zs):
        raise ValidationError("covariates must be finite")


@dataclass(frozen=True)
class SourceRecord:
    """One follow-up observation: ``x = min(event, censoring)`` with its
    event indicator and covariate vector."""

    x: float
    delta: int
    z: np.ndarray

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        check_records(self.x, self.delta, z)
        z.flags.writeable = False
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "delta", int(self.delta))
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class TargetRecord:
    """A covariates-only observation from the population of interest."""

    z: np.ndarray

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        if not np.all(np.isfinite(z)):
            raise ValidationError("covariates must be finite")
        z.flags.writeable = False
        object.__setattr__(self, "z", z)


class Dataset:
    """Immutable container for the stacked two-population sample.

    Internally stores flat arrays: ``x`` (n1,), ``delta`` (n1,) in {0,1},
    ``z_source`` (n1, d_z) and ``z_target`` (n2, d_z).  ``d_z = 0`` is
    allowed for covariate-free models.
    """

    def __init__(self, x, delta, z_source, z_target):
        x = np.asarray(x, dtype=float)
        delta = np.asarray(delta)
        z_source = np.asarray(z_source, dtype=float)
        z_target = np.asarray(z_target, dtype=float)
        if z_source.ndim not in (1, 2) or z_target.ndim not in (1, 2):
            raise ValidationError(f"covariates must be 1-d or 2-d arrays, got {z_source.ndim}-d "
                                  f"source and {z_target.ndim}-d target covariates")
        if z_source.ndim == 1:
            z_source = z_source[:, None]
        if z_target.ndim == 1:
            z_target = z_target[:, None]
        if x.ndim != 1 or delta.shape != x.shape:
            raise ValidationError("x and delta must be 1-d arrays of equal length")
        n1 = x.shape[0]
        n2 = z_target.shape[0]
        if n1 < 2:
            raise ValidationError("need at least two source records")
        if n2 < 1:
            raise EmptyTarget("need at least one target record")
        if z_source.shape[0] != n1:
            raise ValidationError("z_source row count must equal len(x)")
        if z_source.shape[1] != z_target.shape[1]:
            raise ValidationError(
                f"covariate dimension mismatch: source d_z={z_source.shape[1]}, "
                f"target d_z={z_target.shape[1]}"
            )
        check_records(x, delta, z_source, z_target)
        if not np.any(delta == 1):
            raise ValidationError("at least one source record must be an event")
        delta = delta.astype(np.int64)
        for a in (x, delta, z_source, z_target):
            a.flags.writeable = False
        self.x = x
        self.delta = delta
        self.z_source = z_source
        self.z_target = z_target

    @classmethod
    def from_records(cls, source, target) -> "Dataset":
        source = list(source)
        target = list(target)
        if not source:
            raise ValidationError("need at least two source records")
        if not target:
            raise EmptyTarget("need at least one target record")
        d_z = source[0].z.shape[0]
        for r in source + target:
            if r.z.shape[0] != d_z:
                raise ValidationError("mixed covariate dimensions")
        x = np.array([r.x for r in source])
        delta = np.array([r.delta for r in source])
        zs = np.vstack([r.z for r in source]) if d_z else np.empty((len(source), 0))
        zt = np.vstack([r.z for r in target]) if d_z else np.empty((len(target), 0))
        return cls(x, delta, zs, zt)

    @property
    def n1(self) -> int:
        return int(self.x.shape[0])

    @property
    def n2(self) -> int:
        return int(self.z_target.shape[0])

    @property
    def d_z(self) -> int:
        return int(self.z_source.shape[1])

    @property
    def pi_n(self) -> float:
        return self.n1 / (self.n1 + self.n2)

    @property
    def n0(self) -> int:
        return min(self.n1, self.n2)

    def take(self, source_idx, target_idx) -> "Dataset":
        """A new Dataset restricted to the given row indices."""
        source_idx = np.asarray(source_idx)
        target_idx = np.asarray(target_idx)
        return Dataset(
            self.x[source_idx],
            self.delta[source_idx],
            self.z_source[source_idx],
            self.z_target[target_idx],
        )

    def __repr__(self):
        return (
            f"Dataset(n1={self.n1}, n2={self.n2}, d_z={self.d_z}, "
            f"events={int(self.delta.sum())})"
        )
