"""Shared domain types: feature maps, records, the pool, and stream checks.

All types are immutable. The target pool is a pair of arrays (unit ids and
covariate rows); the observational log and the randomized stream are lists
of records, the form they take in obs.jsonl and rct.jsonl. Inside the loop
the randomized stream is held as arrays, and records are built only to be
written. All three persist as newline-delimited JSON.
"""

import json
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Input vector does not match the feature map's contract."""


class NormBoundError(ValueError):
    """A feature vector exceeds the declared norm bound."""


@dataclass(frozen=True)
class FeatureMap:
    """Fixed feature map phi(x) in R^d with a declared norm bound.

    kind is one of "identity", "segment-one-hot", "affine-projection".
    For segment-one-hot the covariate is a length-1 vector holding the
    segment index; for affine-projection, phi(x) = W x + b.
    """

    kind: str
    output_dim: int
    norm_bound: float
    weight: np.ndarray = None  # W for affine-projection
    offset: np.ndarray = None  # b for affine-projection

    def __post_init__(self):
        if self.kind not in ("identity", "segment-one-hot", "affine-projection"):
            raise ValueError(f"unknown feature map kind {self.kind!r}")
        if self.output_dim < 1:
            raise ValueError("output_dim must be positive")
        if self.kind == "affine-projection":
            W = np.asarray(self.weight, dtype=float)
            b = np.zeros(self.output_dim) if self.offset is None else np.asarray(self.offset, dtype=float)
            if W.shape[0] != self.output_dim or b.shape != (self.output_dim,):
                raise DimensionError("affine-projection shapes inconsistent with output_dim")
            object.__setattr__(self, "weight", W)
            object.__setattr__(self, "offset", b)

    def __call__(self, x):
        """phi(x) as a length-d vector, with the norm bound enforced."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.apply_many(x[None, :])[0]

    def apply_many(self, xs):
        """Vectorized phi over rows of xs; returns an (n, d) array."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if self.kind == "identity":
            if xs.shape[1] != self.output_dim:
                raise DimensionError(f"expected dim {self.output_dim}, got {xs.shape[1]}")
            out = xs.copy()
        elif self.kind == "segment-one-hot":
            if xs.shape[1] != 1:
                raise DimensionError("segment covariate must be a single index coordinate")
            idx = xs[:, 0].astype(int)
            if np.any(idx != xs[:, 0]) or idx.min(initial=0) < 0 or idx.max(initial=0) >= self.output_dim:
                raise DimensionError("segment index out of range")
            out = np.zeros((len(idx), self.output_dim))
            out[np.arange(len(idx)), idx] = 1.0
        else:
            if xs.shape[1] != self.weight.shape[1]:
                raise DimensionError(f"expected dim {self.weight.shape[1]}, got {xs.shape[1]}")
            out = xs @ self.weight.T + self.offset
        norms = np.linalg.norm(out, axis=1)
        if np.any(norms > self.norm_bound + 1e-12):
            bad = float(norms.max())
            raise NormBoundError(f"||phi(x)|| = {bad:.6g} exceeds declared bound {self.norm_bound}")
        return out


def sigmoid(z):
    """Logistic function; z is clipped so that exp never overflows."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


@dataclass(frozen=True)
class PropensityBounds:
    f_min: float
    f_max: float

    def __post_init__(self):
        if not (0.0 < self.f_min <= self.f_max < 1.0):
            raise ValueError(f"require 0 < f_min <= f_max < 1, got [{self.f_min}, {self.f_max}]")

    @property
    def pseudo_outcome_bound(self):
        """L_p = max{1/f_min, 1/(1 - f_max)}."""
        return max(1.0 / self.f_min, 1.0 / (1.0 - self.f_max))


@dataclass(frozen=True)
class ObsRecord:
    x: tuple
    t: int
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in np.atleast_1d(self.x)))
        if self.t not in (0, 1):
            raise ValueError("t must be 0 or 1")
        if not (0.0 <= self.y <= 1.0):
            raise ValueError("y must lie in [0, 1]")


@dataclass(frozen=True)
class RctRecord:
    x: tuple
    t: int
    y: float
    p: float
    seq: int

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in np.atleast_1d(self.x)))
        if self.t not in (0, 1):
            raise ValueError("t must be 0 or 1")
        if not (0.0 <= self.y <= 1.0):
            raise ValueError("y must lie in [0, 1]")
        if not (0.0 < self.p < 1.0):
            raise ValueError("p must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class Pool:
    """Unlabeled target units: distinct int64 ids and an (n, k) covariate array.

    A unit's id is not its position: selection works in positions, while
    records and the per-unit random streams use ids. Both arrays are
    read-only copies.
    """

    ids: np.ndarray
    xs: np.ndarray

    def __post_init__(self):
        ids = np.array(self.ids, dtype=np.int64)
        xs = np.array(self.xs, dtype=float)
        if ids.ndim != 1 or xs.ndim != 2 or len(ids) != len(xs):
            raise ValueError(f"need ids of shape (n,) and xs of shape (n, k), "
                             f"got {ids.shape} and {xs.shape}")
        ordered = np.sort(ids)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("pool unit ids must be distinct")
        ids.flags.writeable = False
        xs.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "xs", xs)

    def __len__(self):
        return len(self.ids)


@dataclass(frozen=True)
class StreamViolation:
    index: int
    reason: str


def validate_rct_stream(records, bounds):
    """Check every stream invariant; return None if ok, else the first violation."""
    prev_seq = None
    for i, r in enumerate(records):
        if not (bounds.f_min <= r.p <= bounds.f_max):
            return StreamViolation(i, f"p={r.p} outside [{bounds.f_min}, {bounds.f_max}] at seq {r.seq}")
        if not (0.0 <= r.y <= 1.0):
            return StreamViolation(i, f"y={r.y} outside [0, 1] at seq {r.seq}")
        if r.t not in (0, 1):
            return StreamViolation(i, f"t={r.t} not binary at seq {r.seq}")
        if prev_seq is not None and r.seq <= prev_seq:
            return StreamViolation(i, f"seq {r.seq} not strictly increasing after {prev_seq}")
        prev_seq = r.seq
    return None


# ---------------------------------------------------------------------------
# JSONL persistence


def _rec_to_dict(r):
    if isinstance(r, RctRecord):
        return {"x": list(r.x), "t": r.t, "y": r.y, "p": r.p, "seq": r.seq}
    if isinstance(r, ObsRecord):
        return {"x": list(r.x), "t": r.t, "y": r.y}
    raise TypeError(f"cannot serialize {type(r).__name__}")


def _pool_rows(pool):
    # "queried" stays in the file format; a stored pool is always unqueried
    return ({"id": i, "x": x, "queried": False}
            for i, x in zip(pool.ids.tolist(), pool.xs.tolist()))


def write_jsonl(path, records):
    """Write records, or a Pool as one row per unit."""
    rows = _pool_rows(records) if isinstance(records, Pool) else map(_rec_to_dict, records)
    with open(path, "w") as fh:
        for d in rows:
            fh.write(json.dumps(d, sort_keys=True) + "\n")


def read_jsonl(path, kind):
    """Read records back; kind is one of 'obs', 'rct', 'pool' (a Pool)."""
    if kind not in ("obs", "rct", "pool"):
        raise ValueError(f"unknown record kind {kind!r}")
    with open(path) as fh:
        docs = [json.loads(line) for line in fh]
    if kind == "pool":
        return Pool(ids=[d["id"] for d in docs], xs=[d["x"] for d in docs])
    if kind == "obs":
        return [ObsRecord(x=d["x"], t=d["t"], y=d["y"]) for d in docs]
    return [RctRecord(x=d["x"], t=d["t"], y=d["y"], p=d["p"], seq=d["seq"]) for d in docs]
