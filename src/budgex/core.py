"""Shared domain types: feature maps, the pool, the log, records, stream checks.

All types are immutable. The target pool (unit ids, covariate rows) and the
observational log (covariate rows, treatments, outcomes) are array columns
from where they are drawn or read to where they are used. The randomized
stream is arrays inside the loop; RctRecord rows exist only for rct.jsonl.
All three persist as newline-delimited JSON.
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
        ids = _exact_int64(self.ids, "pool unit ids")
        ordered = np.sort(ids)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("pool unit ids must be distinct")
        _freeze(self, ids=ids, xs=_rows_of(self.xs, ids))

    def __len__(self):
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class ObsLog:
    """The observational log: (n, k) covariate rows, treatments in {0, 1} and
    outcomes in [0, 1], as read-only copies."""

    xs: np.ndarray
    ts: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        ts, ys = _exact_int64(self.ts, "t"), np.asarray(self.ys)
        if ys.dtype.kind not in "biuf" or ys.shape != ts.shape \
                or np.any((ts != 0) & (ts != 1)) \
                or not np.all((ys >= 0) & (ys <= 1)):  # NaN fails both
            raise ValueError("need one t in {0, 1} and one y in [0, 1] per row")
        _freeze(self, xs=_rows_of(self.xs, ts), ts=ts, ys=ys.astype(float))

    def __len__(self):
        return len(self.ts)


def _exact_int64(values, name):
    """values as a 1-d int64 array; a cast that would change any value is an error."""
    given = np.asarray(values)
    with np.errstate(invalid="ignore"):
        ints = given.astype(np.int64) if given.dtype.kind in "biuf" else None
    if ints is None or given.ndim != 1 or np.any(ints != given):
        raise ValueError(f"{name} must be a 1-d array of int64 values")
    return ints


def _rows_of(xs, column):
    """xs as an (n, k) float array with one row per entry of column."""
    xs = np.array(xs, dtype=float)
    if xs.ndim != 2 or len(xs) != len(column):
        raise ValueError(f"need xs of shape ({len(column)}, k), got {xs.shape}")
    return xs


def _freeze(obj, **arrays):
    for name, a in arrays.items():
        a.flags.writeable = False
        object.__setattr__(obj, name, a)


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


def _rows(records):
    if isinstance(records, Pool):
        # "queried" stays in the file format; a stored pool is always unqueried
        return ({"id": i, "x": x, "queried": False}
                for i, x in zip(records.ids.tolist(), records.xs.tolist()))
    if isinstance(records, ObsLog):
        return ({"x": x, "t": t, "y": y} for x, t, y in
                zip(records.xs.tolist(), records.ts.tolist(), records.ys.tolist()))
    return ({"x": list(r.x), "t": r.t, "y": r.y, "p": r.p, "seq": r.seq}
            for r in records)


def write_jsonl(path, records):
    """Write a Pool or an ObsLog as one row per unit, or a list of RctRecords."""
    with open(path, "w") as fh:
        for d in _rows(records):
            fh.write(json.dumps(d, sort_keys=True) + "\n")


def read_jsonl(path, kind):
    """Read back a 'pool' (a Pool), an 'obs' log (an ObsLog) or 'rct' records."""
    if kind not in ("obs", "rct", "pool"):
        raise ValueError(f"unknown record kind {kind!r}")
    with open(path) as fh:
        docs = [json.loads(line) for line in fh]
    if kind == "pool":
        return Pool(ids=[d["id"] for d in docs], xs=[d["x"] for d in docs])
    if kind == "obs":
        # a file with no rows is a log with no rows
        return ObsLog(xs=[d["x"] for d in docs] or np.empty((0, 0)),
                      ts=[d["t"] for d in docs], ys=[d["y"] for d in docs])
    return [RctRecord(x=d["x"], t=d["t"], y=d["y"], p=d["p"], seq=d["seq"]) for d in docs]
