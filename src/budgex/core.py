"""Shared domain types: feature maps, the pool, the log, the stream, stream checks.

All types are immutable. The target pool (unit ids, covariate rows), the
observational log (covariate rows, treatments, outcomes) and the randomized
stream (the log's columns plus assignment probabilities and sequence numbers)
are read-only array columns from where they are drawn or read to where they
are used. Rows exist only in the files: all three persist as newline-delimited
JSON, one object per unit. fork_map is the one loop that runs in parallel.
"""

import json
import os
import pickle
import sys
import traceback
from dataclasses import dataclass, fields

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
    segment index; for affine-projection, phi(x) = W x + b. Only
    affine-projection takes a weight or an offset.
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
        if not 0.0 <= self.norm_bound < np.inf:  # NaN fails too
            raise ValueError(f"norm_bound must be finite and >= 0, got {self.norm_bound}")
        if self.kind != "affine-projection" and (self.weight is not None
                                                 or self.offset is not None):
            raise ValueError(f"feature map kind {self.kind!r} takes no weight or offset")
        if self.kind == "affine-projection":
            W = np.asarray(self.weight, dtype=float)
            b = np.zeros(self.output_dim) if self.offset is None else np.asarray(self.offset, dtype=float)
            if W.shape[0] != self.output_dim or b.shape != (self.output_dim,):
                raise DimensionError("affine-projection shapes inconsistent with output_dim")
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValueError("affine-projection weight and offset must be finite")
            object.__setattr__(self, "weight", W)
            object.__setattr__(self, "offset", b)

    def apply_many(self, xs):
        """Vectorized phi over rows of xs; returns an (n, d) array."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if not np.isfinite(xs).all():  # before the product, which would warn on it
            row = int(np.argmin(np.isfinite(xs).all(axis=1)))
            raise NormBoundError(f"covariate row {row} is not finite")
        if self.kind == "identity":
            if xs.shape[1] != self.output_dim:
                raise DimensionError(f"expected dim {self.output_dim}, got {xs.shape[1]}")
            out = xs.copy()
        elif self.kind == "segment-one-hot":
            if xs.shape[1] != 1:
                raise DimensionError("segment covariate must be a single index coordinate")
            col = xs[:, 0]  # checked before the cast, which would warn on 1e20
            if col.min(initial=0) < 0 or col.max(initial=0) >= self.output_dim \
                    or np.any(np.floor(col) != col):
                raise DimensionError("segment index out of range")
            idx = col.astype(int)
            out = np.zeros((len(idx), self.output_dim))
            out[np.arange(len(idx)), idx] = 1.0
        else:
            if xs.shape[1] != self.weight.shape[1]:
                raise DimensionError(f"expected dim {self.weight.shape[1]}, got {xs.shape[1]}")
            out = xs @ self.weight.T + self.offset
        # at most an ulp from linalg.norm's rounding, far inside the 1e-12 slack
        norms = np.sqrt(np.einsum("ij,ij->i", out, out))
        if not np.all(norms <= self.norm_bound + 1e-12):  # a NaN row fails too
            bad = float(norms.max())
            raise NormBoundError(f"||phi(x)|| = {bad:.6g} exceeds declared bound {self.norm_bound}")
        return out


def finite_numbers(doc, where):
    """doc, once no value in it is a bool or a NaN or infinite number: JSON
    true/false would pass as 1/0, and NaN or Infinity as a number."""
    if isinstance(doc, (dict, list, tuple)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            finite_numbers(value, f"{where}.{key}")
    elif isinstance(doc, bool) or isinstance(doc, float) and not np.isfinite(doc):
        raise ValueError(f"{where} must be a finite number, got {doc!r}")
    return doc


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


@dataclass(frozen=True, eq=False)
class Pool:
    """Unlabeled target units: distinct int64 ids and an (n, k) covariate array.

    Both arrays are read-only copies held in unit-id order, each x beside its
    own id, whatever the order they were given in: float sums and BLAS kernels
    round by row position, and ranks turn those last-digit differences into
    picks. A unit's id is not its position: a run selects positions, while
    records and the per-unit random streams use ids.
    """

    ids: np.ndarray
    xs: np.ndarray

    def __post_init__(self):
        ids = _exact_int64(self.ids, "pool unit ids")
        order = np.argsort(ids, kind="stable")
        xs = _rows_of(self.xs, ids, order)
        ids = ids[order]
        if np.any(ids[1:] == ids[:-1]):
            raise ValueError("pool unit ids must be distinct")
        _freeze(self, ids=ids, xs=xs)

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
        _freeze_arms(self)

    def __len__(self):
        return len(self.ts)


@dataclass(frozen=True, eq=False)
class RctStream:
    """The randomized stream in order: an ObsLog's columns plus p in (0, 1) and
    int64 seq, as read-only copies. Not an ObsLog subclass: fit_propensity
    accepts only an ObsLog, which keeps e_obs off randomized data."""

    xs: np.ndarray
    ts: np.ndarray
    ys: np.ndarray
    ps: np.ndarray
    seq: np.ndarray

    def __post_init__(self):
        ps = np.asarray(self.ps)
        if ps.dtype.kind not in "biuf" or not np.all((ps > 0) & (ps < 1)):  # NaN fails both
            raise ValueError("need every p in (0, 1)")
        _freeze_arms(self, ps=ps.astype(float), seq=_exact_int64(self.seq, "seq"))

    def __len__(self):
        return len(self.ts)


def _freeze_arms(obj, **columns):
    """Check and freeze obj's xs rows, ts in {0, 1} and ys in [0, 1] (not NaN),
    with the further checked 1-d columns: one entry of each per row."""
    ts, ys = _exact_int64(obj.ts, "t"), np.asarray(obj.ys)
    if ys.dtype.kind not in "biuf" or np.any((ts != 0) & (ts != 1)) \
            or not np.all((ys >= 0) & (ys <= 1)) \
            or any(c.shape != ts.shape for c in (ys, *columns.values())):
        raise ValueError("need one t in {0, 1}, one y in [0, 1] and one of each column per row")
    _freeze(obj, xs=_rows_of(obj.xs, ts), ts=ts, ys=ys.astype(float), **columns)


def _exact_int64(values, name):
    """values as a 1-d int64 array; a cast that would change any value is an error."""
    given = np.asarray(values)
    with np.errstate(invalid="ignore"):
        ints = given.astype(np.int64) if given.dtype.kind in "biuf" else None
    if ints is None or given.ndim != 1 or np.any(ints != given):
        raise ValueError(f"{name} must be a 1-d array of int64 values")
    return ints


def _rows_of(xs, column, order=None):
    """A copy of xs as an (n, k) float array with one row per entry of column,
    its rows gathered in order when one is given."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or len(xs) != len(column):
        raise ValueError(f"need xs of shape ({len(column)}, k), got {xs.shape}")
    return xs.copy() if order is None else xs.take(order, axis=0)


def _freeze(obj, **arrays):
    for name, a in arrays.items():
        a.flags.writeable = False
        object.__setattr__(obj, name, a)


@dataclass(frozen=True)
class StreamViolation:
    index: int
    reason: str


def validate_rct_stream(stream, bounds):
    """The first row whose p is outside the bounds (checked first) or whose seq
    does not exceed the last one, as a StreamViolation; None if there is none."""
    ps, seq = stream.ps, stream.seq
    bad = (ps < bounds.f_min) | (ps > bounds.f_max)
    bad[1:] |= seq[1:] <= seq[:-1]
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    p, s = float(ps[i]), int(seq[i])
    if not (bounds.f_min <= p <= bounds.f_max):
        return StreamViolation(i, f"p={p} outside [{bounds.f_min}, {bounds.f_max}] at seq {s}")
    return StreamViolation(i, f"seq {s} not strictly increasing after {int(seq[i - 1])}")


def usable_cpus():
    """The CPUs in this process's affinity mask; 1 without os.fork or os.sched_getaffinity."""
    return (len(os.sched_getaffinity(0))
            if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)


def fork_map(fn, n, workers):
    """[fn(i) for i in range(n)] from W = min(n, workers) processes: index i
    runs in process i % W, this one for 0 and os.fork children, which pickle
    their outcomes into a pipe, for the rest. Each process stops at its first
    exception; once every child is reaped, the lowest index's is raised, as by
    the serial loop. A child that sends nothing (it died, or its outcomes do
    not pickle: it prints why to stderr) raises ChildProcessError at its
    lowest index, naming its indices. W = 1, or no os.fork, forks nothing."""
    workers, children = max(1, min(n, workers) if hasattr(os, "fork") else 1), []

    def run(w):  # (i, None, fn(i)) up to (i, exception, None) at its first raise
        done = []
        for i in range(w, n, workers):
            try:
                done.append((i, None, fn(i)))
            except Exception as exc:
                return done + [(i, exc, None)]
        return done

    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child leaves through os._exit, never by returning
                try:
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(run(w)))
                except BaseException:
                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb"), range(w, n, workers)))
        outcomes = run(0)
        for _, pipe, share in children:
            try:
                outcomes += pickle.loads(pipe.read())
            except Exception:
                outcomes.append((share[0], ChildProcessError(
                    f"the child process for indices {list(share)} sent no result"), None))
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.waitpid(pid, 0)
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, exc, _ in outcomes:
        if exc is not None:
            raise exc
    return [value for _, _, value in outcomes]


# ---------------------------------------------------------------------------
# JSONL persistence


def _rows(records):
    if isinstance(records, Pool):
        # "queried" stays in the file format; a stored pool is always unqueried
        return ({"id": i, "x": x, "queried": False}
                for i, x in zip(records.ids.tolist(), records.xs.tolist()))
    # an ObsLog's or an RctStream's columns, keyed x, t, y (, p, seq)
    keys = ("x", "t", "y", "p", "seq")
    columns = [getattr(records, f.name).tolist() for f in fields(records)]
    return (dict(zip(keys, row)) for row in zip(*columns))


def write_jsonl(path, records):
    """Write a Pool, an ObsLog or an RctStream as one JSON object per row."""
    with open(path, "w") as fh:
        for d in _rows(records):
            fh.write(json.dumps(d, sort_keys=True) + "\n")


# The keys of one record of each kind; a pool record may omit "queried".
_RECORD_KEYS = {"pool": {"id", "x", "queried"}, "obs": {"x", "t", "y"},
                "rct": {"x", "t", "y", "p", "seq"}}


def read_jsonl(path, kind):
    """Read back a 'pool' (a Pool), an 'obs' log (an ObsLog) or an 'rct' stream
    (an RctStream); a log or stream file with no rows has no rows. Each line
    holds one JSON object with its kind's keys and no other: pool id, x and an
    optional "queried": false (a stored pool is unqueried); obs x, t, y; rct
    x, t, y, p, seq. So an rct file is no log. Any other line, or an x that is
    not a list as long as line 1's, is a ValueError naming the file and line."""
    if kind not in _RECORD_KEYS:
        raise ValueError(f"unknown record kind {kind!r}")
    keys = _RECORD_KEYS[kind]
    short = keys - {"queried"}
    decode, space, docs = json.JSONDecoder().raw_decode, " \t\n\r", []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            try:
                doc, end = decode(line, len(line) - len(line.lstrip(space)))
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: line {number}: {e.msg} at column {e.colno}") from None
            if line[end:].strip(space):
                raise ValueError(f"{path}: line {number} has text after its JSON record")
            if type(doc) is not dict or doc.keys() != keys and doc.keys() != short \
                    or doc.get("queried", False) is not False:
                raise ValueError(f"{path}: line {number} is not one JSON object with the "
                                 f"{kind} keys {sorted(keys)} only"
                                 + (' ("queried" optional, and false)' if kind == "pool"
                                    else "") + f": {line.strip()[:80]}")
            docs.append(doc)
    try:
        if kind == "pool":
            return Pool(ids=[d["id"] for d in docs], xs=[d["x"] for d in docs])
        arms = {"xs": [d["x"] for d in docs] or np.empty((0, 0)),
                "ts": [d["t"] for d in docs], "ys": [d["y"] for d in docs]}
        if kind == "obs":
            return ObsLog(**arms)
        return RctStream(**arms, ps=[d["p"] for d in docs], seq=[d["seq"] for d in docs])
    except ValueError:
        for number, doc in enumerate(docs, 1):
            if type(doc["x"]) is not list or len(doc["x"]) != len(docs[0]["x"]):
                raise ValueError(f"{path}: line {number}: x is not a list as long as "
                                 f"line 1's") from None
        raise
