"""Tests for the shared domain types and the chronological stream checks."""

import os
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from budgex.core import (DimensionError, FeatureMap, NormBoundError, ObsLog,
                         Pool, PropensityBounds, RctStream, StreamViolation, fork_map,
                         read_jsonl, usable_cpus, validate_rct_stream, write_jsonl)


class TestFeatureMap:
    def test_segment_one_hot(self):
        fmap = FeatureMap(kind="segment-one-hot", output_dim=3, norm_bound=1.0)
        np.testing.assert_array_equal(fmap.apply_many([[1.0]])[0], [0.0, 1.0, 0.0])

    def test_identity(self):
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=2.0)
        np.testing.assert_array_equal(fmap.apply_many([[0.5, -1.0]])[0], [0.5, -1.0])

    def test_affine_projection_and_norm_check(self):
        W = 2.0 * np.eye(2)
        fmap = FeatureMap(kind="affine-projection", output_dim=2, norm_bound=3.0,
                          weight=W)
        np.testing.assert_allclose(fmap.apply_many([[1.0, 1.0]])[0], [2.0, 2.0])
        tight = FeatureMap(kind="affine-projection", output_dim=2, norm_bound=2.0,
                           weight=W)
        with pytest.raises(NormBoundError):
            tight.apply_many([[1.0, 1.0]])[0]

    def test_one_hot_is_exactly_one_hot(self):
        fmap = FeatureMap(kind="segment-one-hot", output_dim=5, norm_bound=1.0)
        phis = fmap.apply_many([[j] for j in range(5)])
        np.testing.assert_array_equal(phis, np.eye(5))

    def test_output_length_matches_dim(self):
        fmap = FeatureMap(kind="segment-one-hot", output_dim=4, norm_bound=1.0)
        assert fmap.apply_many([[2.0]])[0].shape == (4,)

    def test_dimension_mismatch_rejected(self):
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=10.0)
        with pytest.raises(DimensionError):
            fmap.apply_many([[1.0, 2.0, 3.0]])

    def test_segment_index_out_of_range(self):
        """The range is checked on the float column, before the cast to int
        that warned on +-1e20."""
        fmap = FeatureMap(kind="segment-one-hot", output_dim=2, norm_bound=1.0)
        for index in (5.0, 1e20, -1e20):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DimensionError):
                    fmap.apply_many([[index]])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FeatureMap(kind="fourier", output_dim=2, norm_bound=1.0)

    def test_output_dim_below_one_rejected(self):
        with pytest.raises(ValueError, match="output_dim"):
            FeatureMap(kind="identity", output_dim=0, norm_bound=1.0)

    @pytest.mark.parametrize("weight, offset", [(np.eye(3), None),
                                                (np.eye(2), np.zeros(3))],
                             ids=["weight-rows", "offset-length"])
    def test_affine_shapes_checked_against_output_dim(self, weight, offset):
        with pytest.raises(DimensionError, match="shapes"):
            FeatureMap(kind="affine-projection", output_dim=2, norm_bound=3.0,
                       weight=weight, offset=offset)

    def test_segment_covariate_is_one_coordinate(self):
        fmap = FeatureMap(kind="segment-one-hot", output_dim=3, norm_bound=1.0)
        with pytest.raises(DimensionError, match="single"):
            fmap.apply_many([[0.0, 1.0]])

    def test_affine_input_dimension_checked(self):
        fmap = FeatureMap(kind="affine-projection", output_dim=2, norm_bound=9.0,
                          weight=np.ones((2, 3)))
        with pytest.raises(DimensionError, match="expected dim 3, got 2"):
            fmap.apply_many([[1.0, 1.0]])

    @pytest.mark.parametrize("kind", ["identity", "segment-one-hot"])
    @pytest.mark.parametrize("given", [{"weight": [[5.0, 0.0], [0.0, 5.0]]},
                                       {"offset": [1.0, 1.0]}])
    def test_weight_or_offset_of_a_non_affine_map_rejected(self, kind, given):
        """An identity map with a weight and an offset used to map phi = x,
        silently; a null weight and offset stay valid."""
        FeatureMap(kind=kind, output_dim=2, norm_bound=2.0, weight=None, offset=None)
        with pytest.raises(ValueError, match="no weight or offset"):
            FeatureMap(kind=kind, output_dim=2, norm_bound=2.0, **given)

    @pytest.mark.parametrize("bound", [-1.0, -1e-12, np.nan, np.inf, -np.inf])
    def test_invalid_norm_bound_rejected_at_construction(self, bound):
        """A bad bound fails where it is declared, not at the first mapped
        row; an infinite one would disable the check."""
        with pytest.raises(ValueError, match="norm_bound"):
            FeatureMap(kind="identity", output_dim=2, norm_bound=bound)

    @pytest.mark.parametrize("given", [{"weight": [[np.inf, 0.0], [0.0, 1.0]]},
                                       {"weight": [[np.nan, 0.0], [0.0, 1.0]]},
                                       {"weight": np.eye(2), "offset": [0.0, -np.inf]}])
    def test_non_finite_affine_weight_or_offset_rejected_at_construction(self, given):
        """It used to construct, and the first apply_many warned in the matmul
        instead of raising."""
        with pytest.raises(ValueError, match="weight and offset must be finite"):
            FeatureMap(kind="affine-projection", output_dim=2, norm_bound=2.0, **given)

    @pytest.mark.parametrize("fmap", [
        FeatureMap(kind="identity", output_dim=2, norm_bound=2.0),
        FeatureMap(kind="affine-projection", output_dim=2, norm_bound=2.0,
                   weight=np.eye(2)),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, fmap, bad):
        with pytest.raises(NormBoundError):
            fmap.apply_many([[0.5, 0.5], [bad, 0.0]])

    @pytest.mark.parametrize("fmap, row", [
        (FeatureMap(kind="identity", output_dim=2, norm_bound=2.0), [np.inf, 0.0]),
        (FeatureMap(kind="affine-projection", output_dim=2, norm_bound=2.0,
                    weight=np.eye(2)), [-np.inf, 0.0]),
        (FeatureMap(kind="affine-projection", output_dim=2, norm_bound=2.0,
                    weight=np.eye(2)), [np.nan, 0.0]),
        (FeatureMap(kind="segment-one-hot", output_dim=2, norm_bound=1.0), [np.nan]),
    ])
    def test_non_finite_row_rejected_without_a_warning(self, fmap, row):
        """The rejection comes before the product, which warned on inf rows."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormBoundError, match="row 1 is not finite"):
                fmap.apply_many([np.zeros(len(row)), row])

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([
        FeatureMap(kind="identity", output_dim=3, norm_bound=1.0),
        FeatureMap(kind="affine-projection", output_dim=2, norm_bound=1.0,
                   weight=np.ones((2, 3))),
        FeatureMap(kind="segment-one-hot", output_dim=4, norm_bound=1.0),
    ]), st.integers(1, 8), st.data())
    def test_first_non_finite_row_named_without_a_warning(self, fmap, n, data):
        """Non-finite entries at random positions, among arbitrary finite ones:
        the error names the first row that holds one, and nothing warns."""
        k = 1 if fmap.kind == "segment-one-hot" else 3
        xs = np.array(data.draw(st.lists(st.floats(-1e300, 1e300), min_size=n * k,
                                         max_size=n * k))).reshape(n, k)
        bad = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1),
                                           st.sampled_from([np.nan, np.inf, -np.inf])),
                                 min_size=1, max_size=6))
        for i, j, value in bad:
            xs[i, j] = value
        first = min(i for i, _, _ in bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormBoundError, match=f"^covariate row {first} is not finite$"):
                fmap.apply_many(xs)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["identity", "affine-projection"]), st.integers(0, 5),
           st.integers(1, 4), st.integers(1, 4), st.data())
    def test_norm_bound_enforced_over_random_maps(self, kind, n, k, d, data):
        """apply_many raises NormBoundError exactly when some row's ||phi||
        exceeds norm_bound + 1e-12, and otherwise returns rows within it. The
        bound is drawn freely or set to the largest row norm, its edge."""
        def array(shape, lim):
            size = int(np.prod(shape))
            return np.array(data.draw(st.lists(st.floats(-lim, lim), min_size=size,
                                               max_size=size)), dtype=float).reshape(shape)

        if kind == "identity":
            d, weight, offset = k, None, None
            xs = array((n, k), 10.0)
            phis = xs
        else:
            weight, offset = array((d, k), 3.0), array((d,), 3.0)
            xs = array((n, k), 10.0)
            phis = xs @ weight.T + offset
        norms = np.linalg.norm(phis, axis=1)
        edge = float(norms.max(initial=0.0))
        bound = data.draw(st.one_of(st.floats(0.0, 60.0), st.just(edge)))
        fmap = FeatureMap(kind=kind, output_dim=d, norm_bound=bound,
                          weight=weight, offset=offset)
        if np.any(norms > bound + 1e-12):
            with pytest.raises(NormBoundError):
                fmap.apply_many(xs)
        else:
            out = fmap.apply_many(xs)
            np.testing.assert_array_equal(out, phis)
            assert np.all(np.linalg.norm(out, axis=1) <= bound + 1e-12)


class TestPropensityBounds:
    def test_pseudo_outcome_bound(self):
        assert PropensityBounds(0.2, 0.8).pseudo_outcome_bound == pytest.approx(5.0)
        assert PropensityBounds(0.25, 0.5).pseudo_outcome_bound == pytest.approx(4.0)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            PropensityBounds(0.0, 0.8)
        with pytest.raises(ValueError):
            PropensityBounds(0.6, 0.4)
        with pytest.raises(ValueError):
            PropensityBounds(0.2, 1.0)


class TestRecords:
    def test_obs_record_validation(self):
        with pytest.raises(ValueError):
            ObsLog(xs=[[0.0]], ts=[2], ys=[0.5])
        with pytest.raises(ValueError):
            ObsLog(xs=[[0.0]], ts=[1], ys=[1.5])

    def test_rct_record_validation(self):
        with pytest.raises(ValueError):
            RctStream(xs=[[0.0]], ts=[1], ys=[0.5], ps=[0.0], seq=[1])
        with pytest.raises(ValueError):
            RctStream(xs=[[0.0]], ts=[1], ys=[-0.1], ps=[0.5], seq=[1])


INT64_IDS = st.lists(st.one_of(st.integers(-3, 3),
                               st.sampled_from([-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1]),
                               st.integers(-2**63, 2**63 - 1)),
                     max_size=30)


class TestPool:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Pool(ids=[4, 7, 4], xs=np.zeros((3, 2)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Pool(ids=[0, 1, 2], xs=np.zeros((2, 2)))

    def test_arrays_are_read_only_copies(self):
        ids, xs = np.array([5, 9]), np.ones((2, 1))
        pool = Pool(ids=ids, xs=xs)
        ids[0] = 7
        assert pool.ids[0] == 5 and len(pool) == 2
        with pytest.raises(ValueError):
            pool.xs[0, 0] = 2.0

    def test_non_integer_ids_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="int64"):
            Pool(ids=[1.5, 7.9], xs=[[0.0], [1.0]])
        with pytest.raises(ValueError, match="int64"):
            Pool(ids=[0.0, np.nan], xs=[[0.0], [1.0]])
        assert Pool(ids=[1.0, 7.0], xs=[[0.0], [1.0]]).ids.tolist() == [1, 7]

    @given(INT64_IDS)
    def test_rejects_exactly_repeated_ids(self, ids):
        ids = np.array(ids, dtype=np.int64)
        xs = np.zeros((len(ids), 1))
        if len(set(ids.tolist())) != len(ids):
            with pytest.raises(ValueError, match="distinct"):
                Pool(ids=ids, xs=xs)
        else:
            assert Pool(ids=ids, xs=xs).ids.tolist() == sorted(ids.tolist())

    def test_units_are_held_in_id_order_each_x_beside_its_id(self):
        pool = Pool(ids=[3, 1, 2], xs=[[30.0, 3.0], [10.0, 1.0], [20.0, 2.0]])
        assert pool.ids.tolist() == [1, 2, 3]
        assert pool.xs.tolist() == [[10.0, 1.0], [20.0, 2.0], [30.0, 3.0]]
        assert not pool.xs.flags.writeable and not pool.ids.flags.writeable


class TestObsLog:
    @pytest.mark.parametrize("t", [1.5, 2, -1, np.nan])
    def test_treatment_outside_zero_one_rejected(self, t):
        with pytest.raises(ValueError):
            ObsLog(xs=[[0.0], [1.0]], ts=[0, t], ys=[0.5, 0.5])

    @pytest.mark.parametrize("y", [-0.1, 1.5, np.nan, "0.5"])
    def test_outcome_outside_unit_interval_rejected(self, y):
        with pytest.raises(ValueError):
            ObsLog(xs=[[0.0], [1.0]], ts=[0, 1], ys=[0.5, y])

    @pytest.mark.parametrize("xs, ts, ys", [
        ([[0.0]], [0, 1], [0.5, 0.5]),
        ([[0.0], [1.0]], [0, 1], [0.5]),
        ([0.0, 1.0], [0, 1], [0.5, 0.5]),
    ])
    def test_length_mismatch_rejected(self, xs, ts, ys):
        with pytest.raises(ValueError):
            ObsLog(xs=xs, ts=ts, ys=ys)

    def test_accepts_what_a_record_accepted(self):
        log = ObsLog(xs=[[0.5, -1.0], [0.0, 2.0]], ts=[True, 0.0], ys=[1, -0.0])
        assert log.ts.tolist() == [1, 0] and log.ts.dtype == np.int64
        assert log.ys.tolist() == [1.0, 0.0] and len(log) == 2

    def test_arrays_are_read_only_copies(self):
        xs, ts, ys = np.ones((2, 1)), np.array([0, 1]), np.array([0.0, 1.0])
        log = ObsLog(xs=xs, ts=ts, ys=ys)
        ts[0] = 1
        assert log.ts[0] == 0
        for column in (log.xs, log.ts, log.ys):
            with pytest.raises(ValueError):
                column[0] = 0


class TestRctStream:
    ROW = {"xs": [[0.0], [1.0]], "ts": [0, 1], "ys": [0.5, 0.5],
           "ps": [0.5, 0.5], "seq": [1, 2]}

    @pytest.mark.parametrize("column, bad", [
        ("ts", [0, 2]), ("ts", [0, 0.5]), ("ys", [0.5, 1.5]), ("ys", [0.5, np.nan]),
        ("ps", [0.5, 0.0]), ("ps", [0.5, 1.0]), ("ps", [0.5, np.nan]),
        ("ps", [0.5, "0.5"]), ("seq", [1, 2.5]), ("seq", [1]), ("xs", [[0.0]]),
    ])
    def test_bad_column_rejected(self, column, bad):
        with pytest.raises(ValueError):
            RctStream(**{**self.ROW, column: bad})

    def test_arrays_are_read_only_copies(self):
        ps = np.array([0.5, 0.25])
        stream = RctStream(**{**self.ROW, "ps": ps})
        ps[0] = 0.75
        assert stream.ps[0] == 0.5 and len(stream) == 2
        assert stream.seq.dtype == np.int64
        for name in ("xs", "ts", "ys", "ps", "seq"):
            with pytest.raises(ValueError):
                getattr(stream, name)[0] = 0

    def test_is_not_an_observational_log(self):
        assert not isinstance(RctStream(**self.ROW), ObsLog)


def stream_of(ps, seq, t=1, y=1.0):
    """A one-covariate stream with the given p and seq columns."""
    n = len(ps)
    return RctStream(xs=np.zeros((n, 1)), ts=[t] * n, ys=[y] * n, ps=ps, seq=seq)


def first_violation_per_row(stream, bounds):
    """The stream check as a loop over rows, in the order it tests them."""
    prev_seq = None
    rows = zip(stream.ts.tolist(), stream.ys.tolist(), stream.ps.tolist(),
               stream.seq.tolist())
    for i, (t, y, p, seq) in enumerate(rows):
        if not (bounds.f_min <= p <= bounds.f_max):
            return StreamViolation(i, f"p={p} outside [{bounds.f_min}, {bounds.f_max}] at seq {seq}")
        if not (0.0 <= y <= 1.0):
            return StreamViolation(i, f"y={y} outside [0, 1] at seq {seq}")
        if t not in (0, 1):
            return StreamViolation(i, f"t={t} not binary at seq {seq}")
        if prev_seq is not None and seq <= prev_seq:
            return StreamViolation(i, f"seq {seq} not strictly increasing after {prev_seq}")
        prev_seq = seq
    return None


class TestValidateRctStream:
    bounds = PropensityBounds(0.2, 0.8)

    def test_empty_stream_ok(self):
        assert validate_rct_stream(stream_of([], []), self.bounds) is None

    def test_probability_out_of_bounds(self):
        v = validate_rct_stream(stream_of([0.05], [1]), self.bounds)
        assert isinstance(v, StreamViolation)
        assert v.index == 0
        assert "p=0.05" in v.reason

    def test_sequence_ordering_violation(self):
        v = validate_rct_stream(stream_of([0.5] * 3, [1, 3, 2]), self.bounds)
        assert v.index == 2
        assert "seq" in v.reason

    def test_valid_stream_passes(self):
        stream = stream_of([0.5] * 3, [1, 2, 5], t=0, y=0.0)
        assert validate_rct_stream(stream, self.bounds) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from([0.2, 0.8, 0.2 - 2**-54, 0.8 + 2**-53]),
                  st.floats(min_value=0.0, max_value=1.0,
                            exclude_min=True, exclude_max=True)),
        st.one_of(st.integers(-3, 6), st.sampled_from([-2**63, 2**63 - 1]))),
        max_size=12))
    def test_matches_the_per_row_check(self, rows):
        stream = stream_of([p for p, _ in rows], [s for _, s in rows])
        assert validate_rct_stream(stream, self.bounds) == \
            first_violation_per_row(stream, self.bounds)


class TestJsonlRoundTrip:
    def test_rct_round_trip_bit_exact(self, tmp_path):
        stream = RctStream(xs=[[0.123456789012345, -1.0]] * 5, ts=[1] * 5,
                           ys=[0.7] * 5, ps=[1.0 / 3.0] * 5, seq=range(1, 6))
        path = tmp_path / "rct.jsonl"
        write_jsonl(path, stream)
        back = read_jsonl(path, "rct")
        for name in ("xs", "ts", "ys", "ps", "seq"):
            a, b = getattr(back, name), getattr(stream, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_unknown_record_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown record kind 'stream'"):
            read_jsonl(tmp_path / "never-opened.jsonl", "stream")

    def test_obs_and_pool_round_trip(self, tmp_path):
        obs = ObsLog(xs=[[0.5]], ts=[0], ys=[1.0])
        pool = Pool(ids=[3], xs=[[2.0]])
        write_jsonl(tmp_path / "obs.jsonl", obs)
        write_jsonl(tmp_path / "pool.jsonl", pool)
        obs_back = read_jsonl(tmp_path / "obs.jsonl", "obs")
        assert (obs_back.xs.tolist(), obs_back.ts.tolist(), obs_back.ys.tolist()) == \
            (obs.xs.tolist(), obs.ts.tolist(), obs.ys.tolist())
        back = read_jsonl(tmp_path / "pool.jsonl", "pool")
        assert (back.ids.tolist(), back.xs.tolist()) == (pool.ids.tolist(), pool.xs.tolist())

    @pytest.mark.parametrize("text", [
        '{"id": 0, "x": [1.0]}, {"id": 1, "x": [2.0]}\n',
        '{"id": 0, "x": [1.0]}\n\n{"id": 1, "x": [2.0]}\n',
        '{"id": 0, "x": [1.0]}\n\n',
        '\n',
        '{"id": 0\n"x": [1.0]}\n{"id": 1, "x": [2.0]}, {"id": 2, "x": [3.0]}\n'])
    def test_a_line_without_exactly_one_record_fails(self, tmp_path, text):
        """Two records on one line, a blank line or a record split over two
        lines fail loudly, also where the split and the doubled line together
        leave as many records as lines."""
        path = tmp_path / "pool.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError):
            read_jsonl(path, "pool")


    @pytest.mark.parametrize("kind, text, line", [
        ("pool", '{"id": 0, "x": [1.0]}\n{"id": 1}\n', 2),
        ("pool", '{"id": 0, "x": [1.0]}\n[1, 2]\n', 2),
        ("pool", '{"id": 0, "x": [1.0]}\n{"id": 1, "x": [1.0, 2.0]}\n', 2),
        ("obs", '{"x": [1.0], "t": 1, "y": 1, "p": 0.5, "seq": 1}\n', 1),
        ("pool", '{"id": 0, "x": [1.0], "queried": true}\n', 1),
    ], ids=["pool-without-x", "not-an-object", "ragged-x", "rct-record-as-obs",
            "queried-pool-unit"])
    def test_a_malformed_record_names_its_file_and_line(self, tmp_path, kind, text, line):
        """Each used to pass as a record or fail without naming its file and
        line: a KeyError, a TypeError, numpy's inhomogeneous-shape error, an
        rct record read as a log row, and a queried unit read as unqueried."""
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}")):
            read_jsonl(path, kind)

# Floats whose text form is easy to get wrong: signed zeros, subnormals and
# the extremes of the exponent range.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 0.1]
ANY_FLOAT = st.one_of(st.sampled_from(EDGE_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False))
UNIT_FLOAT = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1.0 - 2**-53]),
                       st.floats(min_value=-0.0, max_value=1.0))
OPEN_UNIT_FLOAT = st.floats(min_value=0.0, max_value=1.0,
                            exclude_min=True, exclude_max=True)


def bits(values):
    """The IEEE-754 bytes of values, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def columns(draw, min_rows=0):
    n = draw(st.integers(min_rows, 8))
    k = draw(st.integers(1, 3))
    xs = draw(st.lists(st.lists(ANY_FLOAT, min_size=k, max_size=k),
                       min_size=n, max_size=n))
    return n, np.array(xs, dtype=float).reshape(n, k)


class TestJsonlRoundTripProperty:
    """write_jsonl then read_jsonl gives back the same bits, stream by stream."""

    @settings(max_examples=60, deadline=None)
    @given(columns(min_rows=1), st.data())
    def test_pool(self, tmp_path_factory, nx, data):
        n, xs = nx
        ids = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n,
                                 max_size=n, unique=True))
        pool = Pool(ids=ids, xs=xs)
        path = tmp_path_factory.mktemp("rt") / "pool.jsonl"
        write_jsonl(path, pool)
        back = read_jsonl(path, "pool")
        assert back.ids.tolist() == pool.ids.tolist()
        assert bits(back.xs) == bits(pool.xs) and back.xs.shape == pool.xs.shape

    @settings(max_examples=60, deadline=None)
    @given(columns(min_rows=1), st.data())
    def test_obs_log(self, tmp_path_factory, nx, data):
        n, xs = nx
        ts = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        ys = data.draw(st.lists(UNIT_FLOAT, min_size=n, max_size=n))
        obs = ObsLog(xs=xs, ts=ts, ys=ys)
        path = tmp_path_factory.mktemp("rt") / "obs.jsonl"
        write_jsonl(path, obs)
        back = read_jsonl(path, "obs")
        assert back.ts.tolist() == obs.ts.tolist() and back.ts.dtype == np.int64
        assert bits(back.ys) == bits(obs.ys)
        assert bits(back.xs) == bits(obs.xs) and back.xs.shape == obs.xs.shape

    @settings(max_examples=60, deadline=None)
    @given(columns(), st.data())
    def test_rct_records(self, tmp_path_factory, nx, data):
        n, xs = nx
        column = partial(st.lists, min_size=n, max_size=n)
        stream = RctStream(xs=xs, ts=data.draw(column(st.integers(0, 1))),
                           ys=data.draw(column(UNIT_FLOAT)),
                           ps=data.draw(column(OPEN_UNIT_FLOAT)),
                           seq=data.draw(column(st.integers(-2**63, 2**63 - 1))))
        path = tmp_path_factory.mktemp("rt") / "rct.jsonl"
        write_jsonl(path, stream)
        back = read_jsonl(path, "rct")
        assert back.ts.tolist() == stream.ts.tolist() and back.ts.dtype == np.int64
        assert back.seq.tolist() == stream.seq.tolist() and back.seq.dtype == np.int64
        for name in ("xs", "ys", "ps"):
            assert bits(getattr(back, name)) == bits(getattr(stream, name))

    def test_empty_obs_file_is_a_log_with_no_rows(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text("")
        assert len(read_jsonl(path, "obs")) == 0


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_at(failing, exc=ValueError):
    """fn(i) = (i, i / 3) but for the indices in failing, which raise exc."""
    def fn(i):
        if i in failing:
            raise exc(f"index {i}")
        return i, np.float64(i) / 3
    return fn


def raise_unpicklable(i):
    raise ValueError(lambda: i)


class TestForkMap:
    """fork_map(fn, n, workers) is [fn(i) for i in range(n)], value for value
    and exception for exception, whichever process ran each index."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 7])
    def test_returns_the_serial_loop_values(self, n, workers):
        fn = fail_at(())
        assert fork_map(fn, n, workers) == [fn(i) for i in range(n)]
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("failing", [{3, 4}, {4, 5}, {0, 1}, {6}])
    def test_the_lowest_failing_index_raises(self, failing, workers):
        """With 2 or 3 processes, the lowest failing index is this process's
        in some cases and a child's in others, and a higher one fails in
        another process."""
        with pytest.raises(KeyError, match=f"^'index {min(failing)}'$"):
            fork_map(fail_at(failing, KeyError), 7, workers)
        assert_no_child_left()

    @pytest.mark.parametrize("fn", [
        lambda i: os._exit(3) if i == 1 else i,
        lambda i: i if i != 1 else (lambda: i),
        lambda i: i if i != 3 else raise_unpicklable(i),
    ], ids=["dies", "unpicklable-value", "unpicklable-exception"])
    def test_a_child_that_sends_nothing_names_its_indices(self, fn):
        with pytest.raises(ChildProcessError,
                           match=r"^the child process for indices \[1, 3\] sent no result$"):
            fork_map(fn, 4, 2)
        assert_no_child_left()

    @pytest.mark.parametrize("failing, error", [(0, ValueError), (2, ChildProcessError)])
    def test_a_silent_child_fails_at_its_lowest_index(self, failing, error):
        """The child of indices 1 and 3 dies at 3; index 0 failing here
        comes first, index 2 failing here after it."""
        fn = fail_at({failing})
        with pytest.raises(error):
            fork_map(lambda i: os._exit(3) if i == 3 else fn(i), 4, 2)
        assert_no_child_left()

    def test_without_os_fork_the_loop_runs_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        fn = fail_at(())
        assert fork_map(fn, 5, 3) == [fn(i) for i in range(5)]
        with pytest.raises(ValueError, match="^index 2$"):
            fork_map(fail_at({2, 4}), 5, 3)

    def test_usable_cpus_reads_the_affinity_mask_at_each_call(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert usable_cpus() == 3
        monkeypatch.delattr(os, "fork")
        assert usable_cpus() == 1
