"""Tests for the shared domain types and the chronological stream checks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from budgex.core import (DimensionError, FeatureMap, NormBoundError, ObsRecord,
                         Pool, PropensityBounds, RctRecord, StreamViolation,
                         read_jsonl, validate_rct_stream, write_jsonl)


class TestFeatureMap:
    def test_segment_one_hot(self):
        fmap = FeatureMap(kind="segment-one-hot", output_dim=3, norm_bound=1.0)
        np.testing.assert_array_equal(fmap([1.0]), [0.0, 1.0, 0.0])

    def test_identity(self):
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=2.0)
        np.testing.assert_array_equal(fmap([0.5, -1.0]), [0.5, -1.0])

    def test_affine_projection_and_norm_check(self):
        W = 2.0 * np.eye(2)
        fmap = FeatureMap(kind="affine-projection", output_dim=2, norm_bound=3.0,
                          weight=W)
        np.testing.assert_allclose(fmap([1.0, 1.0]), [2.0, 2.0])
        tight = FeatureMap(kind="affine-projection", output_dim=2, norm_bound=2.0,
                           weight=W)
        with pytest.raises(NormBoundError):
            tight([1.0, 1.0])

    def test_one_hot_is_exactly_one_hot(self):
        fmap = FeatureMap(kind="segment-one-hot", output_dim=5, norm_bound=1.0)
        phis = fmap.apply_many([[j] for j in range(5)])
        np.testing.assert_array_equal(phis, np.eye(5))

    def test_output_length_matches_dim(self):
        fmap = FeatureMap(kind="segment-one-hot", output_dim=4, norm_bound=1.0)
        assert fmap([2.0]).shape == (4,)

    def test_dimension_mismatch_rejected(self):
        fmap = FeatureMap(kind="identity", output_dim=2, norm_bound=10.0)
        with pytest.raises(DimensionError):
            fmap.apply_many([[1.0, 2.0, 3.0]])

    def test_segment_index_out_of_range(self):
        fmap = FeatureMap(kind="segment-one-hot", output_dim=2, norm_bound=1.0)
        with pytest.raises(DimensionError):
            fmap.apply_many([[5.0]])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FeatureMap(kind="fourier", output_dim=2, norm_bound=1.0)


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
            ObsRecord(x=[0.0], t=2, y=0.5)
        with pytest.raises(ValueError):
            ObsRecord(x=[0.0], t=1, y=1.5)

    def test_rct_record_validation(self):
        with pytest.raises(ValueError):
            RctRecord(x=[0.0], t=1, y=0.5, p=0.0, seq=1)
        with pytest.raises(ValueError):
            RctRecord(x=[0.0], t=1, y=-0.1, p=0.5, seq=1)


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

    @given(INT64_IDS)
    def test_rejects_exactly_repeated_ids(self, ids):
        ids = np.array(ids, dtype=np.int64)
        xs = np.zeros((len(ids), 1))
        if len(set(ids.tolist())) != len(ids):
            with pytest.raises(ValueError, match="distinct"):
                Pool(ids=ids, xs=xs)
        else:
            assert Pool(ids=ids, xs=xs).ids.tolist() == ids.tolist()


class TestValidateRctStream:
    bounds = PropensityBounds(0.2, 0.8)

    def test_empty_stream_ok(self):
        assert validate_rct_stream([], self.bounds) is None

    def test_probability_out_of_bounds(self):
        recs = [RctRecord(x=[0.0], t=1, y=1.0, p=0.05, seq=1)]
        v = validate_rct_stream(recs, self.bounds)
        assert isinstance(v, StreamViolation)
        assert v.index == 0
        assert "p=0.05" in v.reason

    def test_sequence_ordering_violation(self):
        recs = [RctRecord(x=[0.0], t=1, y=1.0, p=0.5, seq=s) for s in (1, 3, 2)]
        v = validate_rct_stream(recs, self.bounds)
        assert v.index == 2
        assert "seq" in v.reason

    def test_valid_stream_passes(self):
        recs = [RctRecord(x=[0.0], t=0, y=0.0, p=0.5, seq=s) for s in (1, 2, 5)]
        assert validate_rct_stream(recs, self.bounds) is None


class TestJsonlRoundTrip:
    def test_rct_round_trip_bit_exact(self, tmp_path):
        recs = [RctRecord(x=[0.123456789012345, -1.0], t=1, y=0.7,
                          p=1.0 / 3.0, seq=i + 1) for i in range(5)]
        path = tmp_path / "rct.jsonl"
        write_jsonl(path, recs)
        back = read_jsonl(path, "rct")
        assert back == recs

    def test_obs_and_pool_round_trip(self, tmp_path):
        obs = [ObsRecord(x=[0.5], t=0, y=1.0)]
        pool = Pool(ids=[3], xs=[[2.0]])
        write_jsonl(tmp_path / "obs.jsonl", obs)
        write_jsonl(tmp_path / "pool.jsonl", pool)
        assert read_jsonl(tmp_path / "obs.jsonl", "obs") == obs
        back = read_jsonl(tmp_path / "pool.jsonl", "pool")
        assert (back.ids.tolist(), back.xs.tolist()) == (pool.ids.tolist(), pool.xs.tolist())
