import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ricelab.errors import ConfigurationError
from ricelab.rng import check_seed, fanout_seed, stream

seeds = st.integers(min_value=0, max_value=2**64 - 1)


@given(seeds, st.text(min_size=1, max_size=30), st.integers(0, 10**6))
def test_stream_is_reproducible(seed, tag, index):
    a = stream(seed, tag, index).standard_normal(8)
    b = stream(seed, tag, index).standard_normal(8)
    assert np.array_equal(a, b)


@given(seeds, st.integers(0, 1000))
def test_streams_differ_across_tags(seed, index):
    a = stream(seed, "alpha", index).standard_normal(4)
    b = stream(seed, "beta", index).standard_normal(4)
    assert not np.array_equal(a, b)


@given(seeds, st.text(min_size=1, max_size=20))
def test_streams_differ_across_indices(seed, tag):
    a = stream(seed, tag, 0).standard_normal(4)
    b = stream(seed, tag, 1).standard_normal(4)
    assert not np.array_equal(a, b)


@given(seeds, st.text(min_size=1, max_size=20), st.integers(0, 10**6))
def test_fanout_seed_is_a_stable_u64(seed, label, index):
    a = fanout_seed(seed, label, index)
    assert a == fanout_seed(seed, label, index)
    assert 0 <= a < 2**64


def test_fanout_has_no_obvious_collisions():
    got = {fanout_seed(0, "experiment", i) for i in range(10_000)}
    assert len(got) == 10_000
    # label participates: same indices under another label are disjoint
    other = {fanout_seed(0, "tnemirepxe", i) for i in range(10_000)}
    assert not (got & other)


def test_fanout_feeds_distinct_streams():
    vals = [stream(fanout_seed(1, "chain", i), "trig-coeffs").standard_normal(2)
            for i in range(50)]
    flat = np.array(vals).ravel()
    assert np.unique(flat).size == flat.size


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7"])
def test_seeds_outside_uint64_are_configuration_errors(bad):
    # -1 used to escape as an OverflowError from the key hash
    for call in (check_seed, lambda s: stream(s, "t"), lambda s: fanout_seed(s, "t")):
        with pytest.raises(ConfigurationError):
            call(bad)
    assert check_seed(np.uint64(2**64 - 1)) == 2**64 - 1
