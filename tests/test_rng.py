import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ricelab.errors import ConfigurationError
from ricelab.rng import (
    check_seed,
    copy_position,
    fanout_seed,
    skip_doubles,
    stream,
    streams,
    uniform_into,
)

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


def _position(gen):
    state = gen.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"],
            state["uinteger"])


RE_KEY_SEEDS = [0, 1, 2**64 - 1]


def test_rekeyed_streams_draw_what_new_streams_draw():
    # each re-key follows draws that leave the previous state dirty: a
    # partly read Philox buffer (odd-length normals) and a pending upper
    # uint32 half (has_uint32 set by an odd 32-bit draw)
    gens = streams(RE_KEY_SEEDS * 2, "rekey")
    for _ in range(2):
        for seed in RE_KEY_SEEDS:
            gen = next(gens)
            ref = stream(seed, "rekey")
            # the whole state: counter, key, buffer and its position, uint32 half
            assert _position(gen) == _position(ref)
            assert gen.standard_normal(7).tobytes() == ref.standard_normal(7).tobytes()
            assert gen.poisson(13.5) == ref.poisson(13.5)
            assert gen.random(3).tobytes() == ref.random(3).tobytes()
            got = gen.integers(0, 1000, size=3, dtype=np.uint32)
            assert got.tobytes() == ref.integers(0, 1000, size=3, dtype=np.uint32).tobytes()
            assert gen.bit_generator.state["has_uint32"] == 1
            assert _position(gen) == _position(ref)
    assert next(gens, None) is None


def test_rekeyed_streams_share_one_generator():
    gens = list(streams(RE_KEY_SEEDS, "one"))
    assert len(gens) == 3 and all(gen is gens[0] for gen in gens)
    with pytest.raises(ConfigurationError):
        next(streams([2**64], "one"))


@pytest.mark.parametrize("used", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 17, 1001])
def test_skipping_doubles_lands_where_drawing_them_does(n, used):
    # used = 1, 2, 3: the four-double Philox buffer is partly read
    drawn = stream(11, "skip")
    drawn.random(used)
    skipped = copy_position(drawn)
    assert _position(skipped) == _position(drawn)
    drawn.random(n)
    skip_doubles(skipped, n)
    assert _position(skipped) == _position(drawn)
    assert skipped.random(9).tobytes() == drawn.random(9).tobytes()


def test_skipping_carries_across_counter_words():
    drawn = stream(2, "carry")
    state = drawn.bit_generator.state
    state["state"]["counter"] = np.array([2**64 - 2, 5, 0, 0], dtype=np.uint64)
    drawn.bit_generator.state = state
    skipped = copy_position(drawn)
    drawn.random(22)
    skip_doubles(skipped, 22)
    assert _position(skipped) == _position(drawn)
    assert _position(drawn)[0] == [4, 6, 0, 0]


def test_copied_position_draws_independently():
    gen = stream(5, "copy")
    gen.random(3)
    copy = copy_position(gen)
    first = copy.random(6)
    assert gen.random(6).tobytes() == first.tobytes()
    assert copy.bit_generator is not gen.bit_generator


@pytest.mark.parametrize("shape", [(1,), (7, 3), (1001, 5)])
def test_uniform_into_matches_uniform_bitwise(shape):
    gen, ref = stream(9, "u"), stream(9, "u")
    gen.random(1)
    ref.random(1)
    out = np.empty(shape)
    assert uniform_into(gen, -0.7, 0.7, out) is out
    assert out.tobytes() == ref.uniform(-0.7, 0.7, size=shape).tobytes()
    assert (uniform_into(gen, 0.5, 2.0, out).tobytes()
            == ref.uniform(0.5, 2.0, size=shape).tobytes())
