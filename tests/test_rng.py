import hashlib

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


def _blake2b_key(*parts) -> int:
    # the key hash written out: each part as a 4-byte length and its bytes,
    # ints as 16 little-endian bytes, hashed at once
    data = b""
    for part in parts:
        b = part.encode("utf-8") if isinstance(part, str) else part.to_bytes(16, "little")
        data += len(b).to_bytes(4, "little") + b
    return int.from_bytes(hashlib.blake2b(data, digest_size=16).digest(), "little")


def _keyed_philox(seed, tag, index=0):
    return np.random.Generator(np.random.Philox(key=_blake2b_key(seed, tag, index)))


def _same_draws(gen, ref):
    assert _position(gen) == _position(ref)
    assert gen.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()
    gen.bit_generator.advance(3)
    ref.bit_generator.advance(3)
    assert _position(gen) == _position(ref)
    assert gen.random(6).tobytes() == ref.random(6).tobytes()
    assert _position(gen) == _position(ref)


KEYED = [(seed, tag, index) for seed in RE_KEY_SEEDS
         for tag, index in (("stars", 0), ("trig-coeffs", 0), ("favard-lines", 3),
                            ("m", 2**40))]


@pytest.mark.parametrize("seed,tag,index", KEYED)
def test_streams_start_where_keyed_philox_starts(seed, tag, index):
    # a generator built from its two key words has the whole state, and the
    # draws, of the one Philox(key=...) builds; so has a re-keyed one and a copy
    _same_draws(stream(seed, tag, index), _keyed_philox(seed, tag, index))
    if index == 0:
        _same_draws(next(streams([seed], tag)), _keyed_philox(seed, tag))
    gen, ref = stream(seed, tag, index), _keyed_philox(seed, tag, index)
    gen.random(3)
    ref.random(3)
    _same_draws(copy_position(gen), ref)


def test_key_word_streams_refuse_to_spawn():
    # a spawned child would be keyed by OS entropy, and could not be drawn again
    for gen in (stream(1, "x"), next(streams([1], "x")), copy_position(stream(1, "x"))):
        with pytest.raises(TypeError):
            gen.spawn(1)
        with pytest.raises(TypeError):
            gen.bit_generator.spawn(1)


def test_fanout_seed_equals_the_uncached_hash():
    # repeated (seed, label) prefixes come from the cache, interleaved with others
    pick = np.random.default_rng(4)
    labels = ["exp", "chi2-component", "lens-images#rhs", "é"]
    for _ in range(3000):
        seed = [0, 1, 5, 2**64 - 1, int(pick.integers(2**63))][int(pick.integers(5))]
        label = labels[int(pick.integers(len(labels)))]
        index = int(pick.integers(0, 2**40))
        assert fanout_seed(seed, label, index) == _blake2b_key(seed, label, index) & (2**64 - 1)


def test_cached_fanout_prefix_still_checks_the_seed():
    # 5.0 == 5 as a cache key: the seed is checked before the cache is asked
    fanout_seed(5, "t")
    fanout_seed(np.uint64(5), "t", 1)
    for bad in (5.0, 5.5, -5, 2**64 + 5):
        with pytest.raises(ConfigurationError):
            fanout_seed(bad, "t")
    assert fanout_seed(np.uint64(5), "t", 2) == fanout_seed(5, "t", 2)
