"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by a hash of (seed, index, tag).  Streams are therefore pure functions of
their key: parallel and serial runs, and re-runs on other machines, produce
byte-identical draws.  A counter-based generator's whole state is its key
and its counter, so a stream is built from the two words of its key alone
(:class:`_KeyWords`), with no OS entropy drawn.  A stream can also be
copied (:func:`copy_position`) and moved past draws it does not need
without making them (:func:`skip_doubles`, by ``Philox.advance``), and a
loop over many seeds can re-key one generator instead of building one per
seed (:func:`streams`).  This is the one module that constructs generators.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator

import numpy as np

from .errors import ConfigurationError

__all__ = ["stream", "streams", "copy_position", "skip_doubles", "fanout_seed",
           "check_seed", "mean_se"]

# 64-bit words Philox4x64 makes per counter step; each double takes one
_PHILOX_WORDS = 4
_WORD = 2**64 - 1


def _encode(part) -> bytes:
    """One key part as a 4-byte length and its bytes (ints as 16 little-endian bytes)."""
    if type(part) is int:  # its 4-byte length, 16, written out
        return b"\x10\0\0\0" + part.to_bytes(16, "little")
    if isinstance(part, str):
        b = part.encode("utf-8")
    elif isinstance(part, (int, np.integer)):
        b = int(part).to_bytes(16, "little", signed=False)
    else:
        raise TypeError(f"unhashable stream key part: {part!r}")
    return len(b).to_bytes(4, "little") + b


def check_seed(seed) -> int:
    """``seed`` as an int; :class:`ConfigurationError` unless it is a uint64."""
    if type(seed) is int and 0 <= seed <= _WORD:
        return seed
    try:
        value = operator.index(seed)
    except TypeError:
        raise ConfigurationError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= value < 2**64:
        raise ConfigurationError(f"seed must be a uint64 (0 <= seed < 2**64), got {value}")
    return value


def _key(seed, suffix: bytes) -> int:
    """128-bit hash of ``seed`` followed by the encoded remaining key parts ``suffix``."""
    digest = hashlib.blake2b(_encode(check_seed(seed)) + suffix, digest_size=16).digest()
    return int.from_bytes(digest, "little")


class _KeyWords:
    """A 128-bit Philox key as the seed sequence of a new Philox.

    Philox asks its seed sequence for ``generate_state(2, uint64)`` alone
    and takes the two words as its key, with a zero counter and an empty
    buffer: the state ``Philox(key=...)`` starts in, without the OS entropy
    that constructor draws for a SeedSequence the key then overrides.  It
    is registered as numpy's ``ISeedSequence`` when the first generator is
    built (``_philox``), so that importing ricelab does not load numpy.random.
    """

    __slots__ = ("words",)

    def __init__(self, key: int):
        self.words = (key & _WORD, key >> 64)

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self.words, dtype=np.uint64)


@functools.cache
def _register_key_words() -> None:
    np.random.bit_generator.ISeedSequence.register(_KeyWords)


def _philox(key: int) -> np.random.Philox:
    _register_key_words()
    return np.random.Philox(_KeyWords(key))


def stream(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Deterministic Philox generator for (seed, tag, index).

    Its state is the one of ``Philox(key=...)`` for the hashed key.  Its
    seed sequence holds only that key, so ``spawn`` raises numpy's
    TypeError: a spawned child would be keyed by entropy and could not be
    drawn again.
    """
    return np.random.Generator(_philox(_key(seed, _encode(tag) + _encode(int(index)))))


def streams(seeds, tag: str):
    """For each seed in turn, one generator whose draws are ``stream(seed, tag)``'s.

    The same generator is yielded every time, re-keyed: its Philox state is
    set to the seed's key, a zero counter and an empty buffer, which is the
    state :func:`stream` builds.  On a Xeon KVM guest (numpy 2.4) a new
    generator takes about 5 us; here a seed costs about 1.6 us, of which
    0.9 us is its key hash and 0.6 us setting a state from Python-int lists
    (1.3 us from uint64 arrays).  A yielded generator is valid until the
    next one; like :func:`stream`'s, it cannot ``spawn``.
    """
    bit = _philox(0)
    gen = np.random.Generator(bit)
    key = [0, 0]
    zeros = [0] * _PHILOX_WORDS
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": _PHILOX_WORDS, "has_uint32": 0, "uinteger": 0}
    suffix = _encode(tag) + _encode(0)
    for seed in seeds:
        k = _key(seed, suffix)
        key[0], key[1] = k & _WORD, k >> 64
        bit.state = state
        yield gen


def copy_position(gen: np.random.Generator) -> np.random.Generator:
    """A new generator at the position of the Philox generator ``gen``."""
    bit = _philox(0)
    bit.state = gen.bit_generator.state
    return np.random.Generator(bit)


def skip_doubles(gen: np.random.Generator, n: int) -> None:
    """Move the Philox generator ``gen`` past ``n`` doubles without drawing them.

    Afterwards its state, buffer included, is the one drawing ``n`` doubles
    would leave: ``advance`` jumps the counter over whole steps and empties
    the buffer, and the last one to four words are drawn so that the buffer
    holds what the draws would have left.
    """
    if n <= 0:
        return
    bit = gen.bit_generator
    state = bit.state
    buffered = _PHILOX_WORDS - state["buffer_pos"]
    if n <= buffered:
        state["buffer_pos"] += n
        bit.state = state
        return
    steps, tail = divmod(n - buffered - 1, _PHILOX_WORDS)
    bit.advance(steps)
    gen.random(tail + 1)


@functools.lru_cache(maxsize=64)
def _fanout_prefix(master_seed: int, label: str):
    return hashlib.blake2b(_encode(master_seed) + _encode(label), digest_size=16)


def fanout_seed(master_seed: int, label: str, index: int = 0) -> int:
    """Derive a child uint64 seed from (master seed, label, index).

    The hash of (master seed, label) is kept for the next index: a cached
    blake2b state that each call copies and feeds the index, which gives
    the digest of the three parts hashed at once.  The seed is checked
    before the cache, whose keys would take 5.0 for 5.
    """
    h = _fanout_prefix(check_seed(master_seed), label).copy()
    h.update(_encode(int(index)))
    return int.from_bytes(h.digest(), "little") & _WORD


def mean_se(draws) -> tuple[float, float]:
    """Mean of i.i.d. draws and its standard error, sample sd (n - 1) / sqrt(n)."""
    x = np.asarray(draws)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))
