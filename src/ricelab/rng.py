"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by a hash of (seed, index, tag).  Streams are therefore pure functions of
their key: parallel and serial runs, and re-runs on other machines, produce
byte-identical draws.  Because Philox is counter-based, a stream can also
be copied and moved past draws it does not need without making them
(:func:`copy_position`, :func:`skip_doubles`), and a loop over many seeds
can re-key one generator instead of building one per seed
(:func:`streams`).  This is the one module that constructs generators.
"""

from __future__ import annotations

import hashlib
import math
import operator

import numpy as np

from .errors import ConfigurationError

__all__ = ["stream", "streams", "copy_position", "skip_doubles", "uniform_into", "fanout_seed",
           "check_seed", "mean_se"]

# 64-bit words Philox4x64 makes per counter step; each double takes one
_PHILOX_WORDS = 4
_WORD = 2**64 - 1


def _encode(part) -> bytes:
    """One key part as a 4-byte length and its bytes (ints as 16 little-endian bytes)."""
    if isinstance(part, str):
        b = part.encode("utf-8")
    elif isinstance(part, (int, np.integer)):
        b = int(part).to_bytes(16, "little", signed=False)
    else:
        raise TypeError(f"unhashable stream key part: {part!r}")
    return len(b).to_bytes(4, "little") + b


def check_seed(seed) -> int:
    """``seed`` as an int; :class:`ConfigurationError` unless it is a uint64."""
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


def stream(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Deterministic Philox generator for (seed, tag, index)."""
    key = _key(seed, _encode(tag) + _encode(int(index)))
    return np.random.Generator(np.random.Philox(key=key))


def streams(seeds, tag: str):
    """For each seed in turn, one generator whose draws are ``stream(seed, tag)``'s.

    The same generator is yielded every time, re-keyed: its Philox state is
    set to the seed's key, a zero counter and an empty buffer, which is the
    state a new ``Philox(key=...)`` starts in.  Building a new Philox costs
    an entropy-seeded SeedSequence it then discards, so a loop over many
    seeds pays that once.  A yielded generator is valid until the next one.
    """
    bit = np.random.Philox(key=0)
    gen = np.random.Generator(bit)
    key = np.zeros(2, dtype=np.uint64)
    zeros = np.zeros(_PHILOX_WORDS, dtype=np.uint64)
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
    bit = np.random.Philox(key=0)
    bit.state = gen.bit_generator.state
    return np.random.Generator(bit)


def skip_doubles(gen: np.random.Generator, n: int) -> None:
    """Move the Philox generator ``gen`` past ``n`` doubles without drawing them.

    Afterwards its state, buffer included, is the one drawing ``n`` doubles
    would leave: the counter jumps over whole steps, and the last one to four
    words are drawn so that the buffer holds what the draws would have left.
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
    words = state["state"]["counter"]
    counter = sum(int(w) << (64 * i) for i, w in enumerate(words)) + steps
    words[:] = [(counter >> (64 * i)) & _WORD for i in range(words.size)]
    state["buffer_pos"] = _PHILOX_WORDS
    bit.state = state
    gen.random(tail + 1)


def uniform_into(gen: np.random.Generator, low: float, high: float,
                 out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the doubles ``gen.uniform(low, high, out.shape)`` would give.

    Generator.uniform is low + (high - low) * random(), one double per entry,
    so drawing into a reused buffer and scaling in place gives the same bits.
    """
    gen.random(out=out)
    out *= high - low
    out += low
    return out


def fanout_seed(master_seed: int, label: str, index: int = 0) -> int:
    """Derive a child uint64 seed from (master seed, label, index)."""
    return _key(master_seed, _encode(label) + _encode(int(index))) & _WORD


def mean_se(draws) -> tuple[float, float]:
    """Mean of i.i.d. draws and its standard error, sample sd (n - 1) / sqrt(n)."""
    x = np.asarray(draws)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))
