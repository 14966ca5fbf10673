"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by a hash of (seed, index, tag).  Streams are therefore pure functions of
their key: parallel and serial runs, and re-runs on other machines, produce
byte-identical draws.  Because Philox is counter-based, a stream can also
be copied and moved past draws it does not need without making them
(:func:`copy_position`, :func:`skip_doubles`).  This is the one module that
constructs generators.
"""

from __future__ import annotations

import hashlib
import math
import operator

import numpy as np

from .errors import ConfigurationError

__all__ = ["stream", "copy_position", "skip_doubles", "uniform_into", "fanout_seed",
           "check_seed", "mean_se"]

# 64-bit words Philox4x64 makes per counter step; each double takes one
_PHILOX_WORDS = 4


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        if isinstance(p, str):
            b = p.encode("utf-8")
        elif isinstance(p, (int, np.integer)):
            b = int(p).to_bytes(16, "little", signed=False)
        else:
            raise TypeError(f"unhashable stream key part: {p!r}")
        h.update(len(b).to_bytes(4, "little"))
        h.update(b)
    return h.digest()


def check_seed(seed) -> int:
    """``seed`` as an int; :class:`ConfigurationError` unless it is a uint64."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise ConfigurationError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= value < 2**64:
        raise ConfigurationError(f"seed must be a uint64 (0 <= seed < 2**64), got {value}")
    return value


def stream(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Deterministic Philox generator for (seed, tag, index)."""
    key = int.from_bytes(_digest(check_seed(seed), tag, int(index)), "little")
    return np.random.Generator(np.random.Philox(key=key))


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
    words[:] = [(counter >> (64 * i)) & (2**64 - 1) for i in range(words.size)]
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
    return int.from_bytes(_digest(check_seed(master_seed), label, int(index))[:8], "little")


def mean_se(draws) -> tuple[float, float]:
    """Mean of i.i.d. draws and its standard error, sample sd (n - 1) / sqrt(n)."""
    x = np.asarray(draws)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))
