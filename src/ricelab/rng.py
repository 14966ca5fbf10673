"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by a hash of (seed, index, tag).  Streams are therefore pure functions of
their key: parallel and serial runs, and re-runs on other machines, produce
byte-identical draws.
"""

from __future__ import annotations

import hashlib
import math
import operator

import numpy as np

from .errors import ConfigurationError

__all__ = ["stream", "fanout_seed", "check_seed", "mean_se"]


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


def fanout_seed(master_seed: int, label: str, index: int = 0) -> int:
    """Derive a child uint64 seed from (master seed, label, index)."""
    return int.from_bytes(_digest(check_seed(master_seed), label, int(index))[:8], "little")


def mean_se(draws) -> tuple[float, float]:
    """Mean of i.i.d. draws and its standard error, sample sd (n - 1) / sqrt(n)."""
    x = np.asarray(draws)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))
