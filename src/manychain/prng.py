"""Counter-based splittable random keys.

Every draw is a pure function of an explicit 128-bit key, so a sampler run
is reproducible from its root seed alone and chains can be given independent
streams without any shared mutable generator state.

Construction: keys index Philox-4x64 streams (numpy's implementation).
Key derivation (children / split / seed expansion) reads from the same
cipher but under a reserved counter domain, so derived key material never
overlaps the bits handed out as draws:

    counter = [index, 0, domain, 0]

with domain 0 for draws, 1 for a key's children, 3 for seed expansion.
A draw is the top 53 bits of one raw Philox word (word >> 11), the k that
Generator.integers(0, 2**53) would return for the same word: with a range
of 2**53, its Lemire rejection threshold is 0 and it never rejects. Normal
variates are the inverse-CDF transform of the open-interval uniforms
(k + 0.5) / 2**53; this choice is fixed so that a given key always yields
the same bits.

Every function reads numpy's Philox through _stream: each thread reuses one
Philox whose state is set to the key and counter asked for, which is what a
freshly constructed one would hold.

Many chains at once: a sampler draws for every chain each iteration, so
normal_uniform_each gives them all their draws from one key in one read of
its draw stream, laid out chain by chain. Chain c takes the P + 1 words
from word c * (P + 1): its P normals, then its uniform. A chain's draws
therefore do not depend on how many chains are drawn beside it, and chain
0's are the ones the one-key draws read.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import count, islice

import numpy as np
from scipy.special import ndtri

_DOMAIN_DRAW = 0
_DOMAIN_SPLIT = 1
_DOMAIN_SEED = 3
_CHILDREN_PER_READ = 64  # children built per split-domain read, two per Philox block

# arbitrary odd 64-bit constant (golden ratio fraction), fixed forever:
# it keys the expansion of user seeds into root keys.
_SEED_EXPAND_CONST = 0x9E3779B97F4A7C15

_U64 = np.uint64
_INV_TWO53 = 1.0 / (1 << 53)


@dataclass(frozen=True)
class RandomKey:
    """Immutable 128-bit stream identifier. Two unsigned 64-bit halves."""

    hi: int
    lo: int

    def __post_init__(self):
        if not (0 <= self.hi < 2**64 and 0 <= self.lo < 2**64):
            raise ValueError("key halves must be unsigned 64-bit integers")

    def __repr__(self):
        return f"RandomKey(0x{self.hi:016x}{self.lo:016x})"


class _Streams(threading.local):
    """This thread's numpy Philox and the Generator reading it. A Philox
    built for every derivation seeds, and then discards, a SeedSequence from
    os.urandom even though a key is given; reusing one avoids that."""

    def __init__(self):
        self.philox = np.random.Philox(0)
        self.generator = np.random.Generator(self.philox)


_streams = _Streams()


def _stream(key: RandomKey, domain: int, index: int = 0) -> np.random.Generator:
    """A Generator at the start of key's stream in the given counter domain.

    Every call resets the thread's one Philox to exactly the state a new
    Philox(key, counter) starts in, so the draws are those of a new one; use
    the Generator up before the next call on the same thread."""
    _streams.philox.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([index, 0, domain, 0], dtype=_U64),
            "key": np.array([key.lo, key.hi], dtype=_U64),
        },
        "buffer": np.zeros(4, dtype=_U64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _streams.generator


def key_from_seed(seed: int) -> RandomKey:
    """Expand a 64-bit unsigned seed into a root key.

    The root key is the first 128 bits of the Philox stream keyed by
    (seed, fixed odd constant) in the seed-expansion counter domain.
    """
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    gen = _stream(RandomKey(_SEED_EXPAND_CONST, int(seed)), _DOMAIN_SEED)
    lo, hi = gen.bit_generator.random_raw(2)
    return RandomKey(int(hi), int(lo))


def children(key: RandomKey):
    """Key's children, in order and without end: the consecutive 128-bit
    blocks of its split-domain stream, deterministic in the key and
    independent of anything drawn from it. Each read of the stream builds
    the next _CHILDREN_PER_READ children at once."""
    for block in count(0, _CHILDREN_PER_READ // 2):
        words = _stream(key, _DOMAIN_SPLIT, index=block).bit_generator.random_raw(
            2 * _CHILDREN_PER_READ)
        yield from [RandomKey(hi, lo) for lo, hi in words.reshape(-1, 2).tolist()]


def split(key: RandomKey, n: int) -> list[RandomKey]:
    """key's first n children."""
    if n < 1:
        raise ValueError(f"split needs n >= 1, got {n}")
    return list(islice(children(key), n))


def _top53(words: np.ndarray) -> np.ndarray:
    """The top 53 bits of each raw word as float64, exactly: the k on
    [0, 2**53) that Generator.integers(0, 2**53) draws from the same word.
    Shifts words in place."""
    words >>= _U64(11)
    return words.astype(np.float64)


def _normals(x: np.ndarray) -> np.ndarray:
    """ndtri(x / 2**53) for x = k + 0.5, computed in place in x."""
    x *= _INV_TWO53
    return ndtri(x, out=x)


def _resolve_shape(shape):
    if shape is None:
        return None
    if isinstance(shape, (int, np.integer)):
        return (int(shape),)
    return tuple(int(s) for s in shape)


def uniform(key: RandomKey, shape=None) -> np.ndarray | float:
    """Uniform draws on [0, 1) in float64. Scalar when shape is None or []."""
    shp = _resolve_shape(shape)
    gen = _stream(key, _DOMAIN_DRAW)
    if shp is None or shp == ():
        return float(gen.random())
    return gen.random(size=shp)


def normal(key: RandomKey, shape=None) -> np.ndarray | float:
    """Standard normal draws in float64 via inverse-CDF of (0,1) uniforms.

    Uniforms are (k + 0.5) / 2**53 with k the top 53 bits of a raw word,
    strictly inside the open interval, so the transform never hits an
    infinity.
    """
    shp = _resolve_shape(shape)
    size = shp if shp is not None else ()
    words = _stream(key, _DOMAIN_DRAW).bit_generator.random_raw(math.prod(size))
    z = _normals(_top53(words) + 0.5).reshape(size)
    if shp is None or shp == ():
        return float(z)
    return z


def randint(key: RandomKey, minval: int, maxval: int, shape=None) -> np.ndarray | int:
    """Uniform integers on {minval, ..., maxval - 1} (maxval exclusive).

    Bounded draws use rejection under the hood (numpy Generator.integers),
    so there is no modulo bias.
    """
    if maxval <= minval:
        raise ValueError(f"randint needs minval < maxval, got [{minval}, {maxval})")
    shp = _resolve_shape(shape)
    gen = _stream(key, _DOMAIN_DRAW)
    if shp is None or shp == ():
        return int(gen.integers(minval, maxval))
    return gen.integers(minval, maxval, size=shp)


def normal_uniform_each(
    key: RandomKey, num_chains: int, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every chain's normals and uniform from key's draw stream, in one read.

    The stream is laid out chain by chain: chain c takes words c*(size+1)
    to c*(size+1)+size, its size normals, transformed as normal() does, and
    then its uniform k / 2**53, as random() draws it. Chain 0 thus reads what
    normal(key, [size]) reads. Returns float64 arrays (num_chains, size)
    and (num_chains,)."""
    if num_chains < 0 or size < 0:
        raise ValueError(f"num_chains and size must be >= 0, got {num_chains} and {size}")
    words = _stream(key, _DOMAIN_DRAW).bit_generator.random_raw(num_chains * (size + 1))
    k = _top53(words).reshape(num_chains, size + 1)
    return _normals(k[:, :size] + 0.5), k[:, size] * _INV_TWO53
