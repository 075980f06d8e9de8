"""Deterministic per-item seed derivation, and the generator seeds drive.

Every batch operation that needs randomness derives one seed per item
from the run seed and the item's stable identity. Items keep their
random streams when unrelated files are added to or removed from a run.
The identity hash is BLAKE2b taken from ``_blake2``: ``hashlib.blake2b``
is that same function (hashlib never takes BLAKE2 from OpenSSL), and
importing ``hashlib`` also loads ``_hashlib``, which maps OpenSSL's
libcrypto into every command.

``Rng(seed)`` draws what ``numpy.random.default_rng(seed)`` draws, bit for
bit, for the four calls encore makes, in pure Python: the commands that
draw do not import numpy, and their streams do not move when a numpy
release changes a ``Generator`` method (NEP 19 pins only the bit stream).
"""

from __future__ import annotations

from _blake2 import blake2b

_MASK = 2**64 - 1
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE = 2**64 + 1  # x * _DOUBLE is x beside a copy of itself: a shift then rotates


def derive_seed(seed: int, *parts: str) -> int:
    """XOR ``seed`` with a stable 64-bit hash of the item identity."""
    if not parts:
        raise ValueError("need at least one identity part")
    digest = blake2b(
        "\x1f".join(parts).encode("utf-8"), digest_size=8
    ).digest()
    return (seed ^ int.from_bytes(digest, "little")) & _MASK


def _seed_state(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, uint64)``: the seed's
    32-bit words, least significant first, hashed into a pool of four."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]


class Rng:
    """``numpy.random.default_rng(seed)``'s PCG64 stream (O'Neill 2014) and
    its ``random``, ``uniform``, ``integers`` and ``permutation``, scalar
    only. A 32-bit draw takes the low half of a 64-bit output and keeps the
    high half for the next 32-bit draw; 64-bit draws leave that half alone."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        u0, u1, u2, u3 = _seed_state(seed)
        # from state 0: step, add the initial state u0:u1, step again
        self._inc = ((u2 << 64 | u3) << 1 | 1) & _MASK128
        self._state = ((self._inc + (u0 << 64 | u1)) * _PCG_MULT + self._inc) & _MASK128
        self._half = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        high = state >> 64
        # XSL-RR: xor the halves, rotate right by the top 6 bits
        return (high ^ (state & _MASK)) * _DOUBLE >> (high >> 58) & _MASK

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        out = self._next64()
        self._half = out >> 32
        return out & _MASK32

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of one 64-bit output."""
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def integers(self, n: int) -> int:
        """An int in [0, n) by Lemire's multiply-and-reject on 32-bit draws
        (Lemire 2019); n == 1 draws nothing and n == 2**32 one raw draw."""
        if not 1 <= n <= 2**32:
            raise ValueError(f"integers needs 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        if n == 2**32:
            return self._next32()
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = 2**32 % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32

    def permutation(self, n: int) -> list[int]:
        """``range(n)`` shuffled by Fisher–Yates from the end. Each swap index
        j in [0, i] is a 32-bit draw masked to i's bit width and redrawn
        while above i (numpy's ``random_interval``, not Lemire)."""
        if n > 2**32:
            raise ValueError(f"permutation of {n} items: at most 2**32")
        order = list(range(n))
        next32 = self._next32
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = next32() & mask
            while j > i:
                j = next32() & mask
            order[i], order[j] = order[j], order[i]
        return order
