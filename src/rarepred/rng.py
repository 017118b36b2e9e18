"""Seed derivation helpers shared by every stochastic component.

All randomness in the package flows through ``numpy.random.Generator``
instances built from explicit integer seeds. Child seeds are derived with
``child_seed`` so that independent work units (trees in a forest, repeats
in a tuning run, the tuning subset draw) get decorrelated, reproducible
streams that do not depend on execution order.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["child_seed", "generator", "subsets"]


def child_seed(master: int, *keys: int | str) -> int:
    """Derive a 64-bit child seed from a master seed and a key path.

    The same (master, keys) always yields the same child, and distinct key
    paths yield effectively independent seeds. String keys are folded into
    integers so call sites can use readable tags like ``("fold", 2)``.
    """
    parts = [int(master) & 0xFFFFFFFFFFFFFFFF]
    for key in keys:
        if isinstance(key, str):
            folded = 0
            for ch in key.encode("utf-8"):
                folded = (folded * 131 + ch) & 0xFFFFFFFFFFFFFFFF
            parts.append(folded)
        else:
            parts.append(int(key) & 0xFFFFFFFFFFFFFFFF)
    seq = np.random.SeedSequence(parts)
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def generator(seed: int) -> np.random.Generator:
    """A fresh PCG64 generator for the given seed."""
    return np.random.Generator(np.random.PCG64(int(seed) & 0xFFFFFFFFFFFFFFFF))


def subsets(rng: np.random.Generator):
    """A function ``draw(k, m)`` giving, for ``k < 2 ** 32``, the sorted list that
    ``np.sort(rng.choice(k, size=m, replace=False))`` would, from the same uint32 words:
    Floyd's algorithm then the shuffle, each step a Lemire-bounded draw that takes no
    word for a bound of 0. Each word is read through the bit generator's own
    ``next_uint32``, the function ``integers`` and ``choice`` call, so after every
    ``draw`` ``rng`` is where ``choice`` would leave it. Past numpy's cutoff, where
    ``choice`` shuffles a tail of ``range(k)`` instead, ``draw`` calls ``choice``."""
    bits = rng.bit_generator.ctypes
    word = functools.partial(bits.next_uint32, bits.state)

    def bounded(top: int) -> int:  # in [0, top]; numpy skips the modulo when it can
        span, x = top + 1, word() * (top + 1) if top else 0
        while x & 0xFFFFFFFF < span and x & 0xFFFFFFFF < (0x100000000 - span) % span:
            x = word() * span
        return x >> 32

    def draw(k: int, m: int) -> list[int]:
        if k > 10000 and m > k // 50:
            return np.sort(rng.choice(k, size=m, replace=False)).tolist()
        chosen = set()
        for j in range(k - m, k):
            chosen.add(j if (v := bounded(j)) in chosen else v)
        for i in range(m - 1, 0, -1):  # the shuffle's draws: its swaps keep the set
            bounded(i)
        return sorted(chosen)

    draw.rng = rng  # the C state that word reads lives as long as rng
    return draw
