"""Deterministic random-number management for the DSE metaheuristics.

Both the SA filter (Alg. 1 line 6) and the EA explorer (Alg. 2) must be
reproducible run-to-run so that benchmark results are stable. Every
stochastic component receives an independent ``random.Random`` derived
from one master seed and a content *label* through a splittable
hash-based scheme — so a component's stream depends only on its label,
never on how many other components spawned first. That independence is
what lets the parallel DSE executor evaluate (point, WtDup, ResDAC)
tasks in any order, on any worker, and still reproduce the serial run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field


def make_rng(seed: int) -> random.Random:
    """Create a ``random.Random`` from an integer seed."""
    return random.Random(seed)


def randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``, from the same draws, in one Python frame.

    CPython's ``randrange(n)``, ``randint(1, n)`` (``1 + ...``) and
    ``choice(seq)`` (``seq[...]`` with ``n = len(seq)``) all reduce to
    ``Random._randbelow(n)``, which for a ``random.Random`` (and any
    subclass that keeps its ``random`` and ``getrandbits``) takes
    ``getrandbits(n.bit_length())`` until the value is below ``n``.
    This does exactly that, so it returns the same value and leaves
    ``rng`` in the same state, call for call, in one Python frame where
    ``randrange`` takes three and checks its arguments: the SA and EA
    loops draw hundreds of thousands of times per synthesis. Raises
    :class:`ValueError` for ``n < 1``, where ``getrandbits(0)`` would
    be 0 forever.
    """
    if n < 1:
        raise ValueError(f"randbelow needs n >= 1, got {n}")
    bits = n.bit_length()
    value = rng.getrandbits(bits)
    while value >= n:
        value = rng.getrandbits(bits)
    return value


@dataclass
class SeedSequence:
    """Splittable seed source.

    ``spawn(label)`` deterministically derives a child seed from the
    master seed and a string label, so adding a new consumer never
    perturbs the streams of existing ones (unlike incrementing a shared
    counter would).
    """

    seed: int
    _children: dict = field(default_factory=dict, repr=False)

    def spawn(self, label: str) -> random.Random:
        """Return an independent RNG for ``label`` (stable across calls)."""
        if label not in self._children:
            digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
            self._children[label] = int.from_bytes(digest[:8], "big")
        return random.Random(self._children[label])

    def child_seed(self, label: str) -> int:
        """Derive (and memoize) the integer child seed for ``label``."""
        self.spawn(label)
        return self._children[label]
