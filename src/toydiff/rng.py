"""Seeded, stream-addressable random number generation.

Every stochastic operation in the package takes an explicit RngState.
A state is addressed by a (seed, stream) pair of 64-bit integers and is
backed by the counter-based Philox generator, so distinct streams can be
consumed in parallel while identical (seed, stream) pairs always yield
identical draw sequences.  Standard normals come from numpy's ziggurat;
that choice is fixed and part of the determinism contract.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


class RngState:
    """One addressable random stream.

    Stateful: draws advance the stream.  Do not share a single instance
    across concurrent consumers; spawn one stream per worker instead.
    The number of standard-normal variates consumed is tracked in
    ``normal_draws`` so tests can assert draw budgets.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        key = self.seed | (self.stream << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self.normal_draws = 0

    def spawn(self, stream):
        """Fresh state with the same seed but a different stream id."""
        return RngState(self.seed, stream)

    def standard_normal(self, size=None):
        z = self._gen.standard_normal(size)
        self.normal_draws += 1 if size is None else z.size
        return z

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n, size=None, p=None):
        return self._gen.choice(n, size=size, p=p)
