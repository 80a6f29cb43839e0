"""Deterministic, counter-based random streams.

Every Monte Carlo consumer in this package draws from an ``RngStream``
identified by ``(master_seed, stream_index)``.  The pair keys a Philox
counter-based bit generator, so distinct pairs give statistically
independent streams and the same pair replays the identical sequence on
every run, no matter how replications are scheduled across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass
class RngStream:
    """A reproducible substream keyed by (master_seed, stream_index).

    The value identity is the key pair; the generator is created lazily and
    two streams built from the same pair produce bit-identical sequences.
    """

    master_seed: int
    stream_index: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            # a uint64 array: a plain list past 2**63 goes through float64
            key = np.array([self.master_seed & _MASK64, self.stream_index & _MASK64],
                           dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen
