"""Deterministic, named random-number streams.

Every stochastic element of the simulation (cross traffic, probe jitter,
random server selection, rshaper's random bandwidth draws...) pulls from its
own named substream derived from a single root seed.  Two benefits:

* experiments are exactly reproducible given a seed, and
* adding a new consumer of randomness does not perturb the draws seen by
  existing consumers (streams are independent by name, not by call order).
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["RandomStreams"]


class RandomStreams:
    """Factory of independent :class:`random.Random` streams keyed by name."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name`` (created on first use)."""
        rng = self._streams.get(name)
        if rng is None:
            material = f"{self.seed}:{name}".encode()
            digest = hashlib.sha256(material).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng
