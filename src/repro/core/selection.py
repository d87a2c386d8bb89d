"""The paper's baseline server selection.

The evaluation chapters compare the Smart library against *random* server
selection ("In the conventional socket library, users have to randomly
select servers", §5.3.2); the smart path is the wizard, reached through
:class:`~repro.core.client.SmartClient`.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from ..sim import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import random

__all__ = ["RandomSelector"]


class RandomSelector:
    """Uniform random choice without replacement (the paper's comparator)."""

    def __init__(self, pool: Sequence[str], rng: Optional["random.Random"] = None):
        if not pool:
            raise ValueError("empty server pool")
        self.pool = list(pool)
        self.rng = rng or RandomStreams(42).stream("random-selector")

    def select(self, n: int) -> list[str]:
        if n > len(self.pool):
            raise ValueError(f"asked for {n} servers from a pool of {len(self.pool)}")
        return self.rng.sample(self.pool, n)

