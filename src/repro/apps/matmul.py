"""Distributed square-matrix multiplication (thesis §5.3.1, Appendix C.1).

The program has the thesis' two modes:

* **local** — multiply two matrices on one machine (also usable with real
  NumPy data via :func:`local_multiply`, which tests use as ground truth);
* **distributed** — a master splits the result matrix into ``blk``-sized
  blocks; for each block it ships the corresponding row-stripe of A and
  column-stripe of B to a worker, which multiplies and returns the result
  block (Fig C.2's master/worker cooperation).  Dispatch is dynamic — a
  worker gets its next block when the previous result returns — so faster
  servers naturally take more blocks, exactly the property that makes
  server *selection* matter.

Cost model: multiplying an ``r×n`` stripe by an ``n×c`` stripe is
``2·r·c·n`` flops, executed on the worker's processor-sharing CPU at its
machine's ``matmul`` speed.  Transfers are real simulated TCP messages of
``8`` bytes per matrix entry, so communication overhead (which the thesis
blames for the shrinking 6v6 gain) emerges from the network model.

The dispatch loop itself — slots, the requeue-the-in-flight-block
checkpoint, session failover — is :mod:`.farm`'s, shared with massd; this
module supplies the blocks: the tiling, one block's ``TASK`` / ``RESULT``
exchange and the worker's multiply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..cluster.host import SmartHost
from ..core.config import Ports
from .farm import BULK_MSS, BlockService, Farm, FarmResult

if TYPE_CHECKING:  # pragma: no cover
    # imported where an array is built: a timing-only run never loads it
    import numpy as np

__all__ = [
    "MatMulWorker",
    "MatMulMaster",
    "MatMulResult",
    "local_multiply",
    "block_grid",
    "flops_for",
    "DOUBLE_BYTES",
]

DOUBLE_BYTES = 8


def flops_for(rows: int, cols: int, inner: int) -> float:
    """Multiply-add count of an ``rows×inner @ inner×cols`` product."""
    return 2.0 * rows * cols * inner


def block_grid(n: int, blk: int) -> list[tuple[int, int, int, int]]:
    """Result-matrix tiling: list of (row0, rows, col0, cols)."""
    if n <= 0 or blk <= 0:
        raise ValueError(f"need positive n and blk, got {n}, {blk}")
    edges = list(range(0, n, blk))
    out = []
    for r0 in edges:
        rows = min(blk, n - r0)
        for c0 in edges:
            cols = min(blk, n - c0)
            out.append((r0, rows, c0, cols))
    return out


def local_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain local mode (vector multiplication row-by-column)."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
    return a @ b


class MatMulWorker(BlockService):
    """The worker service: listens on the service port, multiplies stripes."""

    def __init__(self, host: SmartHost, port: int = Ports.service,
                 mss: int = BULK_MSS):
        super().__init__(host, port, mss)
        self.blocks_done = 0

    def start(self) -> None:
        self.serve("TASK", self._multiply, name="matmul-worker", session_name="matmul-sess")

    def _multiply(self, block_id, rows, cols, inner, a_stripe, b_stripe):
        yield self.host.machine.compute(
            flops_for(rows, cols, inner), kind="matmul",
            name=f"matmul-blk{block_id}",
        )
        if a_stripe is not None and b_stripe is not None:
            block = a_stripe @ b_stripe
        else:
            block = None
        self.blocks_done += 1
        return ("RESULT", block_id, block), max(1, rows * cols * DOUBLE_BYTES)


@dataclass(kw_only=True)
class MatMulResult(FarmResult):
    """Outcome of one distributed run."""

    n: int
    blk: int
    product: Optional[np.ndarray] = None

    @property
    def total_blocks(self) -> int:
        return len(block_grid(self.n, self.blk))

    def fingerprint(self) -> str:
        """Canonical result digest for the chaos explorer's bit-exactness
        oracle: with real matrices it hashes the product bytes (a lost or
        corrupted block changes it); without, the block-accounting totals.
        Two runs that computed the same answer — regardless of which
        servers did the work — share a fingerprint."""
        import hashlib

        digest = hashlib.sha256(f"matmul:{self.n}:{self.blk}:".encode())
        if self.product is not None:
            import numpy as np

            digest.update(np.ascontiguousarray(self.product).tobytes())
        else:
            done = sum(self.blocks_per_server.values())
            digest.update(f"blocks:{done}/{self.total_blocks}".encode())
        return digest.hexdigest()[:16]


class MatMulMaster(Farm):
    """The master program (runs on the client host).

    ``run(conns, n, blk)`` is a process generator: it drives the given
    worker connections (or :class:`~repro.core.session.SmartSession`
    slots) to completion and returns a :class:`MatMulResult`.
    Pass real matrices via ``a``/``b`` to verify numerics; omit them for a
    timing-only run (zero-copy symbolic payloads, same wire/CPU costs).
    """

    def run(self, conns, n: int, blk: int,
            a: Optional[np.ndarray] = None, b: Optional[np.ndarray] = None):
        if (a is None) != (b is None):
            raise ValueError("supply both matrices or neither")
        if a is not None and (a.shape != (n, n) or b.shape != (n, n)):
            raise ValueError(f"matrices must be {n}x{n}")
        product: Optional[np.ndarray] = None
        if a is not None:
            import numpy as np

            product = np.zeros((n, n), dtype=float)

        def request(task):
            block_id, (r0, rows, c0, cols) = task
            if a is not None:
                a_stripe = a[r0:r0 + rows, :]
                b_stripe = b[:, c0:c0 + cols]
            else:
                a_stripe = b_stripe = None
            return (("TASK", block_id, rows, cols, n, a_stripe, b_stripe),
                    (rows * n + n * cols) * DOUBLE_BYTES)

        def accept(task, msg, _nbytes):
            if product is not None:
                _, (r0, rows, c0, cols) = task
                product[r0:r0 + rows, c0:c0 + cols] = msg[2]

        farmed = yield from self._farm(
            conns, list(enumerate(block_grid(n, blk))), request, accept,
            reply="RESULT", slot_name="matmul-feed")
        return MatMulResult(n=n, blk=blk, product=product, **farmed)
