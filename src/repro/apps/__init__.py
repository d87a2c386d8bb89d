"""Applications from the thesis' evaluation: matmul and massd, two sets
of blocks on the one block farm (:mod:`.farm`)."""

from .farm import AllSlotsDead, BlockService, Farm, FarmResult
from .massd import FileServer, MassdClient, MassdResult, shape_host_egress
from .matmul import (
    DOUBLE_BYTES,
    MatMulMaster,
    MatMulResult,
    MatMulWorker,
    block_grid,
    flops_for,
    local_multiply,
)

__all__ = [
    "AllSlotsDead",
    "Farm",
    "FarmResult",
    "BlockService",
    "MatMulWorker",
    "MatMulMaster",
    "MatMulResult",
    "local_multiply",
    "block_grid",
    "flops_for",
    "DOUBLE_BYTES",
    "FileServer",
    "MassdClient",
    "MassdResult",
    "shape_host_egress",
]
