"""``massd`` — the massive-download program (thesis §5.3.2).

Downloads one logical file from several servers at once "by using the same
algorithm as the matrix multiplication program": the data is cut into
fixed-size blocks, each connection fetches its next block as soon as the
previous one lands, so faster servers serve more blocks and aggregate
throughput is the performance metric.

The thesis drives it as ``massd (data, blk, bw)`` with sizes in KBytes and
the *rshaper*-imposed bandwidth in KB/s — :class:`MassdClient.run` mirrors
that parameterisation (we take sizes in KB too).

That algorithm is :mod:`.farm`'s; this module supplies the blocks: the
file's cut into sizes and one block's ``GET`` / ``BLOCK`` exchange.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.host import SmartHost
from ..net.shaper import TokenBucket
from .farm import BlockService, Farm, FarmResult

__all__ = ["FileServer", "MassdClient", "MassdResult", "shape_host_egress"]

KB = 1024


#: the rshaper bucket's depth, about one MTU frame
SHAPER_BURST_BYTES = 1600


def shape_host_egress(host: SmartHost, rate_mbps: float) -> TokenBucket:
    """Attach an rshaper-style token bucket to every egress channel of the
    host, capping its transmit bandwidth (thesis' *rshaper* role).

    The burst of ~one MTU frame matters twice: it is small enough
    that the network monitor's 1600/2900-byte probe pair *sees* the shaped
    rate (the second fragment has to wait for tokens), and it still lets
    sustained TCP converge on exactly ``rate_mbps``.
    """
    if rate_mbps <= 0:
        raise ValueError(f"rate must be positive, got {rate_mbps}")
    bucket = TokenBucket(rate_bps=rate_mbps * 1e6, burst_bytes=SHAPER_BURST_BYTES)
    for nic in host.node.nics:
        nic.channel.shaper = bucket
    return bucket


class FileServer(BlockService):
    """Serves ``GET`` block requests on the service port."""

    def start(self) -> None:
        self.serve("GET", self._read, name="massd-server", session_name="massd-sess")

    def _read(self, block_id, nbytes):
        """A block costs the server nothing but its send."""
        return ("BLOCK", block_id), nbytes
        yield  # unreachable: makes this the generator ``serve`` runs


@dataclass(kw_only=True)
class MassdResult(FarmResult):
    """Outcome of one download."""

    data_kb: int
    blk_kb: int

    @property
    def total_bytes(self) -> int:
        return self.data_kb * KB

    @property
    def throughput_kbps(self) -> float:
        """Average throughput in KB/s — the thesis' reported metric."""
        return self.total_bytes / KB / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def throughput_mbps(self) -> float:
        return self.total_bytes * 8 / 1e6 / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def total_blocks(self) -> int:
        n_blocks, rem = divmod(self.data_kb, self.blk_kb)
        return n_blocks + (1 if rem else 0)

    def fingerprint(self) -> str:
        """Canonical result digest for the chaos explorer's oracle: the
        download's block accounting (every block fetched exactly once),
        independent of which servers served it."""
        import hashlib

        done = sum(self.blocks_per_server.values())
        digest = hashlib.sha256(
            f"massd:{self.data_kb}:{self.blk_kb}:"
            f"blocks:{done}/{self.total_blocks}".encode()
        )
        return digest.hexdigest()[:16]


class MassdClient(Farm):
    """The downloader (runs on the client host)."""

    def run(self, conns, data_kb: int, blk_kb: int):
        """Process generator -> :class:`MassdResult`.

        ``conns`` are established TCP connections to file servers (from
        :meth:`~repro.core.client.SmartClient.smart_sockets` or manual
        connects for the random baseline) or
        :class:`~repro.core.session.SmartSession` slots.
        """
        if data_kb <= 0 or blk_kb <= 0:
            raise ValueError("data and block sizes must be positive")
        n_blocks, rem = divmod(data_kb, blk_kb)
        sizes = [blk_kb * KB] * n_blocks + ([rem * KB] if rem else [])

        def request(task):
            return ("GET", *task), 16

        def accept(task, _msg, got):
            block_id, nbytes = task
            if got != nbytes:
                raise RuntimeError(f"short block {block_id}: {got} != {nbytes}")

        farmed = yield from self._farm(
            conns, list(enumerate(sizes)), request, accept,
            reply="BLOCK", slot_name="massd-fetch")
        return MassdResult(data_kb=data_kb, blk_kb=blk_kb, **farmed)
