"""The block farm: the one algorithm both thesis applications run.

massd downloads "by using the same algorithm as the matrix multiplication
program" (thesis §5.3.2); it lives here once, and :mod:`.matmul` /
:mod:`.massd` keep only what differs.

* **client side** — :class:`Farm` drives one *slot* per server connection
  over a list of ``(block_id, ...)`` tasks.  A slot whose connection dies
  *checkpoints* by requeueing only the in-flight block
  (:meth:`Farm._checkpoint`); backed by a
  :class:`~repro.core.session.SmartSession` it then fails over to a
  replacement server, a plain connection retires and its work drains to
  the peers.  The run fails loudly (:class:`AllSlotsDead`) only when
  every slot died with blocks left undone, or it had none.
* **server side** — :class:`BlockService` answers one request tag, one
  block per request, on :meth:`repro.net.tcp.TcpLayer.serve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..cluster.host import SmartHost
from ..core.config import Ports
from ..net.tcp import ConnectionClosed
from ..sim import Interrupt

__all__ = ["AllSlotsDead", "Farm", "FarmResult", "BlockService"]


class AllSlotsDead(RuntimeError):
    """The farm's documented loud failure: it was given no server slot,
    or every slot died with blocks left undone."""


def _is_session(entry) -> bool:
    """Duck-typed check for :class:`~repro.core.session.SmartSession`
    (kept structural so the apps stay import-independent of core)."""
    return hasattr(entry, "failover")


def _addr_of(entry) -> str:
    return entry.addr if _is_session(entry) else entry.remote_addr


@dataclass(kw_only=True)
class FarmResult:
    """What every farmed run reports, whatever the blocks were."""

    servers: list[str]
    elapsed: float
    blocks_per_server: dict[str, int] = field(default_factory=dict)
    #: blocks requeued after a connection died mid-block (checkpoints)
    requeued_blocks: int = 0
    #: successful server replacements across all session slots
    failovers: int = 0


class Farm:
    """A client program that farms blocks out (runs on the client host)."""

    def __init__(self, host: SmartHost):
        self.host = host
        self.sim = host.sim

    def _checkpoint(self, tasks: list, task, stats: dict) -> None:
        """Requeue the in-flight block after its connection died — this
        *is* the whole checkpoint.  Kept as a hook so the chaos explorer
        can substitute a seeded-bug mutant (``repro explore --mutant``)
        and prove the fault-space search finds real checkpoint defects."""
        tasks.append(task)
        stats["requeued"] += 1

    def _farm(self, conns, tasks: list, request: Callable, accept: Callable,
              *, reply: str, slot_name: str):
        """Process generator: drive ``tasks`` (tuples led by a block id)
        over ``conns`` (established connections or
        :class:`~repro.core.session.SmartSession` objects) to completion
        -> the :class:`FarmResult` fields.  ``request(task)`` gives the
        ``(payload, nbytes)`` to send; the answer must be a ``reply``
        message for the same block, which ``accept(task, msg, nbytes)``
        takes in (raising on a bad one).
        """
        if not conns:
            raise AllSlotsDead("no server slots supplied")
        sim = self.sim
        tasks = tasks[::-1]  # pop() takes them in natural order
        done_counts: dict[str, int] = {_addr_of(c): 0 for c in conns}
        stats = {"requeued": 0, "failovers": 0}
        live = len(conns)
        t0 = sim.now
        finished = sim.event()

        def slot(entry):
            """One per-connection driver: send a block's request, await
            its reply, repeat."""
            nonlocal live
            session = entry if _is_session(entry) else None
            conn = session.conn if session is not None else entry
            try:
                while tasks:
                    task = tasks.pop()
                    try:
                        conn.send(*request(task))
                        msg, nbytes = yield conn.recv()
                    except ConnectionClosed:
                        # checkpoint: only the lost shard goes back
                        self._checkpoint(tasks, task, stats)
                        if session is None:
                            break  # plain socket: retire, peers absorb
                        conn = yield from session.failover()
                        if conn is None:
                            break  # slot lost for good
                        stats["failovers"] += 1
                        continue
                    if msg[0] != reply or msg[1] != task[0]:
                        raise RuntimeError(f"protocol violation: {msg[:2]}")
                    accept(task, msg, nbytes)
                    addr = conn.remote_addr
                    done_counts[addr] = done_counts.get(addr, 0) + 1
            except Interrupt:
                return  # cancelled; leave the tasks to the peers
            live -= 1
            if live == 0 and not finished.triggered:
                finished.succeed()

        slots = [
            sim.process(slot(entry), name=f"{slot_name}-{_addr_of(entry)}")
            for entry in conns
        ]
        yield finished
        assert all(s.triggered for s in slots), "a slot never finished"
        if tasks:
            raise AllSlotsDead(
                f"{len(tasks)} blocks undone: every server slot died")
        return {
            "servers": [_addr_of(c) for c in conns],
            "elapsed": sim.now - t0,
            "blocks_per_server": done_counts,
            "requeued_blocks": stats["requeued"],
            "failovers": stats["failovers"],
        }


#: the MSS of the block services' bulk TCP transfers
BULK_MSS = 8192


class BlockService:
    """A server program answering block requests on the service port."""

    def __init__(self, host: SmartHost, port: int = Ports.service,
                 mss: int = BULK_MSS):
        self.host = host
        self.port = port
        self.mss = mss
        self._service = None

    def serve(self, tag: str, block: Callable[..., Any], *, name: str,
              session_name: str) -> None:
        """Answer every ``tag`` request with ``block(*fields)`` — a
        process generator over the request's fields returning the reply's
        ``(payload, nbytes)``; other messages are ignored."""

        def session(conn):
            while True:
                msg, _ = yield conn.recv()
                if msg[0] != tag:
                    continue
                payload, nbytes = yield from block(*msg[1:])
                conn.send(payload, nbytes)

        self._service = self.host.stack.tcp.serve(
            self.port, session, name=f"{name}@{self.host.name}",
            session_name=f"{session_name}@{self.host.name}", mss=self.mss,
        )

    def stop(self) -> None:
        if self._service is not None:
            self._service.stop()
