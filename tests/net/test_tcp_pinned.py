"""TCP sender timing pinned as literals.

Every expected value below was captured by running this file
(``PYTHONPATH=src python tests/net/test_tcp_pinned.py``) at the commit
*before* the ``tcp-send-N`` generator process was replaced by a wake
call plus one lazily re-armed retransmission timer.  Seeded lossy,
reordering, shaped tail-drop, RST, ``abort()`` and ``close()`` with data
in flight: per-message delivery times, the timestamps at which segments
were re-originated, ``retransmit_count``, final ``rto`` and
``bytes_acked`` must all come out equal to the last float digit.

The case that matters most is ``backoff_then_fresh_sample``: ``rto``
doubles several times, a fresh RTT sample then shrinks it while the
backed-off timer is still armed, and the next loss must be repaired at
the *short* deadline.  A timer that is only ever pushed later gets this
wrong and nothing else in tier-1 used to notice.

One literal is younger: ``table_5_7_random1``'s *smart* arm was captured
again when the push loops stopped re-shipping databases that had not
moved, again when a snapshot's three ``[type, size]`` headers became
one, and a third time when that header came to list only the databases
whose bodies follow (an answer in which nothing moved is one 8-byte
header) — each time fewer status bytes share the client's link with the
download.  Its random arm and the seven TCP scenarios are as first
captured.
"""

from __future__ import annotations

import random

import pytest

from repro.net import MBPS, ConnectionClosed, Network, NetworkStack, TokenBucket
from repro.sim import Simulator
from repro.worlds import run_smoke


class _World:
    """Two hosts, one link, and what the sender side was seen doing."""

    def __init__(self, rate_bps=100 * MBPS, delay=100e-6, **link_kw):
        self.sim = Simulator()
        net = Network(self.sim)
        a, b = net.add_host("a"), net.add_host("b")
        self.link = net.connect(a, b, rate_bps=rate_bps, delay=delay, **link_kw)
        net.build_routes()
        self.sa = NetworkStack(self.sim, a, net)
        self.sb = NetworkStack(self.sim, b, net)
        self.delivered: list[tuple[str, int, str]] = []
        #: (time, first seq, segments) per burst of re-originated segments
        self.retransmitted_at: list[tuple[str, int, int]] = []
        self.notes: dict[str, object] = {}
        self.client_conn = None
        seen: set[int] = set()
        originate = a.send

        def recording_send(dgram):
            if dgram.payload[0] == "SEG":
                seq = dgram.payload[1]
                if seq in seen:
                    now, bursts = repr(self.sim.now), self.retransmitted_at
                    if bursts and bursts[-1][0] == now:
                        bursts[-1] = (now, bursts[-1][1], bursts[-1][2] + 1)
                    else:
                        bursts.append((now, seq, 1))
                seen.add(seq)
            return originate(dgram)

        a.send = recording_send

    def serve(self, port=80, **listen_kw):
        lsn = self.sb.tcp.listen(port, **listen_kw)

        def server():
            conn = yield lsn.accept()
            self.notes["server_conn"] = conn
            try:
                while True:
                    msg, n = yield conn.recv()
                    self.delivered.append((msg, n, repr(self.sim.now)))
            except ConnectionClosed:
                self.notes["server_eof_at"] = repr(self.sim.now)

        self.sim.process(server())

    def observed(self) -> dict:
        conn = self.client_conn
        out = {
            "delivered": self.delivered,
            "retransmitted_at": self.retransmitted_at,
            "retransmit_count": conn.retransmit_count,
            "rto": repr(conn.rto),
            "bytes_acked": conn.bytes_acked,
            "bytes_sent": conn.bytes_sent,
        }
        out.update({k: v for k, v in self.notes.items() if k != "server_conn"})
        return out


def lossy():
    w = _World()
    for ch, seed in ((w.link.ab, 11), (w.link.ba, 12)):
        ch.loss_rate = 0.02
        ch.loss_rng = random.Random(seed)
    w.serve()

    def client():
        conn = w.client_conn = yield from w.sa.tcp.connect("b", 80, timeout=30.0)
        conn.send("one", 20_000)
        conn.send("two", 5_000)
        yield w.sim.timeout(0.5)
        conn.send("three", 150_000)

    w.sim.process(client())
    w.sim.run(until=600.0)
    return w.observed()


def reordering():
    w = _World(rate_bps=10 * MBPS, delay=2e-3)
    w.link.ab.reorder_rate = 0.01
    w.link.ab.reorder_extra = 0.004
    w.link.ab.jitter = 1e-4
    w.link.ab.degrade_rng = random.Random(5)
    w.serve()

    def client():
        conn = w.client_conn = yield from w.sa.tcp.connect("b", 80)
        conn.send("bulk", 400_000)
        conn.send("tail", 3_000)

    w.sim.process(client())
    w.sim.run(until=600.0)
    return w.observed()


def shaped_tail_drop():
    # the full window overshoots the buffer, so every flight loses its tail
    w = _World(rate_bps=2 * MBPS, delay=1e-3, buffer_bytes=60_000)
    w.link.ab.shaper = TokenBucket(1.6 * MBPS, burst_bytes=8_000)
    w.serve(mss=4096)

    def client():
        conn = w.client_conn = yield from w.sa.tcp.connect("b", 80, mss=4096)
        for i in range(4):
            conn.send(f"blk{i}", 100_000)

    w.sim.process(client())
    w.sim.run(until=600.0)
    return w.observed()


def peer_reset():
    w = _World(rate_bps=2 * MBPS, delay=5e-3)
    w.serve()

    def client():
        conn = w.client_conn = yield from w.sa.tcp.connect("b", 80)
        conn.send("first", 30_000)
        conn.send("never", 300_000)
        yield w.sim.timeout(0.4)
        # the server host "crashes" mid-transfer: its next inbound
        # segment is answered with RST
        w.notes["server_conn"].abort()
        yield w.sim.timeout(5.0)
        w.notes["reset"] = conn.reset
        w.notes["in_flight"] = conn.in_flight
        try:
            conn.send("late", 10)
        except ConnectionClosed as exc:
            w.notes["send_after_reset"] = str(exc)

    w.sim.process(client())
    w.sim.run(until=60.0)
    return w.observed()


def local_abort():
    w = _World(rate_bps=2 * MBPS, delay=5e-3)
    w.serve()

    def client():
        conn = w.client_conn = yield from w.sa.tcp.connect("b", 80)
        conn.send("first", 30_000)
        conn.send("cut", 300_000)
        yield w.sim.timeout(0.4)
        conn.abort()
        w.notes["aborted_at"] = repr(w.sim.now)
        w.notes["in_flight"] = conn.in_flight

    w.sim.process(client())
    w.sim.run(until=60.0)
    w.notes["server_reset"] = w.notes["server_conn"].reset
    return w.observed()


def close_with_data_in_flight():
    w = _World(rate_bps=5 * MBPS, delay=3e-3)
    w.link.ab.loss_rate = 0.015
    w.link.ab.loss_rng = random.Random(21)
    w.serve()

    def client():
        conn = w.client_conn = yield from w.sa.tcp.connect("b", 80)
        conn.send("alpha", 120_000)
        conn.send("omega", 80_000)
        conn.close()
        w.notes["in_flight_at_close"] = conn.in_flight

    w.sim.process(client())
    w.sim.run(until=600.0)
    w.notes["peer_closed"] = w.notes["server_conn"].peer_closed
    return w.observed()


def backoff_then_fresh_sample():
    w = _World(rate_bps=10 * MBPS, delay=1e-3)
    w.serve()
    ab = w.link.ab
    ab.loss_rng = random.Random(0)

    def client():
        conn = w.client_conn = yield from w.sa.tcp.connect("b", 80)
        w.notes["rto_after_connect"] = repr(conn.rto)
        ab.loss_rate = 1.0               # forward path dead: rto doubles
        conn.send("doomed", 1_000)
        yield w.sim.timeout(1.0)
        w.notes["rto_backed_off"] = repr(conn.rto)
        w.notes["retransmits_while_dead"] = conn.retransmit_count
        ab.loss_rate = 0.0               # heal: the next timeout delivers
        while conn.in_flight:
            yield w.sim.timeout(0.01)
        w.notes["healed_at"] = repr(w.sim.now)
        # fresh, never-retransmitted data: its acks carry RTT samples
        # that shrink rto while the backed-off timer is still armed
        conn.send("fresh", 200_000)
        yield w.sim.timeout(0.05)
        w.notes["rto_after_sample"] = repr(conn.rto)
        ab.loss_rate = 1.0               # a 3 ms hole in the stream
        yield w.sim.timeout(0.003)
        ab.loss_rate = 0.0

    w.sim.process(client())
    w.sim.run(until=60.0)
    return w.observed()


def table_5_7_random1():
    arms = run_smoke("massd")   # Table 5.7, 2000 KB
    return {a.label: {"servers": a.servers, "elapsed": repr(a.elapsed)}
            for a in arms}


SCENARIOS = (lossy, reordering, shaped_tail_drop, peer_reset, local_abort,
             close_with_data_in_flight, backoff_then_fresh_sample,
             table_5_7_random1)

PINNED: dict[str, dict] = {'lossy': {'bytes_acked': 175000,
           'bytes_sent': 284120,
           'delivered': [('one', 20000, '0.0024568000000000003'), ('two', 5000, '0.0028696'),
                         ('three', 150000, '0.6145336000000011')],
           'retransmit_count': 75,
           'retransmitted_at': [('0.5510480000000001', 26460, 45),
                                ('0.6103840000000008', 131580, 30)],
           'rto': '0.1'},
 'reordering': {'bytes_acked': 403000,
                'bytes_sent': 550500,
                'delivered': [('bulk', 400000, '0.5548630504311464'),
                              ('tail', 3000, '0.5573468018707464')],
                'retransmit_count': 102,
                'retransmitted_at': [('0.22247341322429118', 176660, 45),
                                     ('0.3605240015774629', 255500, 45),
                                     ('0.5415966626586804', 386900, 12)],
                'rto': '0.12901704021519414'},
 'shaped_tail_drop': {'bytes_acked': 400000,
                      'bytes_sent': 820480,
                      'delivered': [('blk0', 100000, '1.0458412290764387'),
                                    ('blk1', 100000, '4.972756603535073'),
                                    ('blk2', 100000, '19.26943938136961'),
                                    ('blk3', 100000, '75.04760777270776')],
                      'retransmit_count': 105,
                      'retransmitted_at': [('0.830096909076439', 53248, 17),
                                           ('2.2427264072293163', 108192, 16),
                                           ('4.798772283535072', 161440, 17),
                                           ('9.667990916146586', 216384, 16),
                                           ('19.13721506136961', 269632, 17),
                                           ('37.832790231815665', 324576, 16),
                                           ('74.95472745270774', 377824, 6)],
                      'rto': '60.0'},
 'peer_reset': {'bytes_acked': 95700,
                'bytes_sent': 161400,
                'delivered': [('first', 30000, '0.13918560000000005')],
                'in_flight': 65700,
                'reset': True,
                'retransmit_count': 0,
                'retransmitted_at': [],
                'rto': '0.28827700226123887',
                'send_after_reset': 'connection reset',
                'server_eof_at': '0.41034560000000003'},
 'local_abort': {'aborted_at': '0.41034560000000003',
                 'bytes_acked': 94240,
                 'bytes_sent': 159940,
                 'delivered': [('first', 30000, '0.13918560000000005')],
                 'in_flight': 65700,
                 'retransmit_count': 0,
                 'retransmitted_at': [],
                 'rto': '0.29037250591679464',
                 'server_eof_at': '0.6733456000000005',
                 'server_reset': True},
 'close_with_data_in_flight': {'bytes_acked': 200001,
                               'bytes_sent': 331401,
                               'delivered': [('alpha', 120000, '0.312545600000001'),
                                             ('omega', 80000, '0.5681338189384357')],
                               'in_flight_at_close': 0,
                               'peer_closed': True,
                               'retransmit_count': 90,
                               'retransmitted_at': [('0.08490428266067507', 11680, 45),
                                                    ('0.43553381893843646', 121460, 45)],
                               'rto': '0.11746672285684834',
                               'server_eof_at': '0.5681994189384357'},
 'backoff_then_fresh_sample': {'bytes_acked': 201000,
                               'bytes_sent': 271700,
                               'delivered': [('doomed', 1000, '1.5542543999999998'),
                                             ('fresh', 200000, '1.7944463455836375')],
                               'healed_at': '1.5620896000000004',
                               'retransmit_count': 50,
                               'retransmits_while_dead': 4,
                               'retransmitted_at': [('0.0520896', 0, 1), ('0.1520896', 0, 1),
                                                    ('0.3520896', 0, 1), ('0.7520896', 0, 1),
                                                    ('1.5520896', 0, 1),
                                                    ('1.7293823455836328', 123640, 45)],
                               'rto': '0.0639869858167453',
                               'rto_after_connect': '0.05',
                               'rto_after_sample': '0.07901999380262015',
                               'rto_backed_off': '0.8'},
 'table_5_7_random1': {'random1': {'elapsed': '13.287580279699288', 'servers': ['pandora-x']},
                       'smart': {'elapsed': '2.5491188761906116', 'servers': ['mimas']}}}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_sender_timing_is_pinned(scenario):
    assert scenario() == PINNED[scenario.__name__]


def test_backoff_case_exercises_the_early_rearm():
    seen = PINNED["backoff_then_fresh_sample"]
    after_connect = float(seen["rto_after_connect"])
    assert float(seen["rto_backed_off"]) >= 4 * after_connect   # >= 2 doublings
    assert float(seen["rto_after_sample"]) < float(seen["rto_backed_off"]) / 4
    # the hole is repaired within the fresh rto, long before the
    # backed-off deadline that was armed when the stream resumed
    healed = float(seen["healed_at"])
    repairs = [float(t) for t, _, _ in seen["retransmitted_at"] if float(t) > healed]
    assert repairs and repairs[0] - healed < float(seen["rto_backed_off"]) / 2


def test_table_5_7_random1_arm():
    assert PINNED["table_5_7_random1"]["random1"]["elapsed"] == "13.287580279699288"


if __name__ == "__main__":
    import pprint

    pprint.pprint({s.__name__: s() for s in SCENARIOS}, width=96, compact=True)
