"""Clean under suppression: every R-series rule silenced by its noqa."""


def fetch(conn):
    msg, _ = yield conn.recv()  # repro: noqa[REPRO301]
    return msg


def hijack(sim, event):
    def jump(ev):
        sim._now = 0.0  # repro: noqa[REPRO304]

    event.add_callback(jump)


def spawn(sim, job):
    sim.process(job)  # repro: noqa[REPRO305]
