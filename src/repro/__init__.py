"""repro — reproduction of *A Smart TCP Socket for Distributed Computing*
(Shao Tao, ICPP 2005 / NUS MSc thesis 2004).

The package is layered bottom-up:

* :mod:`repro.sim` — from-scratch discrete-event kernel (processes, events,
  stores, System V-style shared memory, seeded RNG streams);
* :mod:`repro.net` — packet-level network substrate: links with FIFO
  queueing, NICs with the thesis' MTU/init-speed effect, IP fragmentation,
  UDP/ICMP and a windowed go-back-N TCP, token-bucket shaping (*rshaper*);
* :mod:`repro.host` — machines: processor-sharing CPUs, Linux load
  averages, memory/disk accounting and a synthesized ``/proc``;
* :mod:`repro.lang` — the server-requirement meta-language (lexer, parser,
  evaluator; 22 server-side + 10 user-side variables, math builtins);
* :mod:`repro.core` — the Smart TCP socket library itself: server probes,
  system/network/security monitors, transmitter/receiver, the wizard and
  the client library, plus the random selection baseline;
* :mod:`repro.cluster` — the 11-machine thesis testbed, WAN path profiles
  and one-call deployment of all daemons;
* :mod:`repro.faults` — deterministic fault injection: seedable
  :class:`~repro.faults.FaultPlan` schedules (host crashes, partitions,
  link flaps, daemon kills, loss bursts) executed by a
  :class:`~repro.faults.ChaosController` against a live deployment;
* :mod:`repro.apps` — the evaluation workloads: distributed matrix
  multiplication and the ``massd`` massive downloader;
* :mod:`repro.bench` — runners that regenerate every table and figure of
  the thesis' evaluation.

Quickstart::

    from repro.cluster import build_testbed, Deployment

    cluster = build_testbed()
    dep = Deployment(cluster, wizard_host=cluster.host("dalmatian"))
    dep.add_group("lab", cluster.host("dalmatian"),
                  [cluster.host(n) for n in ("dione", "mimas", "lhost")])
    dep.start()

    def app():
        yield cluster.sim.timeout(dep.warm_up_seconds())
        client = dep.client_for(cluster.host("sagit"))
        conns = yield from client.smart_sockets(
            "host_cpu_free > 0.9\\nhost_memory_free > 5", n=2)
        # ... drive the returned sockets ...

    cluster.sim.process(app())
    cluster.run(until=30.0)
"""

__version__ = "1.0.0"

__all__ = [
    "sim",
    "net",
    "host",
    "lang",
    "core",
    "cluster",
    "faults",
    "apps",
    "bench",
    "__version__",
]
