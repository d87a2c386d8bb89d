"""Tests for the synthesized /proc and the SuperPI-style workload."""

from __future__ import annotations

import pytest

from repro.host import Machine, ProcFS, SuperPiWorkload


@pytest.fixture
def machine(sim):
    return Machine(sim, "box", bogomips=3394.76, mem_bytes=256 << 20)


@pytest.fixture
def procfs(machine):
    return ProcFS(machine)


class TestProcFiles:
    def test_loadavg_format(self, procfs):
        parts = procfs.read("/proc/loadavg").split()
        assert len(parts) == 5
        float(parts[0]), float(parts[1]), float(parts[2])
        assert "/" in parts[3]

    def test_stat_has_cpu_and_disk_lines(self, procfs):
        text = procfs.read("/proc/stat")
        assert text.startswith("cpu  ")
        assert "disk_io:" in text

    def test_meminfo_has_24_style_byte_table(self, procfs):
        text = procfs.read("/proc/meminfo")
        assert "Mem:" in text
        mem_line = [l for l in text.splitlines() if l.startswith("Mem:")][0]
        total, used, free = (int(x) for x in mem_line.split()[1:4])
        assert total == 256 << 20
        assert used + free == total

    def test_cpuinfo_carries_bogomips(self, procfs):
        assert "bogomips\t: 3394.76" in procfs.read("/proc/cpuinfo")

    def test_net_dev_lists_lo_even_without_nics(self, procfs):
        assert "lo:" in procfs.read("/proc/net/dev")

    def test_unknown_path_raises(self, procfs):
        with pytest.raises(FileNotFoundError):
            procfs.read("/proc/does-not-exist")


class TestMachine:
    def test_speed_falls_back_to_generic(self, sim):
        m = Machine(sim, "m", bogomips=1000, mem_bytes=1 << 20,
                    speeds={"matmul": 5e6})
        assert m.speed("matmul") == 5e6
        assert m.speed("unknown-kind") == 1000

    def test_compute_duration_scales_with_speed(self, sim):
        m = Machine(sim, "m", bogomips=1000, mem_bytes=1 << 20,
                    speeds={"matmul": 2e6})
        done = {}

        def p():
            yield m.compute(4e6, kind="matmul")
            done["t"] = sim.now

        sim.process(p())
        sim.run()
        assert done["t"] == pytest.approx(2.0)

    def test_invalid_params_rejected(self, sim):
        with pytest.raises(ValueError):
            Machine(sim, "m", bogomips=0, mem_bytes=1 << 20)
        m = Machine(sim, "m", bogomips=1, mem_bytes=1 << 20)
        with pytest.raises(ValueError):
            m.compute(-1)


class TestSuperPiWorkload:
    def test_occupies_memory_and_cpu(self, sim, machine):
        w = SuperPiWorkload(sim, machine)
        free_before = machine.memory.snapshot()["free"]
        w.start()
        sim.run(until=120.0)
        assert machine.memory.snapshot()["free"] < free_before
        assert machine.cpu.loadavg.read()[0] > 0.8
        # thesis: parameter 25 occupies ~150 MB
        assert w.mem_bytes == pytest.approx(150 << 20, rel=0.01)

    def test_stop_releases_memory_and_cpu(self, sim, machine):
        w = SuperPiWorkload(sim, machine)
        free_before = machine.memory.snapshot()["free"]
        w.start()
        sim.run(until=10.0)
        w.stop()
        sim.run(until=11.0)
        assert machine.memory.snapshot()["free"] == free_before
        assert machine.cpu.n_running == 0
        assert not w.running

    def test_double_start_rejected(self, sim, machine):
        w = SuperPiWorkload(sim, machine)
        w.start()
        with pytest.raises(RuntimeError):
            w.start()

    def test_slows_competing_compute(self, sim, machine):
        w = SuperPiWorkload(sim, machine)
        times = {}

        def measured(tag):
            t0 = sim.now
            yield machine.compute(machine.bogomips * 2)  # 2 dedicated seconds
            times[tag] = sim.now - t0

        def scenario():
            yield from measured("alone")
            w.start()
            yield from measured("contended")
            w.stop()

        sim.process(scenario())
        sim.run(until=100)
        assert times["contended"] == pytest.approx(2 * times["alone"], rel=0.05)
