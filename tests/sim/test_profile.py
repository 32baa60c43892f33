"""DES self-profiler: attribution, report schema, non-perturbation."""

import pytest

from repro.common.errors import ConfigError
from repro.sim.engine import Simulator
from repro.sim.profile import SimProfiler, _category_of_code
from repro.telemetry import Telemetry


class FakeClock:
    """Deterministic perf_counter: each reading advances by ``tick``."""

    def __init__(self, tick=0.001):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now


def _profiled_sim(tick=0.001):
    profiler = SimProfiler(clock=FakeClock(tick))
    sim = Simulator(telemetry=Telemetry(profiler=profiler))
    return sim, profiler


def module_handler(_event):
    pass


def module_handler_noargs():
    pass


def module_flow(sim):
    yield sim.timeout(1.0)
    yield sim.timeout(1.0)


class TestAttribution:
    def test_callbacks_charged_by_qualname(self):
        sim, profiler = _profiled_sim()
        sim.timeout(1.0).callbacks.append(module_handler)
        sim.timeout(2.0).callbacks.append(module_handler)
        sim.run()
        report = profiler.report()
        [entry] = [
            c for c in report["categories"]
            if "module_handler" in c["category"]
        ]
        assert entry["events"] == 2
        assert entry["wall_seconds"] > 0

    def test_call_at_closures_charge_the_scheduled_fn(self):
        # call_at wraps the user fn in an adapter lambda but exposes it via
        # __wrapped__, so events attribute to the scheduling component
        # rather than the engine trampoline.
        sim, profiler = _profiled_sim()
        sim.call_at(1.0, module_handler_noargs)
        sim.call_at(2.0, module_handler_noargs)
        sim.run()
        [entry] = profiler.report()["categories"]
        assert "module_handler_noargs" in entry["category"]
        assert "call_at" not in entry["category"]
        assert entry["events"] == 2

    def test_call_at_with_arguments_charges_the_target(self):
        sim, profiler = _profiled_sim()
        sim.call_at(1.0, module_handler, "an argument")
        sim.run()
        [entry] = profiler.report()["categories"]
        assert entry["category"].endswith("test_profile:module_handler")

    def test_poll_ticks_charge_the_predicate_owner(self):
        # One profiled dispatch per tick, charged to the code that armed the
        # poll; the waiter resumed by the last tick runs inside that tick.
        sim, profiler = _profiled_sim()
        flag = []
        resumed = []
        sim.call_at(2.5, flag.append, True)
        sim.poll_until(lambda: bool(flag), 1.0).callbacks.append(resumed.append)
        sim.run()
        assert len(resumed) == 1
        by_name = {c["category"]: c["events"] for c in profiler.report()["categories"]}
        [poll] = [n for n in by_name if "test_poll_ticks_charge" in n]
        assert by_name[poll] == 3
        assert not any("PollTimer" in n or "engine" in n for n in by_name)
        assert profiler.events == 4  # three ticks and the call_at

    def test_process_charged_to_generator_not_trampoline(self):
        sim, profiler = _profiled_sim()
        sim.run(sim.process(module_flow(sim)))
        names = [c["category"] for c in profiler.report()["categories"]]
        assert any("module_flow" in n for n in names), names
        assert not any("_resume" in n for n in names), names

    def test_locals_closure_noise_collapsed(self):
        # A closure's qualname carries ".<locals>." noise; attribution
        # collapses it to the defining function.
        def outer():
            return lambda: None

        category = _category_of_code(outer().__code__)
        assert category.endswith("test_locals_closure_noise_collapsed")
        assert "<locals>" not in category

    def test_repro_modules_get_dotted_names(self):
        from repro.sim import engine

        code = engine.Simulator.call_at.__code__
        assert _category_of_code(code) == "repro.sim.engine:Simulator.call_at"

    def test_exceptions_still_charged(self):
        sim, profiler = _profiled_sim()

        def boom():
            raise RuntimeError("x")

        sim.call_at(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert profiler.events == 1


class TestReport:
    def test_schema_and_accounting(self):
        sim, profiler = _profiled_sim(tick=0.5)
        for i in range(4):
            sim.call_at(float(i + 1), lambda: None)
        sim.run()
        report = profiler.report(wall_seconds=10.0)
        assert report["events"] == 4
        assert report["sim_seconds"] == pytest.approx(4.0)
        assert report["wall_seconds"] == 10.0
        assert report["handler_seconds"] == pytest.approx(
            sum(c["wall_seconds"] for c in report["categories"])
        )
        assert report["engine_overhead_seconds"] == pytest.approx(
            10.0 - report["handler_seconds"]
        )
        assert report["events_per_second"] == pytest.approx(0.4)
        assert report["wall_per_sim_second"] == pytest.approx(2.5)
        shares = [c["share"] for c in report["categories"]]
        assert sum(shares) == pytest.approx(1.0)
        # Sorted hottest-first.
        assert shares == sorted(shares, reverse=True)

    def test_negative_wall_rejected(self):
        _, profiler = _profiled_sim()
        with pytest.raises(ConfigError):
            profiler.report(wall_seconds=-1.0)

    def test_empty_profiler_report(self):
        profiler = SimProfiler()
        report = profiler.report()
        assert report["events"] == 0
        assert report["events_per_second"] == 0.0
        assert report["categories"] == []

    def test_table_renders_hotspots(self):
        sim, profiler = _profiled_sim()
        sim.call_at(1.0, lambda: None)
        sim.run()
        out = profiler.table().render()
        assert "DES self-profile" in out
        assert "share" in out


class TestNonPerturbation:
    def test_profiled_run_is_byte_identical(self):
        import io

        from repro.telemetry import JsonlSink
        from repro.telemetry.demo import run_demo

        def run(profiler):
            buf = io.StringIO()
            telemetry = Telemetry(
                trace=True, trace_sinks=[JsonlSink(buf)], profiler=profiler
            )
            result = run_demo(
                protocol="sr", messages=2, message_bytes=1 << 20,
                drop=0.02, seed=7, telemetry=telemetry,
            )
            return result, buf.getvalue()

        profiler = SimProfiler()
        result_p, trace_p = run(profiler)
        result_n, trace_n = run(None)
        assert profiler.events > 0
        assert trace_p == trace_n
        assert (
            result_p.telemetry.metrics.snapshot()
            == result_n.telemetry.metrics.snapshot()
        )

    def test_rebind_resets_state(self):
        sim, profiler = _profiled_sim()
        sim.call_at(1.0, lambda: None)
        sim.run()
        assert profiler.events == 1
        Simulator(telemetry=Telemetry(profiler=profiler))
        assert profiler.events == 0
        assert profiler.report()["categories"] == []
