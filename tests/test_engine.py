"""The discrete-event engine: ordering, resources, determinism."""

import pytest

from repro.simulate.engine import Acquire, Delay, Engine, Release, Resource


class TestDelays:
    def test_time_advances(self):
        eng = Engine()
        log = []

        def proc():
            yield Delay(1.5)
            log.append(eng.now)
            yield Delay(0.5)
            log.append(eng.now)

        eng.add_process(proc())
        assert eng.run() == pytest.approx(2.0)
        assert log == [pytest.approx(1.5), pytest.approx(2.0)]

    def test_interleaving_order(self):
        eng = Engine()
        log = []

        def proc(name, d):
            yield Delay(d)
            log.append(name)

        eng.add_process(proc("b", 2.0))
        eng.add_process(proc("a", 1.0))
        eng.run()
        assert log == ["a", "b"]

    def test_tie_break_is_fifo(self):
        eng = Engine()
        log = []

        def proc(name):
            yield Delay(1.0)
            log.append(name)

        for n in "abc":
            eng.add_process(proc(n))
        eng.run()
        assert log == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        eng = Engine()

        def proc():
            yield Delay(-1.0)

        eng.add_process(proc())
        with pytest.raises(ValueError, match="negative delay"):
            eng.run()


class TestResources:
    def test_serializes_at_capacity_one(self):
        eng = Engine()
        res = Resource(1, "bus")
        spans = []

        def proc():
            yield Acquire(res)
            t0 = eng.now
            yield Delay(1.0)
            yield Release(res)
            spans.append((t0, eng.now))

        eng.add_process(proc())
        eng.add_process(proc())
        eng.run()
        # Second holder starts when the first releases.
        assert spans[0] == (pytest.approx(0.0), pytest.approx(1.0))
        assert spans[1] == (pytest.approx(1.0), pytest.approx(2.0))

    def test_capacity_two_runs_concurrently(self):
        eng = Engine()
        res = Resource(2)
        done = []

        def proc():
            yield Acquire(res)
            yield Delay(1.0)
            yield Release(res)
            done.append(eng.now)

        for _ in range(2):
            eng.add_process(proc())
        eng.run()
        assert done == [pytest.approx(1.0)] * 2

    def test_fifo_queueing(self):
        eng = Engine()
        res = Resource(1)
        order = []

        def proc(name, arrive):
            yield Delay(arrive)
            yield Acquire(res)
            order.append(name)
            yield Delay(1.0)
            yield Release(res)

        eng.add_process(proc("first", 0.0))
        eng.add_process(proc("second", 0.1))
        eng.add_process(proc("third", 0.2))
        eng.run()
        assert order == ["first", "second", "third"]

    def test_release_idle_raises(self):
        eng = Engine()
        res = Resource(1)

        def proc():
            yield Release(res)

        eng.add_process(proc())
        with pytest.raises(RuntimeError, match="idle resource"):
            eng.run()


class TestSpawnAndErrors:
    def test_stall_detection(self):
        eng = Engine()
        res = Resource(1)

        def holder():
            yield Acquire(res)  # never released

        def stuck():
            yield Acquire(res)

        eng.add_process(holder())
        eng.add_process(stuck())
        with pytest.raises(RuntimeError, match="stalled"):
            eng.run()

    def test_unknown_command(self):
        eng = Engine()

        def bad():
            yield "nonsense"

        eng.add_process(bad())
        with pytest.raises(TypeError, match="unknown simulation command"):
            eng.run()

    def test_determinism(self):
        """Identical programs give identical end times and event counts."""

        def build():
            eng = Engine()
            res = Resource(1)
            for k in range(5):

                def proc(k=k):
                    yield Delay(0.1 * k)
                    yield Acquire(res)
                    yield Delay(0.37)
                    yield Release(res)

                eng.add_process(proc())
            return eng

        a, b = build(), build()
        assert a.run() == b.run()
        assert a.steps == b.steps


class TestEngineProperties:
    def test_random_programs_deterministic(self):
        """Any random (but fixed-seed) program replays identically."""
        import random

        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(seed=st.integers(0, 10_000))
        @settings(max_examples=25, deadline=None)
        def check(seed):
            def build():
                rng = random.Random(seed)
                eng = Engine()
                res = [Resource(rng.randint(1, 3)) for _ in range(3)]

                def proc(k):
                    r = res[k % 3]
                    yield Delay(0.01 * (k % 5))
                    yield Acquire(r)
                    yield Delay(0.1)
                    yield Release(r)

                for k in range(6):
                    eng.add_process(proc(k))
                return eng

            a, b = build(), build()
            assert a.run() == b.run()
            assert a.steps == b.steps

        check()

    def test_resource_conservation_under_random_load(self):
        """in_use returns to zero when all processes finish."""
        import random

        rng = random.Random(42)
        eng = Engine()
        res = Resource(2, "shared")

        def proc():
            yield Delay(rng.random())
            yield Acquire(res)
            yield Delay(rng.random())
            yield Release(res)

        for _ in range(20):
            eng.add_process(proc())
        eng.run()
        assert res.in_use == 0
