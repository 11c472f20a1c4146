"""Metrics registry: typed metrics, rank binding, exact deterministic merge.

The merge property tests are the load-bearing ones: the registry promises
that merging per-rank registries is associative and order-independent
*bitwise* — floats included — because merged metrics carry the multiset of
their atomic contributions and collapse it with an exactly-rounded sum.
Plain pairwise float addition would fail these properties in the last ulp;
hypothesis hunts for exactly those cases.
"""

from __future__ import annotations

import functools
import json
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    STEP_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    current,
    merge,
    use,
)

# Adversarial float magnitudes: merging values spanning many decades is
# where naive summation loses associativity.
_values = st.floats(
    min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False
)
_value_lists = st.lists(_values, min_size=0, max_size=6)


def _counter_of(parts) -> Counter:
    c = Counter()
    for x in parts:
        c.inc(x)
    return c


def _histogram_of(parts) -> Histogram:
    h = Histogram()
    for x in parts:
        h.observe(x)
    return h


class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_value_lists, min_size=3, max_size=3))
    def test_counter_merge_is_associative_bitwise(self, groups):
        a, b, c = (_counter_of(g) for g in groups)
        left = a.merged_with(b).merged_with(c)
        right = a.merged_with(b.merged_with(c))
        assert left.value == right.value  # bitwise, not approx
        assert left.updates == right.updates

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_value_lists, min_size=3, max_size=3))
    def test_histogram_merge_is_associative_bitwise(self, groups):
        a, b, c = (_histogram_of(g) for g in groups)
        left = a.merged_with(b).merged_with(c)
        right = a.merged_with(b.merged_with(c))
        assert left.sum == right.sum
        assert left.counts == right.counts
        assert left.count == right.count
        assert left.min == right.min and left.max == right.max

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_value_lists, min_size=2, max_size=5), st.data())
    def test_registry_merge_is_rank_permutation_independent(self, per_rank, data):
        regs = []
        for r, obs in enumerate(per_rank):
            m = MetricsRegistry()
            for x in obs:
                m.count("halo.seconds", x, rank=r)
                m.observe("solver.step_seconds", x, rank=r)
                m.gauge("comm.max_message_bytes", x, rank=r)
            regs.append(m)
        base = merge(regs).snapshot()
        perm = data.draw(st.permutations(regs))
        assert merge(perm).snapshot() == base
        # snapshots are JSON-stable, so compare serialized bytes too
        assert json.dumps(merge(perm).snapshot(), sort_keys=True) == json.dumps(
            base, sort_keys=True
        )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_value_lists, min_size=4, max_size=4))
    def test_registry_merge_tree_shape_does_not_matter(self, per_rank):
        """Fold-left, fold-right and balanced pairwise trees agree bitwise
        — the DES ranks and virtual-cluster threads may merge in any
        order."""
        regs = []
        for r, obs in enumerate(per_rank):
            m = MetricsRegistry()
            for x in obs:
                m.count("c", x, rank=r)
                m.observe("h", x, rank=r)
            regs.append(m)
        a, b, c, d = regs
        fold_left = functools.reduce(lambda x, y: x.merged_with(y), regs)
        fold_right = a.merged_with(b.merged_with(c.merged_with(d)))
        balanced = a.merged_with(b).merged_with(c.merged_with(d))
        assert fold_left.snapshot() == fold_right.snapshot() == balanced.snapshot()

    def test_gauge_merge_is_max_and_nan_transparent(self):
        assert Gauge(2.0, 1).merged_with(Gauge(5.0, 1)).value == 5.0
        assert Gauge(5.0, 1).merged_with(Gauge(2.0, 1)).value == 5.0
        assert Gauge(float("nan")).merged_with(Gauge(3.0, 1)).value == 3.0
        assert math.isnan(Gauge(float("nan")).merged_with(Gauge(float("nan"))).value)

    def test_histogram_bound_mismatch_refuses_to_merge(self):
        with pytest.raises(ValueError, match="bucket bounds"):
            Histogram().merged_with(Histogram(bounds=(1.0, 2.0)))


class TestRegistrySemantics:
    def test_step_time_buckets_are_sorted_and_span_the_range(self):
        assert list(STEP_TIME_BUCKETS) == sorted(STEP_TIME_BUCKETS)
        assert STEP_TIME_BUCKETS[0] == pytest.approx(1e-7)
        assert STEP_TIME_BUCKETS[-1] == pytest.approx(1e3)

    def test_histogram_bucket_assignment(self):
        h = Histogram(bounds=(1.0, 10.0))
        for x in (0.5, 1.0, 5.0, 10.0, 11.0):
            h.observe(x)
        assert h.counts == [1, 2, 2]  # [<1, [1,10), >=10]
        assert h.count == 5 and h.min == 0.5 and h.max == 11.0

    def test_name_keeps_one_type(self):
        m = MetricsRegistry()
        m.count("x", 1.0, rank=0)
        with pytest.raises(TypeError, match="Counter"):
            m.observe("x", 1.0, rank=0)

    def test_bind_rank_is_per_thread(self):
        m = MetricsRegistry()
        m.bind_rank(3)
        m.count("c")
        seen = []

        def other():
            m.bind_rank(7)
            m.count("c")
            seen.append(True)

        th = threading.Thread(target=other)
        th.start()
        th.join()
        assert seen
        assert m.value("c", rank=3) == 1.0
        assert m.value("c", rank=7) == 1.0
        assert m.ranks() == [3, 7]

    def test_no_registry_by_default_and_use_routes_dotted_counts_to_it(self):
        assert current().metrics is None
        current().count("layer.outside")  # nobody listens: swallowed
        m, tr = MetricsRegistry(), Tracer()
        with use(metrics=m, tracer=tr):
            assert current().metrics is m
            current().count("layer.inside")
            current().count("layer.weighted", 2.5, rank=3)
            current().count("undotted", 4.0)  # no rule reads the spelling
        assert current().metrics is None
        assert m.names() == ["layer.inside", "layer.weighted", "undotted"]
        assert m.value("layer.inside", rank=0) == 1.0
        assert m.value("layer.weighted", rank=3) == 2.5
        assert not hasattr(tr, "count") and not hasattr(tr.trace, "counters")

    def test_snapshot_shape_is_json_stable(self):
        m = MetricsRegistry()
        m.count("c", 2.5, rank=1)
        m.observe("h", 0.02, rank=0)
        m.gauge("g", 9.0, rank=0)
        snap = m.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms", "bucket_bounds"}
        assert snap["counters"]["c"]["1"]["value"] == 2.5
        assert snap["histograms"]["h"]["0"]["count"] == 1
        assert snap["gauges"]["g"]["0"]["value"] == 9.0
        json.dumps(snap)  # must serialize

    def test_total_updates_counts_every_recording(self):
        m = MetricsRegistry()
        m.count("a", rank=0)
        m.count("a", rank=0)
        m.observe("b", 0.1, rank=1)
        m.gauge("g", 1.0, rank=0)
        assert m.total_updates == 4
