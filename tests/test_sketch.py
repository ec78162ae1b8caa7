"""Tests for :mod:`repro.obs.sketch` — the streaming tail-latency layer.

The load-bearing guarantee is *determinism under distribution*: however
the observation stream is split across workers, batch groups, and merge
orders, the merged sketch must be byte-for-byte identical to the
single-stream fold, and its quantiles must respect the advertised
relative-error bound.  Hypothesis drives the partition/merge properties;
the end-to-end cases pin the engine-to-journal plumbing.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError, ConfigurationError
from repro.obs import (
    LatencyRecorder,
    LogHistogram,
    QuantileSketch,
    merge_sketches,
    merge_stream_sketches,
)

# latencies spanning the simulated range, zeros included
values_strategy = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-9, max_value=1e6, allow_nan=False),
    ),
    min_size=0,
    max_size=200,
)


def fold(values) -> QuantileSketch:
    sk = QuantileSketch()
    for v in values:
        sk.observe(v)
    return sk


class TestQuantileSketchBasics:
    def test_empty_sketch(self):
        sk = QuantileSketch()
        assert sk.count == 0
        assert sk.minimum is None and sk.maximum is None
        with pytest.raises(AnalysisError):
            sk.quantile(0.5)

    def test_single_observation_is_exact(self):
        sk = QuantileSketch()
        sk.observe(3.14159)
        for q in (0.0, 0.5, 1.0):
            assert sk.quantile(q) == 3.14159

    def test_rejects_bad_observations(self):
        sk = QuantileSketch()
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                sk.observe(bad)
            with pytest.raises(ConfigurationError):
                sk.observe_many([1.0, bad])

    def test_rejects_bad_alpha_and_quantile(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch(alpha=1.5)
        sk = fold([1.0])
        with pytest.raises(ConfigurationError):
            sk.quantile(1.5)

    def test_zeros_tracked_exactly(self):
        sk = fold([0.0] * 10 + [5.0])
        assert sk.count == 11
        assert sk.minimum == 0.0
        assert sk.quantile(0.5) == 0.0
        assert sk.quantile(1.0) == pytest.approx(5.0, rel=0.02)

    def test_serialization_round_trip(self):
        sk = fold([0.0, 0.5, 1.5, 100.0])
        again = QuantileSketch.from_dict(sk.to_dict())
        assert again == sk
        assert again.serialize() == sk.serialize()

    def test_picklable_across_workers(self):
        sk = fold([0.1, 0.2, 0.3])
        again = pickle.loads(pickle.dumps(sk))
        assert again.serialize() == sk.serialize()

    def test_merge_empty_iterable_raises(self):
        with pytest.raises(AnalysisError):
            merge_sketches([])


class TestSketchProperties:
    @given(values=values_strategy)
    @settings(max_examples=60, deadline=None)
    def test_vectorized_equals_scalar(self, values):
        scalar = fold(values)
        vector = QuantileSketch()
        vector.observe_many(values)
        assert vector.serialize() == scalar.serialize()

    @given(
        values=values_strategy,
        cuts=st.lists(st.integers(0, 200), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_invariance_byte_identical(self, values, cuts):
        """Any split of the stream into contiguous chunks merges back to
        the exact single-fold state."""
        bounds = sorted({min(c, len(values)) for c in cuts})
        chunks, prev = [], 0
        for b in bounds + [len(values)]:
            chunks.append(values[prev:b])
            prev = b
        merged = merge_sketches(fold(c) for c in chunks)
        assert merged.serialize() == fold(values).serialize()

    @given(
        a=values_strategy, b=values_strategy, c=values_strategy
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_associative_and_commutative(self, a, b, c):
        sa, sb, sc = fold(a), fold(b), fold(c)
        left = sa.merge(sb).merge(sc)
        right = sa.merge(sb.merge(sc))
        swapped = sc.merge(sa).merge(sb)
        assert left.serialize() == right.serialize() == swapped.serialize()
        # merge is pure: the inputs are untouched
        assert sa.serialize() == fold(a).serialize()

    @given(
        values=st.lists(
            st.floats(min_value=1e-9, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        q=st.sampled_from([0.0, 0.5, 0.9, 0.99, 0.999, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantile_relative_error_bound(self, values, q):
        sk = fold(values)
        exact = sorted(values)[max(0, math.ceil(q * len(values)) - 1)]
        estimate = sk.quantile(q)
        assert estimate == pytest.approx(exact, rel=sk.alpha * 1.001)

    @given(values=values_strategy)
    @settings(max_examples=60, deadline=None)
    def test_count_min_max_preserved(self, values):
        sk = QuantileSketch()
        sk.observe_many(values)
        assert sk.count == len(values)
        if values:
            assert sk.minimum == min(values)
            assert sk.maximum == max(values)


class TestLogHistogram:
    def test_cdf_and_bounds(self):
        h = LogHistogram(lo=1e-3, hi=1e3, bins_per_decade=5)
        h.observe_many([0.01, 0.1, 1.0, 10.0])
        h.observe(1e-6)  # underflow bucket
        h.observe(1e6)  # overflow bucket
        assert int(h.counts.sum()) == 6
        cdf = h.cdf()
        probs = [p for _, p in cdf]
        assert probs == sorted(probs)

    def test_empty_cdf_raises(self):
        with pytest.raises(AnalysisError):
            LogHistogram().cdf()

    def test_merge_matches_single_fold(self):
        a, b = LogHistogram(), LogHistogram()
        a.observe_many([0.1, 1.0])
        b.observe_many([10.0, 100.0])
        one = LogHistogram()
        one.observe_many([0.1, 1.0, 10.0, 100.0])
        assert a.merge(b).serialize() == one.serialize()

    def test_mismatched_parameters_refuse_merge(self):
        with pytest.raises(ConfigurationError):
            LogHistogram(bins_per_decade=5).merge(
                LogHistogram(bins_per_decade=10)
            )

    def test_serialization_round_trip(self):
        h = LogHistogram()
        h.observe_many([0.5, 5.0])
        assert LogHistogram.from_dict(h.to_dict()).serialize() == h.serialize()


class TestLatencyRecorder:
    def test_buffered_equals_direct(self):
        rec = LatencyRecorder()
        for v in (0.1, 0.2, 0.3):
            rec.observe("io_wait", v)
        rec.observe_many("io_wait", [0.4, 0.5])
        direct = QuantileSketch()
        direct.observe_many([0.1, 0.2, 0.3, 0.4, 0.5])
        assert rec.sketch("io_wait").serialize() == direct.serialize()

    def test_sketches_sorted_and_flushed(self):
        rec = LatencyRecorder()
        rec.observe("z_stream", 1.0)
        rec.observe("a_stream", 2.0)
        out = rec.sketches()
        assert list(out) == ["a_stream", "z_stream"]
        assert all(sk.count == 1 for sk in out.values())

    def test_merge_stream_sketches_union(self):
        r1, r2 = LatencyRecorder(), LatencyRecorder()
        r1.observe("io_wait", 0.1)
        r2.observe("io_wait", 0.2)
        r2.observe("comm_wait", 0.3)
        merged = merge_stream_sketches([r1.sketches(), r2.sketches()])
        assert list(merged) == ["comm_wait", "io_wait"]
        assert merged["io_wait"].count == 2


class TestEndToEndDeterminism:
    """Serial, worker-pool, and batched execution must hand the journal
    byte-identical sketch payloads, and journaling must not perturb the
    measured results."""

    def _spec(self):
        from repro.platforms.base import PlatformKind
        from repro.platforms.provisioning import instance_type
        from repro.run.experiment import ExperimentSpec
        from repro.sched.affinity import ProvisioningMode
        from repro.workloads.wordpress import WordPressWorkload

        return ExperimentSpec(
            workload=WordPressWorkload(),
            instances=[instance_type("Large")],
            platform_grid=[
                (PlatformKind.BM, ProvisioningMode.VANILLA),
                (PlatformKind.CN, ProvisioningMode.PINNED),
            ],
            reps=2,
            seed=7,
        )

    def _dist_payloads(self, **kwargs):
        import json

        from repro.obs import MemoryJournal
        from repro.run.experiment import run_experiment
        from repro.run.parallel import ParallelRunner

        jl = MemoryJournal()
        sweep = run_experiment(
            self._spec(), runner=ParallelRunner(journal=jl, **kwargs)
        )
        payloads = {
            (e.label, e.extra["platform"]): json.dumps(
                e.extra["streams"], sort_keys=True
            )
            for e in jl.events
            if e.kind == "cell-dist"
        }
        assert payloads, "no cell-dist events journaled"
        kinds = [e.kind for e in jl.events]
        # exactly one cell-dist per executed cell
        assert kinds.count("cell-dist") == kinds.count("cell-finished")
        assert kinds.count("cell-dist") == len(payloads)
        return sweep, payloads

    def test_serial_pool_batch_byte_identical(self):
        _, serial = self._dist_payloads()
        _, pooled = self._dist_payloads(jobs=2)
        _, batched = self._dist_payloads(batch=True)
        assert serial == pooled == batched

    def test_results_identical_with_recording_off(self):
        """The plain serial path (no journal, so no cell-dist events)
        returns the same runs, sketches included."""
        import json

        from repro.run.experiment import run_experiment

        on, _ = self._dist_payloads()
        off = run_experiment(self._spec())
        assert json.dumps(on.to_dict(), sort_keys=True) == json.dumps(
            off.to_dict(), sort_keys=True
        )

    def test_op_stream_has_expected_mass(self):
        _, payloads = self._dist_payloads()
        import json

        for (_, _platform), doc in payloads.items():
            streams = json.loads(doc)
            assert streams["op"]["total"] > 0  # WordPress records responses
            assert streams["cell"]["total"] == 2  # one makespan per rep

    def test_dist_results_carry_sketches(self):
        from repro.run.execution import run_cell
        from repro.hostmodel.topology import r830_host
        from repro.platforms.provisioning import instance_type
        from repro.platforms.registry import make_platform
        from repro.rng import RngFactory
        from repro.run.calibration import Calibration
        from repro.workloads.ffmpeg import FfmpegWorkload

        factory = RngFactory(seed=3)
        streams = [factory.stream_spec("t", rep=r) for r in range(2)]
        runs = run_cell(
            FfmpegWorkload(),
            make_platform("CN", instance_type("Large"), "pinned"),
            r830_host(),
            Calibration(),
            streams,
        )
        assert all(r.dist is not None for r in runs)
        assert all(r.dist["cell"].count == 1 for r in runs)
        assert [r.dist["cell"].quantile(0.5) for r in runs] == pytest.approx(
            [r.makespan for r in runs], rel=0.02
        )


class TestDistSvg:
    def test_render_cdf_svg(self):
        from repro.viz.dist import render_dist_svg

        sk = QuantileSketch()
        sk.observe_many(np.linspace(0.01, 2.0, 500))
        text = render_dist_svg(
            {"Vanilla BM": {"cell": sk}}, stream="cell", title="t"
        )
        assert text.startswith("<svg")
        assert "polyline" in text and "Vanilla BM" in text

    def test_missing_stream_raises(self):
        from repro.viz.dist import render_dist_svg

        with pytest.raises(AnalysisError):
            render_dist_svg({"Vanilla BM": {}}, stream="op")
