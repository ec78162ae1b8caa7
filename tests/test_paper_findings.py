"""Integration tests: the paper's findings, asserted on full experiments.

Each test corresponds to a numbered observation in the paper (Figs. 3-8,
Sections III-IV, and the Section-VI summary).  Experiments run at one
repetition — the harness pairs workload realizations across platforms, so
ratio assertions are stable.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CassandraWorkload,
    FfmpegWorkload,
    MpiSearchWorkload,
    WordPressWorkload,
    instance_type,
    make_platform,
    r830_host,
    run_once,
    run_platform_sweep,
)
from repro.analysis.chr import estimate_suitable_chr_range
from repro.analysis.overhead import (
    OverheadClass,
    classify_overhead,
    overhead_ratios,
)
from repro.hostmodel.topology import small_host
from repro.platforms.provisioning import instance_types_upto

FFMPEG_INSTANCES = instance_types_upto(16)  # Large .. 4xLarge
BIG_INSTANCES = [
    instance_type(n) for n in ("xLarge", "2xLarge", "4xLarge", "8xLarge", "16xLarge")
]


@pytest.fixture(scope="module")
def fig3(paper_sweep):
    """Fig. 3: FFmpeg across Large..4xLarge, all seven platforms."""
    return paper_sweep("fig3", FfmpegWorkload(), FFMPEG_INSTANCES)


@pytest.fixture(scope="module")
def fig4(paper_sweep):
    """Fig. 4: MPI Search across xLarge..16xLarge."""
    return paper_sweep("fig4", MpiSearchWorkload(), BIG_INSTANCES)


@pytest.fixture(scope="module")
def fig5(paper_sweep):
    """Fig. 5: WordPress across xLarge..16xLarge."""
    return paper_sweep("fig5", WordPressWorkload(), BIG_INSTANCES)


@pytest.fixture(scope="module")
def fig6(paper_sweep):
    """Fig. 6: Cassandra across xLarge..16xLarge."""
    return paper_sweep("fig6", CassandraWorkload(), BIG_INSTANCES)


class TestFig3Ffmpeg:
    def test_bm_scales_with_cores(self, fig3):
        bm = fig3.means("Vanilla BM")
        assert np.all(np.diff(bm) < 0)

    def test_vm_overhead_is_constant_pto_around_2x(self, fig3):
        """Fig 3-ii: VM execution time at least twice BM at every size."""
        ratios = overhead_ratios(fig3, "Vanilla VM")
        assert np.all(ratios >= 1.9)
        c = classify_overhead(ratios)
        assert c.kind is OverheadClass.PTO

    def test_pinning_does_not_help_vms(self, fig3):
        """Fig 3-ii: 'Unexpectedly, pinning does not mitigate the imposed
        overhead for VMs when FFmpeg is deployed.'"""
        vanilla = overhead_ratios(fig3, "Vanilla VM")
        pinned = overhead_ratios(fig3, "Pinned VM")
        # pinned VM gains less than 10 % — nowhere near the CN gain
        assert np.all(pinned > 0.9 * vanilla)
        assert np.all(pinned >= 1.9)

    def test_vmcn_imposes_highest_overhead(self, fig3):
        """Fig 3-i: VMCN is the worst platform for FFmpeg."""
        vmcn = fig3.means("Vanilla VMCN")
        for label in ("Vanilla VM", "Vanilla CN", "Vanilla BM"):
            assert np.all(vmcn >= fig3.means(label))

    def test_vmcn_max_ratio_about_4_min_converges_to_vm(self, fig3):
        """Fig 3-iii: max ratio ~4, and at 4xLarge VMCN ~ VM."""
        ratios = overhead_ratios(fig3, "Vanilla VMCN")
        assert 3.3 <= ratios[0] <= 4.5
        vm_ratio = overhead_ratios(fig3, "Vanilla VM")[-1]
        assert ratios[-1] == pytest.approx(vm_ratio, rel=0.15)

    def test_pinning_vmcn_does_not_help_much(self, fig3):
        vanilla = fig3.means("Vanilla VMCN")
        pinned = fig3.means("Pinned VMCN")
        assert np.all(pinned > 0.85 * vanilla)

    def test_vanilla_cn_pso_decays_with_cores(self, fig3):
        """Fig 3-i/iv: vanilla-CN overhead decreases as cores increase."""
        ratios = overhead_ratios(fig3, "Vanilla CN")
        assert classify_overhead(ratios).kind is OverheadClass.PSO
        assert ratios[0] > 1.3
        assert ratios[-1] < 1.1

    def test_pinned_cn_is_minimal_overhead(self, fig3):
        """Fig 3-iv: pinned CN is the suitable platform for CPU-bound work."""
        ratios = overhead_ratios(fig3, "Pinned CN")
        assert np.all(ratios < 1.05)

    def test_pinning_cn_helps_most_at_small_sizes(self, fig3):
        gain = fig3.means("Vanilla CN") / fig3.means("Pinned CN")
        assert gain[0] > gain[-1]
        assert gain[0] > 1.3


class TestFig4Mpi:
    def test_bm_decreases_with_ranks(self, fig4):
        bm = fig4.means("Vanilla BM")
        assert np.all(np.diff(bm) <= 0.05 * bm[:-1])

    def test_vm_overhead_vanishes_at_scale(self, fig4):
        """Fig 4-ii: from 2xLarge onward VM approaches BM."""
        ratios = overhead_ratios(fig4, "Vanilla VM")
        assert ratios[0] > 1.4  # xLarge: computation-bound, big overhead
        assert ratios[-1] < 1.1  # 16xLarge: hypervisor-mediated comm

    def test_vmcn_slightly_above_vm(self, fig4):
        vm = fig4.means("Vanilla VM")
        vmcn = fig4.means("Vanilla VMCN")
        assert np.all(vmcn >= vm)
        assert np.all(vmcn <= 1.25 * vm)

    def test_cn_exceeds_vmcn(self, fig4):
        """Fig 4-i: 'Surprisingly, the overhead of CN even exceeds the
        VMCN platforms.'"""
        cn = fig4.means("Vanilla CN")
        vmcn = fig4.means("Vanilla VMCN")
        assert np.all(cn >= vmcn)

    def test_containerized_overhead_ratio_stays(self, fig4):
        """Fig 4-i: the CN overhead ratio remains roughly constant while
        absolute differences shrink."""
        ratios = overhead_ratios(fig4, "Vanilla CN")
        gaps = fig4.means("Vanilla CN") - fig4.means("Vanilla BM")
        assert gaps[-1] < gaps[0]  # absolute difference reduced
        assert ratios[-1] > 1.25  # ratio persists

    def test_pinning_irrelevant_for_mpi_containers(self, fig4):
        vanilla = fig4.means("Vanilla CN")
        pinned = fig4.means("Pinned CN")
        assert np.all(np.abs(vanilla - pinned) < 0.12 * vanilla)


class TestFig5WordPress:
    def test_vanilla_cn_highest_overhead_small_sizes(self, fig5):
        """Fig 5-i: vanilla CN imposes the highest overhead, about twice
        BM at small sizes."""
        cn = overhead_ratios(fig5, "Vanilla CN")
        assert cn[0] > 1.7
        for label in ("Vanilla VM", "Vanilla VMCN", "Pinned VM", "Pinned VMCN"):
            assert cn[0] >= overhead_ratios(fig5, label)[0] - 1e-9

    def test_vanilla_cn_approaches_bm(self, fig5):
        cn = overhead_ratios(fig5, "Vanilla CN")
        assert cn[-1] < 1.1

    def test_pinned_cn_lowest(self, fig5):
        """Fig 5-i: pinned CN imposes the lowest overhead — it can even
        slightly beat BM."""
        pinned = overhead_ratios(fig5, "Pinned CN")
        assert np.all(pinned <= 1.02)

    def test_pinned_vm_consistently_below_vanilla_vm(self, fig5):
        """Fig 5-ii: pinning helps VMs for IO-intensive applications."""
        assert np.all(
            fig5.means("Pinned VM") < fig5.means("Vanilla VM")
        )

    def test_vmcn_mitigates_vm_overhead_on_average(self, fig5):
        """Fig 5-ii: VMCN imposes slightly lower overhead than VM (clearly
        so at large sizes where the IO path dominates)."""
        vm = overhead_ratios(fig5, "Vanilla VM")
        vmcn = overhead_ratios(fig5, "Vanilla VMCN")
        assert vmcn.mean() < vm.mean() * 1.05
        assert vmcn[-1] < vm[-1]


class TestFig6Cassandra:
    def test_vanilla_cn_largest_overhead(self, fig6):
        """Fig 6-i: vanilla CN imposes the largest overhead, ~3x+ BM."""
        cn = overhead_ratios(fig6, "Vanilla CN")
        assert cn[0] > 2.8
        for label in fig6.platform_order:
            if label != "Vanilla CN":
                assert cn[0] >= overhead_ratios(fig6, label)[0]

    def test_cn_overhead_higher_than_wordpress(self, fig5, fig6):
        """Fig 6-i: the Cassandra CN overhead exceeds WordPress's, due to
        its higher IO volume."""
        assert (
            overhead_ratios(fig6, "Vanilla CN")[0]
            > overhead_ratios(fig5, "Vanilla CN")[0]
        )

    def test_pinned_cn_beats_bm(self, fig6):
        """Fig 6-ii: pinned CN can even beat BM (xLarge..4xLarge)."""
        pinned = overhead_ratios(fig6, "Pinned CN")
        assert np.all(pinned[:3] < 1.0)

    def test_pinning_gain_diminishes_at_large_sizes(self, fig6):
        """Fig 6-iii: by 16xLarge, pinning no longer improves much."""
        gain = fig6.means("Vanilla CN") / fig6.means("Pinned CN")
        assert gain[0] > 2.0
        assert gain[-1] < 1.25

    def test_vm_based_overhead_at_large_sizes(self, fig6):
        """Fig 6-iv: VM-based platforms show increased overhead relative
        to BM at 8xLarge and beyond (CPU-dominated regime)."""
        for label in ("Vanilla VM", "Pinned VM"):
            ratios = overhead_ratios(fig6, label)
            assert np.all(ratios[-2:] > 1.3)

    def test_large_instance_thrashes(self):
        """Fig 6 note: Large is overloaded/thrashed and out of range."""
        r = run_once(
            CassandraWorkload(),
            make_platform("BM", instance_type("Large")),
            r830_host(),
        )
        assert r.thrashed
        r_x = run_once(
            CassandraWorkload(),
            make_platform("BM", instance_type("xLarge")),
            r830_host(),
        )
        assert not r_x.thrashed
        assert r.value > 3 * r_x.value


class TestFig7Chr:
    def test_lower_chr_higher_overhead(self):
        """Fig 7: the same 4xLarge vanilla container is slower on the
        112-core host (CHR=0.14) than on the 16-core host (CHR=1)."""
        inst = instance_type("4xLarge")
        wl = FfmpegWorkload()
        on_small = run_once(
            wl, make_platform("CN", inst), small_host(16)
        ).value
        on_big = run_once(wl, make_platform("CN", inst), r830_host()).value
        assert on_big > on_small * 1.01

    def test_chr_one_container_matches_bm(self):
        """At CHR=1 the container behaves like bare-metal."""
        inst = instance_type("4xLarge")
        wl = FfmpegWorkload()
        cn = run_once(wl, make_platform("CN", inst), small_host(16)).value
        bm = run_once(wl, make_platform("BM", inst), small_host(16)).value
        assert cn == pytest.approx(bm, rel=0.02)


class TestFig8Multitasking:
    @pytest.fixture(scope="class")
    def results(self):
        inst = instance_type("4xLarge")
        host = r830_host()
        out = {}
        for label, wl in (
            ("one", FfmpegWorkload()),
            ("thirty", FfmpegWorkload().split(30)),
        ):
            for mode in ("vanilla", "pinned"):
                out[(label, mode)] = run_once(
                    wl, make_platform("CN", inst, mode), host
                ).value
        return out

    def test_multitasking_increases_overhead(self, results):
        """Section IV-D: 30 parallel transcodes of the same total work
        take longer than one."""
        assert results[("thirty", "vanilla")] > 2 * results[("one", "vanilla")]
        assert results[("thirty", "pinned")] > 1.3 * results[("one", "pinned")]

    def test_vanilla_suffers_more_than_pinned(self, results):
        gap_thirty = results[("thirty", "vanilla")] / results[("thirty", "pinned")]
        gap_one = results[("one", "vanilla")] / results[("one", "pinned")]
        assert gap_thirty > gap_one
        assert gap_thirty > 1.4


class TestChrBands:
    """Section IV-A: the suitable-CHR ranges per application class."""

    def test_ffmpeg_band(self, fig3):
        band = estimate_suitable_chr_range(fig3, r830_host())
        assert band.low == pytest.approx(0.071, abs=0.01)
        assert band.high == pytest.approx(0.143, abs=0.01)

    def test_wordpress_band(self, fig5):
        band = estimate_suitable_chr_range(fig5, r830_host())
        assert band.low == pytest.approx(0.143, abs=0.01)
        assert band.high == pytest.approx(0.286, abs=0.01)

    def test_cassandra_band(self, fig6):
        band = estimate_suitable_chr_range(fig6, r830_host())
        assert band.low == pytest.approx(0.286, abs=0.01)
        assert band.high == pytest.approx(0.571, abs=0.01)

    def test_io_apps_need_higher_chr(self, fig3, fig5, fig6):
        """'IO intensive applications require a higher CHR value than the
        CPU intensive ones.'"""
        host = r830_host()
        ffmpeg = estimate_suitable_chr_range(fig3, host)
        wp = estimate_suitable_chr_range(fig5, host)
        cass = estimate_suitable_chr_range(fig6, host)
        assert ffmpeg.high <= wp.high <= cass.high


GOLDEN_PATH = Path(__file__).parent / "golden" / "paper_findings.json"


@pytest.fixture(scope="module")
def golden():
    """Pinned headline numbers (reps=1, DEFAULT_SEED) with explicit
    tolerances; regenerate deliberately if the engine changes on purpose."""
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenRegression:
    """Golden pins for the paper's headline findings.

    The qualitative tests above tolerate wide drift; these pin the
    actual reproduced numbers so engine changes can't silently move the
    reproduction while staying inside the qualitative envelopes.
    """

    def _check_series(self, sweep, label, entry):
        assert sweep.instance_order == entry["instances"]
        got = overhead_ratios(sweep, label)
        for inst, want, have in zip(entry["instances"], entry["values"], got):
            assert have == pytest.approx(want, rel=entry["rel_tol"]), (
                f"{label} ratio drifted at {inst}: "
                f"golden {want}, got {have}"
            )

    def test_fig3_vm_pto_ratio_pinned(self, fig3, golden):
        """Fig. 3: the VM ~x2 PTO band, pinned value by value."""
        entry = golden["fig3_vanilla_vm_ratio"]
        self._check_series(fig3, "Vanilla VM", entry)
        # and the headline claim itself: every ratio sits at ~x2
        assert all(1.9 <= v <= 2.5 for v in entry["values"])

    def test_fig3_cn_pso_shrinks_pinned(self, fig3, golden):
        """Fig. 3: vanilla-CN PSO, pinned and strictly shrinking."""
        entry = golden["fig3_vanilla_cn_ratio"]
        self._check_series(fig3, "Vanilla CN", entry)
        assert all(np.diff(entry["values"]) < 0)

    def test_fig6_cn_pso_shrinks_with_chr_pinned(self, fig6, golden):
        """Fig. 6: vanilla-container overhead shrinks as instance size
        (hence CHR) grows, pinned value by value."""
        entry = golden["fig6_vanilla_cn_ratio"]
        self._check_series(fig6, "Vanilla CN", entry)
        assert all(np.diff(entry["values"]) < 0)

    def test_loadcurve_knee_golden(self):
        """Open-loop saturation: the committed knee analysis, byte for
        byte, and its headline — vanilla-CN's cgroups tax knees at a
        measurably lower offered load than pinned-CN (which saturates
        with bare metal), VM saturating with vanilla-CN per the paper's
        WordPress overhead ordering."""
        from repro.analysis.loadcurve import knee_json
        from repro.run.campaign import Campaign, run_campaign

        golden_path = GOLDEN_PATH.parent / "loadcurve_knee.json"
        result = run_campaign(Campaign(include=("loadcurve",)))
        assert knee_json(result.loadcurve) == golden_path.read_text()

        doc = json.loads(golden_path.read_text())
        knees = {p: d["knee_rate"] for p, d in doc["platforms"].items()}
        sustained = {
            p: d["max_sustained"] for p, d in doc["platforms"].items()
        }
        # the headline: pinning moves the knee measurably right
        assert knees["Vanilla CN"] < knees["Pinned CN"]
        assert knees["Pinned CN"] >= 1.5 * knees["Vanilla CN"]
        assert sustained["Pinned CN"] >= 1.5 * sustained["Vanilla CN"]
        # paper ordering: pinned CN saturates with bare metal; the VM
        # and VMCN stacks knee no later than vanilla BM
        assert knees["Pinned CN"] == knees["Vanilla BM"]
        assert knees["Vanilla VM"] <= knees["Vanilla BM"]
        assert knees["Vanilla VMCN"] <= knees["Vanilla VM"]
        assert knees["Vanilla CN"] <= knees["Vanilla VM"]

    def test_fig7_chr_effect_pinned(self, golden):
        """Fig. 7: the same vanilla 4xLarge container is slower at
        CHR=0.14 than at CHR=1, at the pinned absolute values."""
        entry = golden["fig7_vanilla_cn_4xlarge"]
        inst = instance_type("4xLarge")
        wl = FfmpegWorkload()
        on_small = run_once(wl, make_platform("CN", inst), small_host(16)).value
        on_big = run_once(wl, make_platform("CN", inst), r830_host()).value
        assert on_small == pytest.approx(
            entry["chr_1.00_16core_host"], rel=entry["rel_tol"]
        )
        assert on_big == pytest.approx(
            entry["chr_0.14_112core_host"], rel=entry["rel_tol"]
        )
        assert entry["chr_0.14_112core_host"] > entry["chr_1.00_16core_host"]


class TestPrimeMpiParity:
    """Section III-B2: 'our observations for both of the MPI applications
    were alike' — Prime MPI must show the same platform orderings as MPI
    Search despite its load imbalance."""

    @pytest.fixture(scope="class")
    def prime(self):
        from repro import MpiPrimeWorkload

        return run_platform_sweep(
            MpiPrimeWorkload(),
            [instance_type(n) for n in ("xLarge", "4xLarge", "16xLarge")],
            reps=1,
        )

    def test_same_family_ordering(self, prime):
        cn = prime.means("Vanilla CN")
        vmcn = prime.means("Vanilla VMCN")
        vm = prime.means("Vanilla VM")
        bm = prime.means("Vanilla BM")
        assert np.all(cn >= vmcn)
        assert np.all(vmcn >= vm)
        assert np.all(vm >= bm * 0.999)

    def test_vm_vanishes_at_scale(self, prime):
        ratios = overhead_ratios(prime, "Vanilla VM")
        assert ratios[0] > 1.3
        assert ratios[-1] < 1.1

    def test_imbalance_makes_prime_slower_than_search(self, prime, fig4):
        """The barrier amplifies the rank imbalance into extra makespan."""
        prime_bm = prime.cell("Vanilla BM", "xLarge").mean
        search_bm = fig4.cell("Vanilla BM", "xLarge").mean
        assert prime_bm > search_bm
