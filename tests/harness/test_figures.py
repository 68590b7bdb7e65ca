"""Smoke + structure tests for the per-figure experiment functions.

These use aggressive down-scaling (scale=64: 16 MB server memory) so the
whole module runs in seconds; the full-shape assertions against the
paper's claims live in test_paper_shapes.py at a larger scale.
"""

import pytest

from repro.harness import figures, paper
from repro.units import KB, MB

SCALE = 64
OPS = 200


class TestTable1:
    def test_rows(self):
        rows = figures.table1()
        assert len(rows) == 5
        assert rows[-1]["design"] == "This Paper"


class TestFig1And2:
    @pytest.fixture(scope="class")
    def data(self):
        return figures.fig2(scale=SCALE, ops=OPS)

    def test_structure(self, data):
        assert set(data) == {"fit", "nofit"}
        assert [r["design"] for r in data["fit"]] == [
            "IPoIB-Mem", "RDMA-Mem", "H-RDMA-Def"]

    def test_rdma_beats_ipoib_when_fit(self, data):
        fit = {r["design"]: r["latency"] for r in data["fit"]}
        assert fit["RDMA-Mem"] < fit["IPoIB-Mem"]

    def test_hybrid_negligible_overhead_when_fit(self, data):
        fit = {r["design"]: r["latency"] for r in data["fit"]}
        assert fit["H-RDMA-Def"] < 1.3 * fit["RDMA-Mem"]

    def test_hybrid_beats_inmemory_when_nofit(self, data):
        nofit = {r["design"]: r["latency"] for r in data["nofit"]}
        assert nofit["H-RDMA-Def"] < nofit["RDMA-Mem"] < nofit["IPoIB-Mem"]

    def test_inmemory_designs_miss_when_nofit(self, data):
        nofit = {r["design"]: r["miss_rate"] for r in data["nofit"]}
        assert nofit["RDMA-Mem"] > 0.02
        assert nofit["H-RDMA-Def"] == 0.0  # hybrid retains everything

    def test_breakdown_stages_present(self, data):
        for row in data["fit"] + data["nofit"]:
            assert set(row["breakdown"]) == {
                "slab_alloc", "cache_check_load", "cache_update",
                "server_response", "client_wait", "miss_penalty"}

    def test_breakdown_shapes(self, data):
        """Paper Sec III-B: network/wait dominates the in-memory designs
        when data fits; the miss penalty (in-memory) and SSD I/O
        (H-RDMA-Def) dominate when it does not."""
        fit = {r["design"]: r["breakdown"] for r in data["fit"]}
        nofit = {r["design"]: r["breakdown"] for r in data["nofit"]}
        for design in ("IPoIB-Mem", "RDMA-Mem"):
            net = fit[design]["client_wait"] + fit[design]["server_response"]
            assert net > 2 * fit[design]["slab_alloc"]
        assert (nofit["RDMA-Mem"]["miss_penalty"]
                > nofit["RDMA-Mem"]["client_wait"])

        def ssd(stages):
            return stages["slab_alloc"] + stages["cache_check_load"]
        assert ssd(nofit["H-RDMA-Def"]) > 3 * ssd(fit["H-RDMA-Def"])

    def test_fig2_is_fig1_with_breakdown(self, data):
        """Fig 2 profiles Fig 1's runs, and profiling only observes:
        every other number of every row is bit-identical."""
        fig1 = figures.fig1(scale=SCALE, ops=OPS)
        for regime in ("fit", "nofit"):
            for row1, row2 in zip(fig1[regime], data[regime], strict=True):
                assert "breakdown" not in row1
                assert {k: v for k, v in row2.items()
                        if k != "breakdown"} == row1


class TestFig4:
    def test_schemes_and_shape(self):
        rows = figures.fig4(sizes=(4 * KB, 64 * KB, 1 * MB))
        for r in rows:
            assert r["direct"] > r["cached"]
            assert r["direct"] > r["mmap"]
        small, large = rows[0], rows[-1]
        assert small["mmap"] < small["cached"]
        assert large["cached"] < large["mmap"]


class TestFig6:
    @pytest.fixture(scope="class")
    def data(self):
        return figures.fig6(scale=SCALE, ops=OPS)

    def test_all_six_designs(self, data):
        assert len(data["fit"]) == 6
        assert len(data["nofit"]) == 6

    def test_nonblocking_beats_def_when_nofit(self, data):
        nofit = {r["design"]: r["latency"] for r in data["nofit"]}
        assert nofit["H-RDMA-Opt-NonB-i"] < nofit["H-RDMA-Def"] / 2
        assert nofit["H-RDMA-Opt-NonB-b"] < nofit["H-RDMA-Def"] / 2

    def test_opt_block_beats_def_when_nofit(self, data):
        nofit = {r["design"]: r["latency"] for r in data["nofit"]}
        assert nofit["H-RDMA-Opt-Block"] < nofit["H-RDMA-Def"]


class TestFig7a:
    def test_overlap_ordering(self):
        rows = figures.fig7a(scale=SCALE, ops=OPS)
        by = {(r["api"], r["workload"]): r["overlap_pct"] for r in rows}
        assert by[("RDMA-Block", "read-only")] < 5
        assert by[("RDMA-Block", "write-heavy")] < 5
        assert by[("RDMA-NonB-i", "read-only")] > 70
        assert by[("RDMA-NonB-i", "write-heavy")] > 70
        # bset blocks for buffer reuse under writes:
        assert (by[("RDMA-NonB-b", "write-heavy")]
                < by[("RDMA-NonB-i", "write-heavy")])


class TestFig7b:
    def test_nonblocking_wins_across_sizes(self):
        rows = figures.fig7b(scale=SCALE, ops=150, sizes=(4 * KB, 32 * KB))
        for r in rows:
            assert r["H-RDMA-Opt-NonB-i"] < r["H-RDMA-Def"]
            assert r["H-RDMA-Opt-NonB-b"] < r["H-RDMA-Def"]
            # Paper: 65-89% improvement across sizes.
            assert r["H-RDMA-Opt-NonB-i"] < 0.5 * r["H-RDMA-Def"]


class TestFig7c:
    def test_throughput_ordering(self):
        rows = figures.fig7c(scale=SCALE, num_clients=6, client_nodes=2,
                             num_servers=2, ops_per_client=40)
        by = {r["design"]: r["throughput"] for r in rows}
        for design in ("H-RDMA-Opt-NonB-i", "H-RDMA-Opt-NonB-b"):
            gain = by[design] / by["H-RDMA-Def-Block"]
            assert paper.FIG7C_NONB_THROUGHPUT_GAIN.contains(
                gain, slack=0.4), (design, gain)


class TestFig8a:
    @pytest.fixture(scope="class")
    def rows(self):
        return figures.fig8a(scale=SCALE, ops=150)

    @pytest.fixture(scope="class")
    def lat(self, rows):
        def lat(device, design, wl="read-only"):
            return next(r["latency"] for r in rows
                        if r["device"] == device and r["design"] == design
                        and r["workload"] == wl)
        return lat

    def test_devices_and_designs_covered(self, rows, lat):
        assert {r["device"] for r in rows} == {"SATA", "NVMe"}
        # NVMe makes the hybrid baseline much faster than SATA does.
        assert (lat("NVMe", "H-RDMA-Def-Block")
                < lat("SATA", "H-RDMA-Def-Block") / 2)

    @pytest.mark.parametrize("device", ["SATA", "NVMe"])
    @pytest.mark.parametrize("wl", ["read-only", "write-heavy"])
    def test_nonb_beats_opt_block(self, lat, device, wl):
        assert (lat(device, "H-RDMA-Opt-NonB-i", wl)
                < 0.7 * lat(device, "H-RDMA-Opt-Block", wl))

    def test_absolute_benefit_larger_on_sata(self, lat):
        """More I/O latency to hide on SATA (paper Sec VI-F)."""
        def benefit(device):
            return (lat(device, "H-RDMA-Opt-Block")
                    - lat(device, "H-RDMA-Opt-NonB-i"))
        assert benefit("SATA") > benefit("NVMe")


class TestFig8b:
    def test_block_latency_improvement(self):
        # Scale 128 (a 32 MB workload, two 16 MB blocks) costs what one
        # block size did at scale 64.
        rows = figures.fig8b(scale=128, block_sizes=(2 * MB, 16 * MB))
        for dev in ("SATA", "NVMe"):
            improvement = {}
            for bs in (2 * MB, 16 * MB):
                sub = {r["design"]: r["block_latency"] for r in rows
                       if r["device"] == dev and r["block_size"] == bs}
                assert sub["H-RDMA-Opt-NonB-i"] < sub["H-RDMA-Opt-Block"]
                improvement[bs] = 100 * (1 - sub["H-RDMA-Opt-NonB-i"]
                                         / sub["H-RDMA-Opt-Block"])
            # Larger blocks expose more overlap (paper Sec VI-G).
            assert improvement[16 * MB] >= improvement[2 * MB] - 5, dev
