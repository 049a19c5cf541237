"""Tests for the allocation microbenchmark harness (Table 4, Figs 5/6).

These use a reduced total (64 KiB instead of 1 MiB) so the orderings
can be asserted quickly; the full sweep is the ``tables`` artifact
(``repro.analysis.tables``).
"""

import pytest

from repro.allocator import TemporalSafetyMode as M
from repro.pipeline import CoreKind
from repro.workloads.alloc_bench import (
    ALLOCATION_SIZES,
    CONFIGURATIONS,
    TABLE4_SIZES,
    AllocBenchResult,
    format_table4,
    overhead_series,
    read_table4,
    run_alloc_bench,
    sweep_cells,
)

TOTAL = 64 * 1024


def cycles(core, mode, hwm, size, total=TOTAL):
    return run_alloc_bench(core, mode, hwm, size, total).cycles


class TestConfigurationOrdering:
    @pytest.mark.parametrize("core", [CoreKind.FLUTE, CoreKind.IBEX])
    def test_temporal_safety_costs_stack_up(self, core):
        """Baseline <= Metadata <= Hardware <= Software at small sizes.

        The total is large enough that quarantine crosses the sweep
        threshold several times, so the revoker choice matters."""
        total = 512 * 1024
        base = cycles(core, M.BASELINE, False, 64, total)
        meta = cycles(core, M.METADATA, False, 64, total)
        hard = cycles(core, M.HARDWARE, False, 64, total)
        soft = cycles(core, M.SOFTWARE, False, 64, total)
        assert base < meta < hard < soft

    def test_revocation_dominates_at_large_sizes(self):
        """Figure 5/6 right edge: at 128 KiB the sweep is nearly the

        whole story."""
        base = cycles(CoreKind.IBEX, M.BASELINE, False, 128 * 1024, 1 << 20)
        soft = cycles(CoreKind.IBEX, M.SOFTWARE, False, 128 * 1024, 1 << 20)
        assert soft > 20 * base

    def test_hardware_revoker_much_cheaper_than_software(self):
        soft = cycles(CoreKind.IBEX, M.SOFTWARE, False, 128 * 1024, 1 << 20)
        hard = cycles(CoreKind.IBEX, M.HARDWARE, False, 128 * 1024, 1 << 20)
        assert hard < soft / 1.5


class TestHighWaterMark:
    @pytest.mark.parametrize("core", [CoreKind.FLUTE, CoreKind.IBEX])
    def test_hwm_saves_at_small_sizes(self, core):
        without = cycles(core, M.BASELINE, False, 32)
        with_hwm = cycles(core, M.BASELINE, True, 32)
        saving = (without - with_hwm) / without
        assert 0.05 < saving < 0.30  # "reduces the total cost by 10%"

    def test_hwm_saving_fades_at_large_sizes(self):
        small_without = cycles(CoreKind.FLUTE, M.BASELINE, False, 32)
        small_with = cycles(CoreKind.FLUTE, M.BASELINE, True, 32)
        large_without = cycles(CoreKind.FLUTE, M.SOFTWARE, False, 32 * 1024, 1 << 19)
        large_with = cycles(CoreKind.FLUTE, M.SOFTWARE, True, 32 * 1024, 1 << 19)
        small_save = (small_without - small_with) / small_without
        large_save = (large_without - large_with) / large_without
        assert large_save < small_save

    def test_ibex_hwm_penalty_when_revoker_bound(self):
        """The paper's surprise: at 128 KiB on Ibex, Hardware(S) is

        *slower* than Hardware — two more CSRs per context switch while
        blocked on the revoker (section 7.2.2)."""
        without = cycles(CoreKind.IBEX, M.HARDWARE, False, 128 * 1024, 1 << 20)
        with_hwm = cycles(CoreKind.IBEX, M.HARDWARE, True, 128 * 1024, 1 << 20)
        assert with_hwm > without

    def test_software_with_hwm_beats_baseline_on_ibex_small(self):
        """Section 7.2.2: on Ibex the HWM brings full temporal safety

        (software revoker!) below the no-HWM baseline at 32/64 bytes."""
        for size in (32, 64):
            baseline = cycles(CoreKind.IBEX, M.BASELINE, False, size)
            soft_hwm = cycles(CoreKind.IBEX, M.SOFTWARE, True, size)
            assert soft_hwm < baseline


class TestHarness:
    def test_result_metadata(self):
        result = run_alloc_bench(CoreKind.IBEX, M.HARDWARE, True, 1024, TOTAL)
        assert result.iterations == TOTAL // 1024
        assert result.label == "Hardware (S)"
        assert result.cycles_per_iteration > 0

    def test_table4_and_series(self):
        results = [
            run_alloc_bench(CoreKind.IBEX, mode, hwm, size, TOTAL)
            for size in (64, 4096)
            for mode in CONFIGURATIONS
            for hwm in (False, True)
        ]
        series = overhead_series(results)
        assert "Baseline" in series and "Software (S)" in series
        for points in series.values():
            assert [x for x, _ in points] == [64, 4096]
        baseline = dict(series["Baseline"])
        assert baseline[64] == pytest.approx(1.0)
        text = format_table4(results)
        assert "64B" in text and "4KiB" in text

    def test_sweep_is_every_size_and_configuration_once(self):
        cells = sweep_cells(CoreKind.FLUTE)
        assert len(cells) == len(set(cells)) == 13 * 8
        assert {size for *_, size in cells} == set(ALLOCATION_SIZES)
        assert set(TABLE4_SIZES) <= set(ALLOCATION_SIZES)

    def test_read_table4_inverts_render(self):
        results = [
            AllocBenchResult(CoreKind.FLUTE, mode, hwm, size, 1, cycles, 0)
            for cycles, (size, mode, hwm) in enumerate(
                ((size, mode, hwm)
                 for size in (32, 1024, 128 * 1024)
                 for mode in CONFIGURATIONS
                 for hwm in (False, True)),
                start=999_990,
            )
        ]
        expected = {(r.label, r.allocation_size): r.cycles for r in results}
        assert read_table4(format_table4(results)) == expected
