"""Tests for the CoreMark workalike (Table 3)."""

import pytest

from repro.pipeline import CoreKind
from repro.workloads.coremark import (
    build_coremark_module,
    coremark_program,
    run_coremark,
    table3,
)


@pytest.fixture(scope="module")
def results():
    """One iteration per config is enough for correctness checks."""
    out = {}
    for core in (CoreKind.FLUTE, CoreKind.IBEX):
        for config in ("rv32e", "cheriot", "cheriot+filter"):
            out[(core, config)] = run_coremark(core, config, iterations=1)
    return out


class TestFunctionalCorrectness:
    def test_crc_identical_across_all_configs(self, results):
        """Same computation under every ISA/filter configuration."""
        crcs = {r.crc for r in results.values()}
        assert len(crcs) == 1
        assert crcs.pop() != 0

    def test_instruction_counts_differ_by_isa_not_core(self, results):
        """The timing model, not the functional run, separates cores."""
        for config in ("rv32e", "cheriot"):
            flute = results[(CoreKind.FLUTE, config)]
            ibex = results[(CoreKind.IBEX, config)]
            assert flute.instructions == ibex.instructions

    def test_cheriot_executes_more_instructions(self, results):
        """Bounds-setting and the compiler bugs cost instructions."""
        rv = results[(CoreKind.IBEX, "rv32e")]
        ch = results[(CoreKind.IBEX, "cheriot")]
        assert ch.instructions > rv.instructions


class TestOverheadShapes:
    def test_capability_overhead_larger_on_ibex(self, results):
        """Table 3: Ibex pays more for capabilities (narrow bus)."""
        def overhead(core):
            base = results[(core, "rv32e")].cycles
            return (results[(core, "cheriot")].cycles - base) / base

        assert overhead(CoreKind.IBEX) > overhead(CoreKind.FLUTE)

    def test_load_filter_free_on_flute(self, results):
        assert (
            results[(CoreKind.FLUTE, "cheriot+filter")].cycles
            == results[(CoreKind.FLUTE, "cheriot")].cycles
        )

    def test_load_filter_costs_on_ibex(self, results):
        assert (
            results[(CoreKind.IBEX, "cheriot+filter")].cycles
            > results[(CoreKind.IBEX, "cheriot")].cycles
        )

    def test_overheads_in_paper_regime(self, results):
        """Rough magnitudes: Flute caps ~6%, Ibex caps ~13%, Ibex

        filter total ~21% (we accept a generous band)."""
        def overhead(core, config):
            base = results[(core, "rv32e")].cycles
            return 100 * (results[(core, config)].cycles - base) / base

        assert 2 < overhead(CoreKind.FLUTE, "cheriot") < 10
        assert 6 < overhead(CoreKind.IBEX, "cheriot") < 18
        assert 12 < overhead(CoreKind.IBEX, "cheriot+filter") < 28


class TestHarness:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            run_coremark(CoreKind.IBEX, "mystery")

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_iterations_below_one_rejected(self, iterations):
        # The driver counts down to zero, so these would loop ~2^32 times.
        with pytest.raises(ValueError, match="iterations must be 1 or more"):
            coremark_program("cheriot", iterations)

    def test_module_layouts_differ_by_pointer_size(self):
        m4 = build_coremark_module(4)
        m8 = build_coremark_module(8)
        assert m8.globals["nodes"].size == 2 * m4.globals["nodes"].size

    def test_table3_shape(self):
        rows = table3(iterations=1)
        assert len(rows) == 6
        for row in rows:
            if row["config"] == "rv32e":
                assert row["score_scaled"] == pytest.approx(row["paper_score"])
            assert row["cycles"] > 0


class TestKernelProfile:
    @pytest.fixture(scope="class")
    def profiles(self):
        from repro.workloads.coremark import run_kernel_profile

        return {
            config: run_kernel_profile(CoreKind.IBEX, config, iterations=1)
            for config in ("rv32e", "cheriot", "cheriot+filter")
        }

    def test_all_kernels_profiled(self, profiles):
        assert set(profiles["rv32e"]) == {"list", "matrix", "state"}
        assert all(v > 0 for v in profiles["rv32e"].values())

    def test_list_kernel_suffers_most_from_the_filter(self, profiles):
        """The pointer-chasing kernel pays the load filter hardest —

        every `next` is a clc (paper's Table 3 discussion)."""
        def filter_overhead(kernel):
            base = profiles["cheriot"][kernel]
            return (profiles["cheriot+filter"][kernel] - base) / base

        assert filter_overhead("list") > filter_overhead("matrix")
        assert filter_overhead("list") > filter_overhead("state")

    def test_capability_overhead_ordering(self, profiles):
        """list (pointer traffic) > state (globals only) for caps too."""
        def caps_overhead(kernel):
            base = profiles["rv32e"][kernel]
            return (profiles["cheriot"][kernel] - base) / base

        assert caps_overhead("list") > caps_overhead("state")

    def test_bad_config_rejected(self):
        from repro.workloads.coremark import run_kernel_profile

        with pytest.raises(ValueError):
            run_kernel_profile(CoreKind.IBEX, "bogus")
