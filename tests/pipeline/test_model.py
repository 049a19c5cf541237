"""Tests for the core timing models (Flute vs Ibex trade-offs)."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.executor import _RetireInfo
from repro.pipeline import CoreKind, make_core_model
from repro.pipeline.model import flute_params, ibex_params
from repro.rtos.scheduler import SWITCH_MEM_FRACTION
from repro.rtos.switcher import SWITCHER_MEM_FRACTION


def retire(model, source):
    """Feed an assembled instruction sequence through the model."""
    program = assemble(source)
    for instr in program.instructions:
        model.retire(instr, _RetireInfo())
    return model.cycles


class TestParams:
    def test_flute_wide_bus(self):
        assert flute_params().cap_access_beats == 1
        assert flute_params().load_filter_penalty == 0
        assert not flute_params().load_filter_port_conflict

    def test_ibex_narrow_bus(self):
        """Ibex's 33-bit data bus: two beats per capability (section 4)."""
        assert ibex_params().cap_access_beats == 2
        assert ibex_params().load_filter_port_conflict


class TestInstructionCosts:
    def test_alu_single_cycle(self):
        model = make_core_model(CoreKind.FLUTE)
        assert retire(model, "add a0, a1, a2\nnop\nmv a3, a0") == 3

    def test_cap_load_costs_two_beats_on_ibex(self):
        ibex = make_core_model(CoreKind.IBEX)
        flute = make_core_model(CoreKind.FLUTE)
        src = "clc a0, 0(s0)"
        assert retire(ibex, src) == ibex_params().load_cycles + 1
        assert retire(flute, src) == flute_params().load_cycles

    def test_cap_store_beats(self):
        ibex = make_core_model(CoreKind.IBEX)
        base = retire(make_core_model(CoreKind.IBEX), "sw a0, 0(s0)")
        capstore = retire(ibex, "csc a0, 0(s0)")
        assert capstore == base + 1

    def test_branch_taken_penalty(self):
        model = make_core_model(CoreKind.FLUTE)
        program = assemble("beq a0, a1, t\nt: halt")
        info = _RetireInfo(branch_taken=True)
        model.retire(program.instructions[0], info)
        taken = model.cycles
        model2 = make_core_model(CoreKind.FLUTE)
        model2.retire(program.instructions[0], _RetireInfo())
        assert taken > model2.cycles

    def test_div_expensive(self):
        model = make_core_model(CoreKind.IBEX)
        assert retire(model, "div a0, a1, a2") == ibex_params().div_cycles


class TestLoadUseHazard:
    def test_flute_dependent_use_stalls(self):
        dependent = retire(
            make_core_model(CoreKind.FLUTE), "lw a0, 0(s0)\nadd a1, a0, a0"
        )
        independent = retire(
            make_core_model(CoreKind.FLUTE), "lw a0, 0(s0)\nadd a1, a2, a2"
        )
        assert dependent == independent + flute_params().load_use_penalty

    def test_filter_penalty_only_with_filter_enabled(self):
        src = "clc a0, 0(s0)\ncgetaddr a1, a0"
        plain = retire(make_core_model(CoreKind.IBEX, False), src)
        filtered = retire(make_core_model(CoreKind.IBEX, True), src)
        # Port conflict (+1 on the load) plus the load-to-use stall (+1).
        assert filtered == plain + 2

    def test_filter_free_on_flute(self):
        """Figure 4: the 5-stage pipeline hides the lookup entirely."""
        src = "clc a0, 0(s0)\ncgetaddr a1, a0"
        plain = retire(make_core_model(CoreKind.FLUTE, False), src)
        filtered = retire(make_core_model(CoreKind.FLUTE, True), src)
        assert filtered == plain


class TestBulkHelpers:
    @pytest.mark.parametrize("kind", [CoreKind.FLUTE, CoreKind.IBEX])
    def test_zeroing_scales_linearly(self, kind):
        model = make_core_model(kind)
        assert model.zero_bytes_cycles(0) == 0
        one = model.zero_bytes_cycles(256)
        two = model.zero_bytes_cycles(512)
        assert 1.9 * one <= two <= 2.1 * one

    def test_zeroing_costlier_on_ibex(self):
        """The narrow bus makes zeroing proportionately pricier — the

        mechanism behind the paper's Ibex HWM observations (7.2.2)."""
        flute = make_core_model(CoreKind.FLUTE).zero_bytes_cycles(1024)
        ibex = make_core_model(CoreKind.IBEX).zero_bytes_cycles(1024)
        assert ibex > 1.5 * flute

    def test_software_sweep_four_accesses_per_word_on_ibex(self):
        """Section 7.2.2: the software revoker's load+store per

        capability word becomes four SRAM accesses on Ibex."""
        model = make_core_model(CoreKind.IBEX)
        per_word = model.sweep_cycles_software(8 * 1000) / 1000
        assert per_word >= 4

    def test_hardware_sweep_cheaper_than_software(self):
        for kind in (CoreKind.FLUTE, CoreKind.IBEX):
            model = make_core_model(kind)
            nbytes = 256 * 1024
            assert model.sweep_cycles_hardware(nbytes) < model.sweep_cycles_software(
                nbytes
            )

    def test_hardware_sweep_slower_when_cpu_busy(self):
        model = make_core_model(CoreKind.IBEX)
        blocked = model.sweep_cycles_hardware(4096, cpu_blocked=True)
        contended = model.sweep_cycles_hardware(4096, cpu_blocked=False)
        assert contended > blocked


_INPUTS = (-4096, -9, -1, 0) + tuple(range(1, 4097))


def _zero_bytes_formula(params, nbytes):
    if nbytes <= 0:
        return 0
    words = (nbytes + 7) // 8
    store_cost = params.store_cycles + (params.cap_access_beats - 1)
    return words * store_cost + (words + 1) // 2


def _mixed_instr_formula(params, count, mem_fraction):
    mem = int(count * mem_fraction)
    return (count - mem) + mem * params.store_cycles


class TestMemoisedCharges:
    """The cached bulk charges equal their formulas, on a miss and a hit."""

    @pytest.mark.parametrize("kind", [CoreKind.FLUTE, CoreKind.IBEX])
    def test_zero_bytes_cycles(self, kind):
        model = make_core_model(kind)
        for _ in range(2):
            for nbytes in _INPUTS:
                assert model.zero_bytes_cycles(nbytes) == _zero_bytes_formula(
                    model.params, nbytes
                ), nbytes

    @pytest.mark.parametrize("kind", [CoreKind.FLUTE, CoreKind.IBEX])
    @pytest.mark.parametrize(
        "mem_fraction", [SWITCHER_MEM_FRACTION, SWITCH_MEM_FRACTION]
    )
    def test_mixed_instr_cycles(self, kind, mem_fraction):
        model = make_core_model(kind)
        for _ in range(2):
            for count in _INPUTS:
                assert model.mixed_instr_cycles(
                    count, mem_fraction
                ) == _mixed_instr_formula(model.params, count, mem_fraction), count

    def test_caches_are_per_core(self):
        """A charge cached on one core is never returned by another."""
        flute = make_core_model(CoreKind.FLUTE)
        ibex = make_core_model(CoreKind.IBEX)
        assert flute.zero_bytes_cycles(1024) != ibex.zero_bytes_cycles(1024)
        assert flute.mixed_instr_cycles(180, SWITCHER_MEM_FRACTION) != (
            ibex.mixed_instr_cycles(180, SWITCHER_MEM_FRACTION)
        )


class TestReset:
    def test_reset_clears_state(self):
        model = make_core_model(CoreKind.IBEX)
        retire(model, "lw a0, 0(s0)")
        model.reset()
        assert model.cycles == 0
        # The load's hazard window is closed too: no stall for a0.
        assert retire(model, "add a1, a0, a0") == 1
