"""Tests for the scheduler and context-switch cost accounting."""

import pytest

from repro.isa import CSRFile
from repro.pipeline import CoreKind, make_core_model
from repro.rtos import Scheduler
from repro.rtos.thread import ThreadState


@pytest.fixture
def threads(loader, scheduler):
    a = loader.add_thread("a", priority=2)
    b = loader.add_thread("b", priority=1)
    c = loader.add_thread("c", priority=2)
    for t in (a, b, c):
        scheduler.add_thread(t)
    return a, b, c


class TestSelection:
    def test_highest_priority_wins(self, scheduler, threads):
        a, b, c = threads
        assert scheduler.pick_next().priority == 2

    def test_round_robin_within_priority(self, scheduler, threads):
        a, b, c = threads
        scheduler.switch_to(a)
        nxt = scheduler.pick_next()
        assert nxt is c  # the other priority-2 thread

    def test_blocked_threads_skipped(self, scheduler, threads):
        a, b, c = threads
        a.state = ThreadState.BLOCKED
        c.state = ThreadState.BLOCKED
        assert scheduler.pick_next() is b

    def test_no_ready_threads(self, scheduler, threads):
        for t in threads:
            t.state = ThreadState.BLOCKED
        assert scheduler.pick_next() is None


class TestContextSwitch:
    def test_switch_updates_states(self, scheduler, threads):
        a, b, _ = threads
        scheduler.switch_to(a)
        assert a.state is ThreadState.RUNNING
        scheduler.switch_to(b)
        assert a.state is ThreadState.READY
        assert b.state is ThreadState.RUNNING

    def test_switch_saves_and_restores_hwm(self, scheduler, threads, csr):
        """The two extra CSRs of section 5.2.1 travel with the thread."""
        a, b, _ = threads
        scheduler.switch_to(a)
        csr.note_store(a.stack_region.top - 64)
        mark = csr.high_water_mark
        scheduler.switch_to(b)
        assert csr.high_water_mark == b.stack_region.top  # fresh thread
        scheduler.switch_to(a)
        assert csr.high_water_mark == mark

    def test_switch_to_self_is_free(self, scheduler, threads, core):
        a, *_ = threads
        scheduler.switch_to(a)
        cycles = core.cycles
        scheduler.switch_to(a)
        assert core.cycles == cycles

    def test_hwm_hardware_costs_two_extra_csrs(self, bus, roots):
        """The visible Ibex effect at 128 KiB (section 7.2.2): each

        switch saves/restores mshwm and mshwmb when fitted."""
        core = make_core_model(CoreKind.IBEX)
        with_hwm = Scheduler(CSRFile(hwm_enabled=True), core)
        without = Scheduler(CSRFile(hwm_enabled=False), core)
        assert (
            with_hwm.context_switch_cost() > without.context_switch_cost()
        )

    def test_unknown_thread_rejected(self, scheduler, threads, loader):
        stranger = loader.add_thread("stranger")
        with pytest.raises(ValueError):
            scheduler.switch_to(stranger)

    def test_duplicate_tid_rejected(self, scheduler, threads):
        with pytest.raises(ValueError):
            scheduler.add_thread(threads[0])


class TestPreemption:
    def test_preempt_switches_and_counts(self, scheduler, threads, core):
        a, b, c = threads
        scheduler.switch_to(a)
        before = scheduler.stats.context_switches
        scheduler.preempt()
        assert scheduler.stats.timer_ticks == 1
        assert scheduler.current in (a, c)
        assert scheduler.stats.context_switches >= before
