"""Tests for blocked-wait accounting over hardware revocation passes."""

from repro.rtos.waiting import make_hardware_wait_policy


class TestInterruptDrivenWait:
    def test_charges_wall_plus_reschedules(self, scheduler):
        policy = make_hardware_wait_policy(scheduler, completion_interrupt=True)
        wall = 10_000
        charged = policy(wall)
        assert charged > wall
        ticks = wall // scheduler.timeslice_cycles
        assert charged <= wall + (ticks + 3) * scheduler.context_switch_cost()

    def test_zero_wait_free(self, scheduler):
        policy = make_hardware_wait_policy(scheduler, completion_interrupt=True)
        assert policy(0) == 0


class TestPollingWait:
    def test_polling_slows_the_sweep_itself(self, scheduler):
        """Flute has no completion interrupt: the wake-and-poll memory

        traffic takes precedence over the revoker and stretches the
        sweep (section 7.2.2)."""
        interrupt = make_hardware_wait_policy(scheduler, completion_interrupt=True)
        polling = make_hardware_wait_policy(scheduler, completion_interrupt=False)
        wall = 50_000
        assert polling(wall) > interrupt(wall)

    def test_poll_interference_scales_with_duration(self, scheduler):
        policy = make_hardware_wait_policy(scheduler, completion_interrupt=False)
        short = policy(10_000)
        long = policy(100_000)
        assert long > 9 * short  # superlinear-ish due to stolen beats

    def test_stats_recorded(self, scheduler):
        policy = make_hardware_wait_policy(scheduler, completion_interrupt=False)
        policy(10_000)
        assert policy.stats.waits == 1
        assert policy.stats.polls > 0
        assert policy.stats.wall_cycles >= 10_000
