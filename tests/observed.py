"""The two sides of the executor's fused-against-observed differentials.

``CPU.run`` fuses straight-line runs into blocks only while nothing
observes it: a ``pre_step_hook`` or a retire hook makes it single-step
the bound table instead, the path fault injection and ``PCProfiler``
take.  A differential runs one scenario on each side and requires the
same outcome, because observing a run must not change what runs.
"""

#: The unobserved side, which fuses, then the side under a no-op observer.
SIDES = ("fused", "observed")


def _no_op(cpu) -> None:
    """A ``pre_step_hook`` that observes nothing."""


def on_side(side, cpu):
    """``cpu``, with a no-op ``pre_step_hook`` when ``side`` is
    ``"observed"``: from then on it single-steps every instruction."""
    if side == "observed":
        cpu.pre_step_hook = _no_op
    return cpu


def building(factory, side, built):
    """``factory`` (a ``CPU`` class or ``System.make_cpu``) with every
    CPU it builds put on ``side`` and appended to ``built``: the seam for
    code that builds its own CPU."""

    def build(*args, **kwargs):
        cpu = on_side(side, factory(*args, **kwargs))
        built.append(cpu)
        return cpu

    return build


def fused_blocks(cpus) -> int:
    """Fused blocks the CPUs ran."""
    return sum(cpu.block_stats.executions for cpu in cpus)


def assert_observation_blind(seen, cpus):
    """Both sides saw the same, the fused side ran fused blocks and the
    observed side ran none.

    ``seen`` and ``cpus`` map each of :data:`SIDES` to what that side
    observed and to the list of CPUs it ran.
    """
    assert seen["observed"] == seen["fused"], "observing the run changed it"
    assert fused_blocks(cpus["fused"]) > 0, "the fused side never fused"
    assert fused_blocks(cpus["observed"]) == 0, "the observed side fused"
