"""Tests for the reset roots (section 3.1.1) and otype space (3.2.2)."""

from repro.capability import Permission as P, make_roots
from repro.capability.otypes import (
    FORWARD_SENTRY_OTYPES,
    OTYPE_UNSEALED,
    RETURN_SENTRY_OTYPES,
    RTOS_DATA_OTYPES,
    SEALED_OTYPE_COUNT,
    SOFTWARE_EXECUTABLE_OTYPES,
    SentryType,
    is_sentry,
    is_valid_otype,
    return_sentry_for_posture,
)


class TestRoots:
    def test_three_roots(self):
        roots = make_roots()
        assert len(roots) == 3

    def test_memory_root_covers_space_and_writes(self):
        memory = make_roots().memory
        assert memory.base == 0 and memory.top == 1 << 32
        assert memory.has(P.LD, P.SD, P.MC, P.SL, P.LG, P.LM, P.GL)
        assert not memory.is_executable

    def test_executable_root_wx(self):
        executable = make_roots().executable
        assert executable.has(P.EX, P.SR)
        assert P.SD not in executable.perms  # W^X at the root already

    def test_sealing_root_covers_otype_space(self):
        sealing = make_roots().sealing
        assert sealing.base == 0 and sealing.top == 8
        assert sealing.has(P.SE, P.US, P.U0)
        assert not sealing.has(P.LD)

    def test_roots_are_tagged_and_unsealed(self):
        for root in make_roots():
            assert root.tag and not root.is_sealed


class TestOtypeSpace:
    def test_seven_sealed_values_per_namespace(self):
        assert SEALED_OTYPE_COUNT == 7

    def test_valid_range(self):
        assert is_valid_otype(0) and is_valid_otype(7)
        assert not is_valid_otype(8) and not is_valid_otype(-1)

    def test_five_sentries_two_for_software(self):
        """Five executable otypes consumed by/reserved for sentries,

        leaving two for software use (section 3.2.2)."""
        assert len(FORWARD_SENTRY_OTYPES) + len(RETURN_SENTRY_OTYPES) == 5
        assert len(SOFTWARE_EXECUTABLE_OTYPES) == 2
        used = (
            set(int(s) for s in SentryType)
            | set(SOFTWARE_EXECUTABLE_OTYPES)
            | {OTYPE_UNSEALED}
        )
        assert used == set(range(8))

    def test_rtos_allocates_four_data_otypes(self):
        assert len(RTOS_DATA_OTYPES) == 4
        assert OTYPE_UNSEALED not in RTOS_DATA_OTYPES.values()

    def test_is_sentry_respects_namespace(self):
        # otype 1 is a sentry only in the *executable* namespace.
        assert is_sentry(1, executable=True)
        assert not is_sentry(1, executable=False)
        assert not is_sentry(6, executable=True)  # software otype

    def test_return_sentry_captures_posture(self):
        assert return_sentry_for_posture(True) is SentryType.RETURN_ENABLED
        assert return_sentry_for_posture(False) is SentryType.RETURN_DISABLED
