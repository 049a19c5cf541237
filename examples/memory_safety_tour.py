#!/usr/bin/env python3
"""A tour of the paper's eight-point memory-safety model (section 2.3).

For an object owned by compartment A, compartment B must not be able
to do any of the eight things below.  Each attack runs against the real
machinery and is reported blocked (or the script exits non-zero).

Run with::

    python examples/memory_safety_tour.py
"""

import sys

from repro import System
from repro.allocator import TemporalSafetyMode
from repro.capability import Capability, Permission, attenuate_loaded
from repro.capability.errors import CapabilityError
from repro.pipeline import CoreKind

BLOCKED = 0


def attack(description):
    """Decorator: run the attack, report whether it was blocked."""

    def wrap(fn):
        global BLOCKED
        try:
            fn()
        except CapabilityError as fault:
            print(f"  [blocked] {description}\n            -> {type(fault).__name__}: {fault}")
            BLOCKED += 1
        else:
            print(f"  [!! HOLE] {description} SUCCEEDED")
        return fn

    return wrap


def main() -> None:
    system = System.build(core=CoreKind.IBEX, mode=TemporalSafetyMode.HARDWARE)
    print("the eight prohibitions of section 2.3:\n")

    obj = system.malloc(64)

    @attack("1. access the object without being passed a pointer")
    def point1():
        Capability.null(obj.base).check_access(obj.base, 4, (Permission.LD,))

    @attack("2. access outside the bounds of a valid pointer")
    def point2():
        obj.check_access(obj.top, 4, (Permission.LD,))

    @attack("3. use the object after it has been freed")
    def point3():
        stash = system.malloc(64)
        system.bus.write_capability(stash.base, obj)
        system.free(obj)
        stale = system.load_filter.filter(system.bus.read_capability(stash.base))
        stale.check_access(stale.base, 4, (Permission.LD,))

    # 4 & 5 share the mechanism: local capabilities cannot be captured.
    stack_obj = (
        system.main_thread.stack_cap.set_address(system.main_thread.sp - 64)
        .set_bounds(32)
    )

    @attack("4. hold a pointer to an on-stack object after the call")
    def point4():
        # Stack capabilities are local; compartment globals lack SL.
        system.app.store_global_cap("stolen-stack-ptr", stack_obj)

    @attack("5. hold a temporarily delegated pointer beyond one call")
    def point5():
        delegated = system.malloc(64).make_local()
        system.app.store_global_cap("captured-delegate", delegated)

    shared = system.malloc(64)

    @attack("6. modify an object passed via immutable reference")
    def point6():
        view = shared.readonly()
        view.check_access(view.base, 4, (Permission.SD,))

    @attack("7. modify anything reachable from a deeply immutable ref")
    def point7():
        inner = system.malloc(32)
        system.bus.write_capability(shared.base, inner)
        deep_ro = shared.readonly()  # LM cleared: transitive
        loaded = attenuate_loaded(system.bus.read_capability(shared.base), deep_ro)
        loaded.check_access(loaded.base, 4, (Permission.SD,))

    @attack("8. tamper with an object passed via opaque reference")
    def point8():
        key = system.sealing.mint_key("service-state")
        handle = system.sealing.seal(key, {"balance": 100})
        handle.sealed_cap.check_access(
            handle.sealed_cap.address, 4, (Permission.LD,)
        )

    print(f"\n{BLOCKED}/8 attacks blocked — deterministically, not probabilistically.")
    sys.exit(0 if BLOCKED == 8 else 1)


if __name__ == "__main__":
    main()
