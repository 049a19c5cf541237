#!/usr/bin/env python3
"""A compartmentalized firmware: mutually distrusting vendor components.

Builds the scenario the paper's introduction motivates: a sensor driver
from vendor A, a telemetry logger from vendor B, and a key vault that
must survive both being compromised.  Demonstrates:

* cross-compartment calls through sealed import tokens,
* ephemeral delegation (a sensor buffer lent for one call only),
* deep read-only sharing (the logger can read, not write, not deepen),
* virtualised sealing (the vault hands out opaque handles),
* interrupt-posture control per export.

Run with::

    python examples/compartment_firmware.py
"""

from repro import System
from repro.allocator import TemporalSafetyMode
from repro.capability import Permission
from repro.capability.errors import PermissionFault
from repro.pipeline import CoreKind
from repro.rtos.compartment import InterruptPosture


def main() -> None:
    system = System.build(
        core=CoreKind.IBEX, mode=TemporalSafetyMode.HARDWARE, finalize=False
    )
    loader = system.loader
    switcher = system.switcher
    thread = system.main_thread

    sensor = loader.add_compartment("sensor")
    logger = loader.add_compartment("logger")
    vault = loader.add_compartment("vault")

    # ------------------------------------------------------------------
    # The sensor: samples into a heap buffer, lends it out ephemerally.
    # ------------------------------------------------------------------

    def sample(ctx):
        ctx.use_stack(96)
        buffer = system.allocator.malloc(32)
        for i in range(8):
            system.bus.write_word(buffer.base + 4 * i, (i * 37) & 0xFFFF, 4)
        # Lend the buffer for the duration of the call only: strip GL so
        # the logger can hold it in registers/stack but never capture it.
        lent = buffer.make_local().readonly()
        total = ctx.call("logger", "log_readings", lent)
        system.allocator.free(buffer)
        return total

    sensor.export("sample", sample)

    # ------------------------------------------------------------------
    # The logger: possibly buggy/malicious third-party code.
    # ------------------------------------------------------------------

    def log_readings(ctx, readings):
        ctx.use_stack(96)
        # Attack 1: try to keep the buffer for later.
        try:
            ctx.store_global_cap("stolen", readings)
            print("  [logger] captured the buffer (BUG!)")
        except PermissionFault:
            print("  [logger] capture attempt -> blocked (no GL, globals lack SL)")
        # Attack 2: try to modify the readings.
        try:
            readings.check_access(readings.base, 4, (Permission.SD,))
            print("  [logger] modified the readings (BUG!)")
        except PermissionFault:
            print("  [logger] write attempt -> blocked (read-only view)")
        # Legitimate use: sum the readings.
        return sum(
            system.bus.read_word(readings.base + 4 * i, 4) for i in range(8)
        )

    logger.export("log_readings", log_readings)

    # ------------------------------------------------------------------
    # The vault: hands out opaque handles, runs with interrupts off.
    # ------------------------------------------------------------------
    key_type = system.sealing.mint_key("vault-key")

    def store_secret(ctx, secret):
        ctx.use_stack(64)
        return system.sealing.seal(key_type, secret)

    def use_secret(ctx, handle, message):
        ctx.use_stack(64)
        secret = system.sealing.unseal(key_type, handle)
        return f"signed({message}, key={secret[:4]}...)"

    vault.export("store_secret", store_secret, posture=InterruptPosture.DISABLED)
    vault.export("use_secret", use_secret, posture=InterruptPosture.DISABLED)

    loader.link("app", "sensor", "sample")
    loader.link("sensor", "logger", "log_readings")
    loader.link("app", "vault", "store_secret")
    loader.link("app", "vault", "use_secret")
    loader.finalize()  # roots erased: no new authority can appear

    # ------------------------------------------------------------------
    # Run the firmware.
    # ------------------------------------------------------------------
    print("sampling through the compartment boundary:")
    token = system.app.get_import("sensor", "sample")
    total = switcher.call(thread, token, )
    print(f"  sensor reported checksum {total}")

    print("\nvault interaction (exports run with interrupts disabled):")
    store = system.app.get_import("vault", "store_secret")
    use = system.app.get_import("vault", "use_secret")
    handle = switcher.call(thread, store, "hunter2-private-key")
    print(f"  got opaque handle: sealed={handle.sealed_cap.is_sealed}")
    print(f"  {switcher.call(thread, use, handle, 'telemetry-blob')}")
    try:
        system.sealing.unseal(system.sealing.mint_key("imposter"), handle)
    except PermissionFault:
        print("  imposter key -> blocked")

    print(f"\nswitcher calls: {switcher.stats.calls}, "
          f"stack bytes zeroed: {switcher.stats.bytes_zeroed:,}, "
          f"cycles: {system.core_model.cycles:,}")


if __name__ == "__main__":
    main()
