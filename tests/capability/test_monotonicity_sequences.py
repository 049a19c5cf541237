"""Stateful property: no sequence of guarded operations gains authority.

The paper's summary of guarded manipulation (section 2.4): bounds may
be narrowed but neither widened nor displaced; permissions may be shed
but not regained; tags may be cleared but never set.  We drive random
operation sequences against a capability and require the invariant to
hold at every step — the closest Python analogue of proving
monotonicity over the ISA.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.capability import Capability, Permission as P, attenuate_loaded, make_roots
from repro.capability import bounds as bounds_mod
from repro.capability.capability import _perm_mask
from repro.capability.errors import CapabilityError
from repro.capability.otypes import SentryType

ALL_PERMS = list(P)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("inc_address"), st.integers(-(1 << 16), 1 << 16)),
        st.tuples(st.just("set_address"), st.integers(0, (1 << 32) - 1)),
        st.tuples(st.just("set_bounds"), st.integers(0, 1 << 20)),
        st.tuples(
            st.just("and_perms"),
            st.sets(st.sampled_from(ALL_PERMS), max_size=12).map(frozenset),
        ),
        st.tuples(st.just("clear_tag"), st.none()),
        st.tuples(st.just("make_local"), st.none()),
        st.tuples(st.just("readonly"), st.none()),
    ),
    max_size=12,
)


def apply_op(cap: Capability, op, arg):
    if op == "inc_address":
        return cap.inc_address(arg)
    if op == "set_address":
        return cap.set_address(arg)
    if op == "set_bounds":
        return cap.set_bounds(arg)
    if op == "and_perms":
        return cap.and_perms(arg)
    if op == "clear_tag":
        return cap.untagged()
    if op == "make_local":
        return cap.make_local()
    if op == "readonly":
        return cap.readonly()
    raise AssertionError(op)


@settings(max_examples=200, deadline=None)
@given(operations)
def test_no_operation_sequence_escalates(script):
    origin = make_roots().memory.set_address(0x2000_0000).set_bounds(4096)
    cap = origin
    for op, arg in script:
        try:
            cap = apply_op(cap, op, arg)
        except CapabilityError:
            continue  # a refused operation leaves authority unchanged
        # The running value never exceeds the origin's authority:
        if cap.tag:
            assert cap.base >= origin.base
            assert cap.top <= origin.top
            assert cap.perms <= origin.perms
    # And a cleared tag never comes back.
    dead = cap.untagged()
    for op, arg in script:
        try:
            dead = apply_op(dead, op, arg)
        except CapabilityError:
            continue
        assert not dead.tag


@settings(max_examples=100, deadline=None)
@given(operations, operations)
def test_sealing_freezes_authority(script_a, script_b):
    """Whatever you do around a seal/unseal pair, the unsealed value

    has exactly the pre-seal authority."""
    roots = make_roots()
    cap = roots.memory.set_address(0x2000_0000).set_bounds(1024)
    for op, arg in script_a:
        try:
            cap = apply_op(cap, op, arg)
        except CapabilityError:
            continue
    if not cap.tag:
        return
    authority = roots.sealing.set_address(3)
    sealed = cap.seal(authority)
    # Sealed capabilities are frozen: mutations fault or untag.
    for op, arg in script_b:
        try:
            mutated = apply_op(sealed, op, arg)
        except CapabilityError:
            continue
        if op in ("inc_address", "set_address") and mutated.tag:
            raise AssertionError("sealed capability moved with tag intact")
    assert sealed.unseal(authority) == cap


# ----------------------------------------------------------------------
# Derivations build their results without ``__post_init__``; each result
# must be exactly what the validating constructor would build, and its
# seeded caches (``_dec``, ``_pbits`` — excluded from equality) must hold
# what a fresh decode and permission mask compute.
# ----------------------------------------------------------------------

derivations = st.lists(
    st.one_of(
        st.tuples(st.just("inc_address"), st.integers(-(1 << 16), 1 << 16)),
        st.tuples(st.just("set_address"), st.integers(0, (1 << 32) - 1)),
        st.tuples(st.just("set_bounds"), st.integers(0, 1 << 20)),
        st.tuples(st.just("set_bounds_exact"), st.integers(0, 1 << 20)),
        # Lengths whose top lands exactly on 2**32.
        st.tuples(st.just("set_bounds_to_top"), st.booleans()),
        st.tuples(
            st.just("and_perms"),
            st.sets(st.sampled_from(ALL_PERMS), max_size=12).map(frozenset),
        ),
        st.tuples(st.just("clear_tag"), st.none()),
        st.tuples(st.just("make_local"), st.none()),
        st.tuples(st.just("readonly"), st.none()),
        st.tuples(st.just("seal"), st.integers(0, 8)),
        st.tuples(st.just("unseal"), st.none()),
        st.tuples(st.just("seal_sentry"), st.sampled_from(list(SentryType))),
        st.tuples(st.just("unseal_for_jump"), st.none()),
        st.tuples(
            st.just("attenuate_loaded"),
            st.sets(st.sampled_from(ALL_PERMS), max_size=12).map(frozenset),
        ),
    ),
    max_size=16,
)


def derive(cap: Capability, op, arg, roots):
    if op == "set_bounds_exact":
        return cap.set_bounds(arg, exact=True)
    if op == "set_bounds_to_top":
        return cap.set_bounds((1 << 32) - cap.address, exact=arg)
    if op == "seal":
        return cap.seal(roots.sealing.set_address(arg))
    if op == "unseal":
        return cap.unseal(roots.sealing.set_address(cap.otype))
    if op == "seal_sentry":
        return cap.seal_sentry(arg)
    if op == "unseal_for_jump":
        return cap.unseal_for_jump()
    if op == "attenuate_loaded":
        return attenuate_loaded(cap, roots.memory.and_perms(arg))
    return apply_op(cap, op, arg)


def assert_equals_validated(cap: Capability) -> None:
    reference = Capability(
        address=cap.address,
        bounds=cap.bounds,
        perms=cap.perms,
        otype=cap.otype,
        tag=cap.tag,
        reserved=cap.reserved,
    )
    assert cap == reference
    assert (cap.base, cap.top) == bounds_mod.decode(cap.address, cap.bounds)
    assert cap.perm_bits == _perm_mask(cap.perms)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["memory", "executable"]),
    st.integers(0, (1 << 32) - 1),
    derivations,
)
@example("memory", 0, [("set_bounds_to_top", True)])
@example("memory", 1, [("set_bounds_to_top", False)])
@example("memory", 0xFFFF_FE01, [("set_bounds_to_top", True)])
@example("executable", (1 << 32) - 1, [("set_bounds_to_top", True)])
def test_derivations_equal_validating_constructor(origin, address, script):
    roots = make_roots()
    cap = getattr(roots, origin).set_address(address)
    assert_equals_validated(cap)
    for op, arg in script:
        try:
            cap = derive(cap, op, arg, roots)
        except CapabilityError:
            continue
        assert_equals_validated(cap)

