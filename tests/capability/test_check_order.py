"""Property: ``check_access`` and ``unseal`` fault in hardware order.

Each property draws a random tag, otype, permission set, address and
bounds, and compares the fault class (or success) with a reference
written here from the architecture's rules, with the bounds decoded
afresh by ``bounds.decode`` rather than through the capability's cache:

* ``check_access``: tag, then seal, then each required permission in
  the order given, then bounds;
* ``unseal``: the sealed capability's tag and seal, then the authority's
  tag, seal, ``US`` permission and bounds (its address is the otype),
  then the otype match.

Exhaustive cases then pin the permission fault itself: which missing
permission it names, and its message.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import Capability, Permission as P
from repro.capability import bounds as bounds_mod
from repro.capability import compression
from repro.capability.capability import _check_seal_authority
from repro.capability.errors import (
    BoundsFault,
    OTypeFault,
    PermissionFault,
    SealedFault,
    TagFault,
)
from repro.capability.otypes import OTYPE_BITS, OTYPE_UNSEALED

ALL_PERMS = list(P)
DATA_PERMS = [p for p in ALL_PERMS if p is not P.EX]
SEALED_OTYPES = st.integers(1, (1 << OTYPE_BITS) - 1)
#: Mostly tagged and unsealed, so every later check is reached often.
TAGS = st.sampled_from([True, True, True, False])
OTYPES = st.one_of(st.just(OTYPE_UNSEALED), st.just(OTYPE_UNSEALED), SEALED_OTYPES)


def capability(base, length, address, perms, otype, tag, warm):
    """A capability with exactly these fields; ``warm`` fills the
    decoded-bounds cache first, so both the cached and the lazy path
    are exercised."""
    encoded, _, _ = bounds_mod.encode(base, length)
    cap = Capability(
        address=address,
        bounds=encoded,
        perms=compression.normalize(frozenset(perms)),
        otype=otype,
        tag=tag,
    )
    if warm:
        cap.base
    return cap


@st.composite
def capabilities(draw, perms=ALL_PERMS, otypes=OTYPES, span=1 << 12):
    base = draw(st.integers(0x2000_0000, 0x2000_0000 + span))
    length = draw(st.integers(0, span))
    address = draw(st.integers(base - 64, base + length + 64))
    held = draw(st.sets(st.sampled_from(perms)))
    if draw(st.booleans()):
        held |= {P.LD, P.SD, P.MC}
    return capability(
        base, length, address, held, draw(otypes), draw(TAGS),
        draw(st.booleans()),
    )


def access_fault(cap, address, size, required):
    """The reference check: the fault class and the permission it names."""
    if not cap.tag:
        return TagFault, None
    if cap.otype != OTYPE_UNSEALED:
        return SealedFault, None
    for perm in required:
        if perm not in cap.perms:
            return PermissionFault, perm
    base, top = bounds_mod.decode(cap.address, cap.bounds)
    if not (base <= address and address + size <= top):
        return BoundsFault, None
    return None, None


@settings(max_examples=500, deadline=None)
@given(
    capabilities(),
    st.integers(-64, 1 << 12),
    st.integers(1, 16),
    st.lists(st.sampled_from([P.LD, P.SD, P.MC, P.SL, P.EX]), max_size=4,
             unique=True),
)
def test_check_access_faults_in_hardware_order(cap, offset, size, required):
    address = cap.base + offset
    expected, perm = access_fault(cap, address, size, required)
    if expected is None:
        cap.check_access(address, size, required)
        assert cap.allows(address, size, sum(p.value for p in required))
        return
    with pytest.raises(expected) as caught:
        cap.check_access(address, size, required)
    assert type(caught.value) is expected
    if perm is not None:
        assert f"requires {perm}," in str(caught.value)
    assert not cap.allows(address, size, sum(p.value for p in required))


def unseal_fault(sealed, authority):
    """The reference ``cunseal``: the fault class, or None."""
    if not sealed.tag:
        return TagFault
    if sealed.otype == OTYPE_UNSEALED:
        return OTypeFault
    if not authority.tag:
        return TagFault
    if authority.otype != OTYPE_UNSEALED:
        return SealedFault
    if P.US not in authority.perms:
        return PermissionFault
    base, top = bounds_mod.decode(authority.address, authority.bounds)
    if not (base <= authority.address and authority.address + 1 <= top):
        return BoundsFault
    if authority.address != sealed.otype:
        return OTypeFault
    return None


@st.composite
def authorities(draw, otype):
    """A sealing-space capability: bounds and address over the otypes,
    the address often naming ``otype``."""
    base = draw(st.integers(0, 8))
    length = draw(st.integers(0, 8))
    address = draw(st.one_of(st.just(otype), st.integers(0, 12)))
    perms = draw(st.sets(st.sampled_from([P.US, P.SE, P.U0, P.GL])))
    if draw(st.booleans()):
        perms.add(P.US)
    return capability(
        base, length, address, perms, draw(OTYPES), draw(TAGS),
        draw(st.booleans()),
    )


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_unseal_faults_in_hardware_order(data):
    sealed = data.draw(capabilities(
        perms=DATA_PERMS,
        otypes=st.one_of(SEALED_OTYPES, SEALED_OTYPES, st.just(OTYPE_UNSEALED)),
    ))
    authority = data.draw(authorities(sealed.otype))
    expected = unseal_fault(sealed, authority)
    if expected is None:
        unsealed = sealed.unseal(authority)
        assert unsealed.otype == OTYPE_UNSEALED and unsealed.tag
        assert (unsealed.address, unsealed.bounds, unsealed.perms) == (
            sealed.address, sealed.bounds, sealed.perms,
        )
        return
    with pytest.raises(expected) as caught:
        sealed.unseal(authority)
    assert type(caught.value) is expected


@pytest.mark.parametrize(
    "tamper, fault",
    [
        (lambda auth: auth.untagged(), TagFault),
        (lambda auth: auth.seal(auth.set_address(2)), SealedFault),
        (lambda auth: auth.and_perms({P.SE, P.GL}), PermissionFault),
        (lambda auth: auth.set_address(2).set_bounds(1).set_address(3),
         BoundsFault),
        (lambda auth: auth.set_address(2), OTypeFault),
    ],
    ids=["untagged", "sealed", "lacks-US", "otype-out-of-bounds", "mismatch"],
)
def test_each_unseal_authority_failure_has_its_class(tamper, fault):
    """One authority per failure, from a good one for otype 3."""
    root = capability(0, 8, 3, [P.US, P.SE, P.GL], 0, True, False)
    data = capability(0x2000_0000, 64, 0x2000_0000, [P.LD, P.SD, P.GL], 0,
                      True, False)
    sealed = data.seal(root)
    assert sealed.unseal(root).otype == OTYPE_UNSEALED
    with pytest.raises(fault) as caught:
        sealed.unseal(tamper(root))
    assert type(caught.value) is fault


#: The largest permission set of each format, which every capability
#: below starts from before it sheds the permissions under test.
FORMATS = (
    {P.GL, P.LD, P.SD, P.MC, P.SL, P.LM, P.LG},
    {P.GL, P.EX, P.LD, P.MC, P.SR, P.LM, P.LG},
    {P.GL, P.LD, P.SD},
    {P.GL, P.SE, P.US, P.U0},
)


def _shedding(full, shed, warm):
    held = compression.normalize(frozenset(full - set(shed)))
    cap = capability(0x2000_0000, 64, 0x2000_0000, held, OTYPE_UNSEALED,
                     True, warm)
    if warm:
        cap.perm_bits
    assert not set(shed) & cap.perms
    return cap


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_check_access_names_the_first_missing_permission(warm):
    """Every ordered pair of permissions, with the first, the second or
    both shed: the fault names the first one the capability lacks, in
    the message ``check_access`` has always built."""
    address = 0x2000_0010
    for full in FORMATS:
        for a, b in itertools.permutations(ALL_PERMS, 2):
            for shed in ((a,), (b,), (a, b)):
                cap = _shedding(full, shed, warm)
                missing = a if a not in cap.perms else b
                with pytest.raises(PermissionFault) as caught:
                    cap.check_access(address, 4, (a, b))
                assert type(caught.value) is PermissionFault
                assert str(caught.value) == (
                    f"access at {address:#x} requires {missing}, held: "
                    f"{sorted(p.name for p in cap.perms)}"
                )


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("needed", [P.SE, P.US], ids=["SE", "US"])
def test_seal_authority_without_its_permission(needed, warm):
    """An authority without SE cannot seal and one without US cannot
    unseal, whatever else it holds; one that holds it passes on to the
    bounds check."""
    for full in FORMATS:
        for shed in ((P.SE,), (P.US,), (P.SE, P.US), ()):
            held = compression.normalize(frozenset(full - set(shed)))
            authority = capability(0, 8, 3, held, OTYPE_UNSEALED, True, warm)
            if warm:
                authority.perm_bits
            if needed in authority.perms:
                _check_seal_authority(authority, needed)
                continue
            with pytest.raises(PermissionFault) as caught:
                _check_seal_authority(authority, needed)
            assert type(caught.value) is PermissionFault
            assert str(caught.value) == f"sealing authority lacks {needed}"
