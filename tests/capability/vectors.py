"""Golden conformance vectors for the capability encoding.

Deterministically generated (seeded) encode/decode/pack cases, pinned
as literal expectations so any change to the stored format — field
positions, permission compression, bounds decode — fails loudly and is
visible in review.  A second implementation (RTL, another simulator)
can consume the same vectors: each entry is

    (packed_64bit_hex, tag, address, base, top, otype, perm_names)
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.capability.encoding import pack


def generate_vectors(count: int = 64, seed: int = 0x0C4E) -> List[Tuple]:
    """Regenerate the vector list (used to refresh GOLDEN_VECTORS)."""
    from repro.capability import Permission as P, make_roots

    rng = random.Random(seed)
    roots = make_roots()
    vectors: List[Tuple] = []
    for _ in range(count):
        base = rng.randrange(0, 1 << 28) & ~0x7
        length = rng.choice([8, 16, 24, 64, 100, 256, 511, 512, 4096, 1 << 16])
        if base + length > (1 << 32):
            continue
        root = roots.memory if rng.random() < 0.7 else roots.executable
        try:
            cap = root.set_address(base).set_bounds(length)
        except Exception:
            continue
        if rng.random() < 0.3:
            cap = cap.clear_perms(P.SD, P.SL)
        if rng.random() < 0.2:
            cap = cap.make_local()
        if rng.random() < 0.2 and not cap.is_executable:
            cap = cap.seal(roots.sealing.set_address(rng.randrange(1, 8)))
        vectors.append(
            (
                f"{pack(cap):016x}",
                cap.tag,
                cap.address,
                cap.base,
                cap.top,
                cap.otype,
                tuple(sorted(p.name for p in cap.perms)),
            )
        )
    return vectors


#: Pinned output of ``generate_vectors()`` — regenerate ONLY when the
#: stored format deliberately changes, and say so in the changelog.
GOLDEN_VECTORS = [
    ('7e05d1e8069771d0', True, 110588368, 110588368, 110588880, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('1e13cee80584de78', True, 92593784, 92593776, 92597888, 0, ('EX', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('7e02317c0431ad18', True, 70364440, 70364440, 70364540, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('5e02f19009244978', True, 153373048, 153373048, 153373072, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('7e025168012be328', True, 19653416, 19653416, 19653480, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('3e03f03805b873f8', True, 95974392, 95974392, 95974456, 0, ('LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e02617007ccb930', True, 130857264, 130857264, 130857328, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e8010200297f408', True, 43512840, 43512840, 43512864, 2, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('5e0271500ca3c738', True, 212059960, 212059960, 212059984, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('3f914da6056daa60', True, 91073120, 91073120, 91077216, 6, ('LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('1e03900806d7fdc8', True, 114818504, 114818504, 114818568, 0, ('EX', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('3e04512801321850', True, 20060240, 20060240, 20060752, 0, ('LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e02215004abb510', True, 78361872, 78361872, 78361936, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e82f07805c3a378', True, 96707448, 96707448, 96707704, 2, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('5e0321a008da8390', True, 148538256, 148538256, 148538272, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('6e00512806005828', True, 100685864, 100685864, 100686120, 0, ('GL', 'LD', 'LG', 'LM', 'MC')),
    ('5e0361f0013dd9b0', True, 20830640, 20830640, 20830704, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('7e01a0cf0df834d0', True, 234370256, 234370256, 234370767, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e02317c0164db18', True, 23386904, 23386904, 23387004, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e00e088081cec70', True, 136113264, 136113264, 136113288, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('3e5372ba0d083b98', True, 218643352, 218643344, 218647456, 1, ('LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('1e01e1f00ebff4f0', True, 247461104, 247461104, 247461360, 0, ('EX', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('6e01c0e80a7fb0e0', True, 176140512, 176140512, 176140520, 0, ('GL', 'LD', 'LG', 'LM', 'MC')),
    ('7f41309706b39a98', True, 112433816, 112433816, 112434327, 5, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('5e03f0f80f117df8', True, 252804600, 252804600, 252804856, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('3e03f00809c403f8', True, 163841016, 163841016, 163841032, 0, ('LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e11d1e807ce2e80', True, 130952832, 130952832, 130956928, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('5e03a0d001fc17d0', True, 33298384, 33298384, 33298640, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('7e0130a006f6c698', True, 116835992, 116835992, 116836000, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('5e01e0f80a9cd8f0', True, 178051312, 178051312, 178051320, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('1e04b15807c2bcb0', True, 130202800, 130202800, 130203312, 0, ('EX', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('5e01e108009b34f0', True, 10171632, 10171632, 10171656, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('5e01a0e80513e6d0', True, 85190352, 85190352, 85190376, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('7e0780c009ac6380', True, 162292608, 162292608, 162293120, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('5e0321a00c234190', True, 203637136, 203637136, 203637152, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('7e22723a01c739b8', True, 29833656, 29833472, 29899264, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e02719c040d8b38', True, 67996472, 67996472, 67996572, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('3e02d1670ea6df68', True, 245817192, 245817192, 245817703, 0, ('LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e00908804b31248', True, 78844488, 78844488, 78844552, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('6e2344a30b57a2f0', True, 190292720, 190292480, 190358272, 0, ('GL', 'LD', 'LG', 'LM', 'MC')),
    ('3e03309806d98f98', True, 114921368, 114921368, 114921624, 0, ('LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e022120073e0b10', True, 121506576, 121506576, 121506592, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('6e11dfef0a040ef0', True, 168038128, 168038128, 168042224, 0, ('GL', 'LD', 'LG', 'LM', 'MC')),
    ('7e03f000089fcff8', True, 144691192, 144691192, 144691200, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('5e03008008138d80', True, 135499136, 135499136, 135499392, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('1e00709c0f6f1e38', True, 258940472, 258940472, 258940572, 0, ('EX', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('7ec3c0e00e259be0', True, 237345760, 237345760, 237346016, 3, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e00805805d68c40', True, 97946688, 97946688, 97946712, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e422150008f5f10', True, 9395984, 9395984, 9396048, 1, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e07309801491f30', True, 21569328, 21569328, 21569840, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('6e02c1a003840d60', True, 58985824, 58985824, 58985888, 0, ('GL', 'LD', 'LG', 'LM', 'MC')),
    ('5e027150010bf538', True, 17560888, 17560888, 17560912, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('7f12422106619210', True, 107057680, 107057680, 107061776, 4, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('5e06d0680d99a6d0', True, 228173520, 228173520, 228174032, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('1e02215002b8ff10', True, 45678352, 45678352, 45678416, 0, ('EX', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('7e8381d80326c7c0', True, 52873152, 52873152, 52873176, 2, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('3e0180d00cda42c0', True, 215630528, 215630528, 215630544, 0, ('LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('5e02b168009c4358', True, 10240856, 10240856, 10240872, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('7e0001ff09414200', True, 155271680, 155271680, 155272191, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e01711c0784f0b8', True, 126152888, 126152888, 126152988, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e1350a905c27a88', True, 96631432, 96631424, 96635536, 0, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('7e8120f406eb3e90', True, 116080272, 116080272, 116080372, 2, ('GL', 'LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
    ('5e00a068071fc250', True, 119521872, 119521872, 119521896, 0, ('EX', 'GL', 'LD', 'LG', 'LM', 'MC', 'SR')),
    ('3e02613801d33730', True, 30619440, 30619440, 30619448, 0, ('LD', 'LG', 'LM', 'MC', 'SD', 'SL')),
]
