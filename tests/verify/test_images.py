"""The stock audited images verify clean — the headline static claim.

The ``audit`` artifact stakes the repository's reputation on these: every
image the simulator actually runs (bare-metal example, fault-campaign
register walk, the assembly switcher, CoreMark) passes the abstract
interpreter with **zero** violations, and the committed baseline
reproduces bit-exactly.
"""

import pytest

from repro.verify import AUDITED_IMAGES, verify_image


@pytest.fixture(scope="module")
def results():
    return {
        name: verify_image(AUDITED_IMAGES[name]())
        for name in sorted(AUDITED_IMAGES)
    }


def test_the_audited_set_covers_the_workloads():
    assert set(AUDITED_IMAGES) >= {
        "baremetal",
        "regwalk",
        "switcher",
        "coremark",
    }


def test_every_stock_image_is_violation_free(results):
    for name, result in results.items():
        assert result.violations == [], (
            name,
            [f.to_dict() for f in result.violations],
        )


def test_every_image_actually_analysed_code(results):
    for name, result in results.items():
        assert result.instructions > 0, name
        assert result.blocks > 0, name


def test_switcher_proves_the_interesting_properties(results):
    proven = results["switcher"].proven
    # The switcher is where the architecture earns its keep: sealed
    # entry, SCR discipline, stack handoff and cross-compartment return
    # must all be discharged statically, not just not-violated.
    for prop in ("sentry", "scr-access", "store-local", "cross-compartment"):
        assert proven.get(prop, 0) >= 1, (prop, proven)


def test_verdicts_are_deterministic():
    once = verify_image(AUDITED_IMAGES["baremetal"]()).to_dict()
    again = verify_image(AUDITED_IMAGES["baremetal"]()).to_dict()
    assert once == again


def test_to_dict_shape(results):
    doc = results["baremetal"].to_dict()
    assert set(doc) >= {
        "image",
        "instructions",
        "blocks",
        "edges",
        "passes",
        "violations",
        "obligations",
        "proven",
    }
    assert isinstance(doc["violations"], list)
    assert all(isinstance(c, int) for c in doc["obligations"].values())
