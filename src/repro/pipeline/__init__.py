"""Per-core cycle-cost models for Flute and Ibex."""

import enum

from .model import (
    BlockCharge,
    CoreModel,
    CoreTimingParams,
    flute_params,
    ibex_params,
)


class CoreKind(enum.Enum):
    """Which of the paper's two implementations is being modelled."""

    FLUTE = "flute"
    IBEX = "ibex"


def make_core_model(kind: CoreKind, load_filter_enabled: bool = False) -> CoreModel:
    """Build the timing model for one of the paper's cores."""
    params = flute_params() if kind is CoreKind.FLUTE else ibex_params()
    return CoreModel(params, load_filter_enabled=load_filter_enabled)


__all__ = [
    "BlockCharge",
    "CoreKind",
    "CoreModel",
    "CoreTimingParams",
    "flute_params",
    "ibex_params",
    "make_core_model",
]
