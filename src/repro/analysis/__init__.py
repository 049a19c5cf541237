"""Analysis helpers: encoding fragmentation and report formatting."""

from .fragmentation import (
    rule_of_thumb_fragmentation,
    FragmentationPoint,
    average_fragmentation,
    check_cheriot_encoder,
    fragmentation_sweep,
    max_precise_length,
    padded_length,
)
from .energy import (
    EnergyEstimate,
    estimate_energy,
    security_battery_cost,
)
from .reporting import format_series, format_table, size_label

__all__ = [
    "FragmentationPoint",
    "average_fragmentation",
    "check_cheriot_encoder",
    "EnergyEstimate",
    "estimate_energy",
    "security_battery_cost",
    "format_series",
    "format_table",
    "fragmentation_sweep",
    "max_precise_length",
    "padded_length",
    "rule_of_thumb_fragmentation",
    "size_label",
]
