"""Device power models: states, transitions, machines, and presets."""

from .machine import PowerStateMachine
from .power_state import PowerState, Transition
from .presets import (
    PRESETS,
    abstract_three_state,
    get_preset,
    mobile_hard_disk,
    sensor_node_radio,
    strongarm_sa1100,
    two_state,
    wlan_card,
)
from .validate import ModelIssue, validate_machine

__all__ = [
    "PowerState",
    "Transition",
    "PowerStateMachine",
    "PRESETS",
    "get_preset",
    "abstract_three_state",
    "two_state",
    "mobile_hard_disk",
    "strongarm_sa1100",
    "wlan_card",
    "sensor_node_radio",
    "ModelIssue",
    "validate_machine",
]
