"""Semantic device-model checks."""

from repro.device import (
    PowerState,
    PowerStateMachine,
    Transition,
    validate_machine,
)
from repro.device.validate import ERROR, INFO, WARNING


def codes(machine):
    return {i.code for i in validate_machine(machine)}


def test_clean_model_has_no_issues(device3):
    assert validate_machine(device3) == []


def test_unreachable_state_flagged():
    states = [
        PowerState("on", 1.0, can_service=True),
        PowerState("island", 0.5),
    ]
    machine = PowerStateMachine("m", states, [], initial_state="on")
    assert "unreachable-state" in codes(machine)


def test_no_return_path_flagged():
    states = [
        PowerState("on", 1.0, can_service=True),
        PowerState("pit", 0.1),
    ]
    trs = [Transition("on", "pit", 0, 0)]
    machine = PowerStateMachine("m", states, trs, initial_state="on")
    assert "no-return-path" in codes(machine)


def test_useless_sleep_flagged():
    states = [
        PowerState("on", 1.0, can_service=True),
        PowerState("hot_rest", 1.5),
    ]
    trs = [Transition("on", "hot_rest", 0, 0), Transition("hot_rest", "on", 0, 0)]
    machine = PowerStateMachine("m", states, trs, initial_state="on")
    assert "useless-sleep" in codes(machine)


def test_zero_cost_deep_sleep_flagged():
    states = [
        PowerState("on", 1.0, can_service=True),
        PowerState("free_sleep", 0.0),
    ]
    trs = [Transition("on", "free_sleep", 0, 0), Transition("free_sleep", "on", 0, 0)]
    machine = PowerStateMachine("m", states, trs, initial_state="on")
    assert "zero-cost-deep-sleep" in codes(machine)


def test_dominated_state_flagged():
    states = [
        PowerState("on", 1.0, can_service=True),
        PowerState("bad", 0.5),   # higher power AND higher cost than "good"
        PowerState("good", 0.1),
    ]
    trs = [
        Transition("on", "bad", 2.0, 2.0),
        Transition("bad", "on", 2.0, 2.0),
        Transition("on", "good", 0.5, 0.5),
        Transition("good", "on", 0.5, 0.5),
    ]
    machine = PowerStateMachine("m", states, trs, initial_state="on")
    assert "dominated-state" in codes(machine)


def test_issue_str_format():
    states = [PowerState("on", 1.0, can_service=True), PowerState("island", 0.5)]
    machine = PowerStateMachine("m", states, [], initial_state="on")
    issue = validate_machine(machine)[0]
    assert issue.code in str(issue)
    assert issue.severity in (INFO, WARNING, ERROR)
