"""Consistency checks on device power models.

:class:`PowerStateMachine` already rejects structurally broken models at
construction.  The checks here are *semantic*: they flag models that are
well-formed but physically or economically suspicious (a sleep state that
never pays off, an unreachable state, a transition cheaper than staying
put).  They return :class:`ModelIssue` records instead of raising, so
callers can decide what is fatal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .machine import PowerStateMachine

#: Issue severities, mild to fatal.
INFO = "info"
WARNING = "warning"
ERROR = "error"


@dataclass(frozen=True)
class ModelIssue:
    """One finding from :func:`validate_machine`."""

    severity: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.message}"


def _reachable_from(machine: PowerStateMachine, start: str) -> set:
    """States reachable from ``start`` by following transition edges."""
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in machine.targets_from(node):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def validate_machine(machine: PowerStateMachine) -> List[ModelIssue]:
    """Run all semantic checks; return the (possibly empty) issue list.

    Checks
    ------
    - ``unreachable-state``   (error): state not reachable from the initial
      state.
    - ``no-return-path``      (error): a state from which no service state
      is reachable (the device would be stuck unable to serve).
    - ``useless-sleep``       (warning): a non-service state whose break-even
      time is infinite or that draws more power than the home state.
    - ``dominated-state``     (info): a rest state dominated by a deeper one
      (higher power *and* higher round-trip cost), so no rational policy
      uses it.
    - ``zero-cost-deep-sleep`` (warning): a state cheaper than home with a
      free round trip — always-sleep trivially optimal, benchmark would be
      degenerate.
    """
    issues: List[ModelIssue] = []
    home = machine.initial_state
    reachable = _reachable_from(machine, home)
    service = set(machine.service_states())

    for name in machine.state_names:
        if name not in reachable:
            issues.append(
                ModelIssue(
                    ERROR,
                    "unreachable-state",
                    f"state {name!r} is unreachable from initial state {home!r}",
                )
            )

    for name in machine.state_names:
        if not (_reachable_from(machine, name) & service):
            issues.append(
                ModelIssue(
                    ERROR,
                    "no-return-path",
                    f"no service state reachable from {name!r}; device would starve",
                )
            )

    home_power = machine.state(home).power
    rest_metrics = {}
    for name in machine.sleep_states_by_depth(home):
        st = machine.state(name)
        if st.can_service:
            continue
        if st.power >= home_power:
            issues.append(
                ModelIssue(
                    WARNING,
                    "useless-sleep",
                    f"rest state {name!r} draws {st.power} W >= home "
                    f"{home!r} at {home_power} W; it can never save energy",
                )
            )
            continue
        if not (machine.can_transition(home, name) and machine.can_transition(name, home)):
            continue
        rt_energy, rt_latency = machine.round_trip(home, name)
        rest_metrics[name] = (st.power, rt_energy, rt_latency)
        if rt_energy == 0 and rt_latency == 0 and name == machine.deepest_state():
            # a free round trip to a *shallow* rest state (an idle/wait
            # state) is normal; to the deepest state it degenerates the
            # whole policy problem
            issues.append(
                ModelIssue(
                    WARNING,
                    "zero-cost-deep-sleep",
                    f"deepest rest state {name!r} saves power with a free "
                    "round trip; always-sleep is trivially optimal",
                )
            )

    names = list(rest_metrics)
    for i, a in enumerate(names):
        pa, ea, la = rest_metrics[a]
        for b in names[i + 1:]:
            pb, eb, lb = rest_metrics[b]
            if pa >= pb and ea >= eb and la >= lb and (pa, ea, la) != (pb, eb, lb):
                issues.append(
                    ModelIssue(
                        INFO,
                        "dominated-state",
                        f"rest state {a!r} is dominated by {b!r} "
                        "(no rational policy would choose it)",
                    )
                )
            elif pb >= pa and eb >= ea and lb >= la and (pa, ea, la) != (pb, eb, lb):
                issues.append(
                    ModelIssue(
                        INFO,
                        "dominated-state",
                        f"rest state {b!r} is dominated by {a!r} "
                        "(no rational policy would choose it)",
                    )
                )
    return issues
