"""Bounded explicit-state exploration of the tier's scheduling core.

A breadth-first search over every event sequence of a small tier, run
on the pure transitions of ``repro.reader.tier_scheduler`` (``admit``,
``remove``, ``plan_round``, ``settle``) with no fleet.  Bounds: start
width 1..3 (the autoscaler keeps it within 1..3), at most 4 jobs and
never more than twice the start width (the tier's admission limit),
both policies, 1..4 jobs registered before the loop opens, and
``DEPTH`` events.  Events:

* **arrive** — a mid-run admission, weight 1 or 3, under the next name;
* **preempt** a job;
* **gate** / **ungate** a job (its next epoch has not / has landed);
* **round** — the served jobs report low or high reader demand, and the
  autoscaler proposes one reader fewer, the same, or one more (blind
  to the floor: the core must apply it).  A fixed-width tier is the
  autoscaler that always proposes the same width, so it is covered.

Jobs never run out of epochs, so progress changes no later decision:
states are deduplicated by value with progress dropped, the cursor
taken mod 12 (every runnable-set size divides it), demand scaled to the
largest observed (the allocator reads only its ratios), weight and
demand erased under ``round_robin`` (which reads neither), and jobs
renamed a, b, c, d in registration order.  Every reachable state keeps:

* **P1** AG(the allocation sums to the width, or nothing is runnable);
* **P2** AG(no job is skipped in two consecutive rounds in which it is
  runnable);
* **P3** AG(a job admitted mid-run is skipped at most once before it
  is served);
* **P4** AG(the planned width >= ⌈registered jobs / 2⌉ when autoscaled).

Depth 6 keeps the search to a few seconds; each further event costs
roughly 2.5x more.  Run as a script (``PYTHONPATH=src python
tests/reader/test_tier_explorer.py [depth]``) to print the state count
and wall time.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Iterator

from repro.metrics.tier import JobRoundStat
from repro.reader.tier_scheduler import (
    POLICIES,
    JobState,
    TierState,
    admit,
    plan_round,
    remove,
    settle,
)

MAX_WIDTH = 3
MAX_JOBS = 4
DEPTH = 6
NAMES = "abcd"
DEMANDS = (1.0, 4.0)
STEPS = (-1, 0, 1)
CURSOR_PERIOD = 12

#: (core state id, admission cap, gated, skipped, fresh, fresh_skipped);
#: the last four are bit sets over job positions.  ``skipped``: jobs
#: skipped in the last round they were runnable (P2); ``fresh``: jobs
#: admitted mid-run and not yet served (P3); ``fresh_skipped``: the
#: fresh jobs already skipped once (P3).
Node = tuple[int, int, int, int, int, int]


class Violation(AssertionError):
    """A property failed on a reachable state."""


def _names(bits: int) -> list[str]:
    return [NAMES[i] for i in range(MAX_JOBS) if bits >> i & 1]


def _drop(bits: int, i: int) -> int:
    """``bits`` with position ``i`` removed and the later ones shifted
    down (job ``i`` was preempted; the rest are renamed)."""
    return (bits >> (i + 1) << i) | (bits & ((1 << i) - 1))


class Core:
    """The core's transitions, memoized over canonical states.

    States are interned to ids; each transition is computed once per
    distinct (state, input), so the search pays for the core only on
    states it has not met.
    """

    def __init__(self) -> None:
        self.states: list[TierState] = []
        self._ids: dict[tuple, int] = {}
        self._arrive: dict[int, list[tuple[int, tuple]]] = {}
        self._preempt: dict[tuple[int, int], int] = {}
        self._round: dict[tuple[int, int], tuple[int, dict[int, tuple]]] = {}

    def intern(self, state: TierState) -> int:
        """The id of ``state`` with every fact that changes no later
        decision erased."""
        if state.policy == "stall_weighted":
            top = max(
                (j.demand for j in state.jobs if j.demand is not None),
                default=1.0,
            )
            jobs = tuple(
                (j.name, j.weight, None if j.demand is None else j.demand / top)
                for j in state.jobs
            )
        else:
            jobs = tuple((j.name, 1.0, None) for j in state.jobs)
        cursor = state.cursor % CURSOR_PERIOD
        key = (state.width, state.policy, cursor, jobs, state.starved, state.floor)
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self.states)
            self.states.append(
                TierState(
                    state.width,
                    state.policy,
                    cursor=cursor,
                    jobs=tuple(
                        JobState(name, weight, demand=demand)
                        for name, weight, demand in jobs
                    ),
                    starved=state.starved,
                    floor=state.floor,
                )
            )
        return sid

    def arrive(self, sid: int) -> list[tuple[int, tuple]]:
        """A mid-run admission under the next name, at each weight."""
        if sid not in self._arrive:
            state = self.states[sid]
            name = NAMES[len(state.jobs)]
            weights = (1.0, 3.0) if state.policy == "stall_weighted" else (1.0,)
            self._arrive[sid] = [
                (
                    self.intern(admit(state, name, weight, mid_run=True)),
                    ("arrive", name, weight),
                )
                for weight in weights
            ]
        return self._arrive[sid]

    def preempt(self, sid: int, i: int) -> int:
        """Remove job ``i``; the later jobs take the earlier names."""
        if (sid, i) not in self._preempt:
            state = remove(self.states[sid], NAMES[i])
            rename = {j.name: NAMES[k] for k, j in enumerate(state.jobs)}
            state = TierState(
                state.width,
                state.policy,
                cursor=state.cursor,
                jobs=tuple(
                    JobState(rename[j.name], j.weight, demand=j.demand)
                    for j in state.jobs
                ),
                starved=frozenset(rename[n] for n in state.starved),
                floor=state.floor,
            )
            self._preempt[sid, i] = self.intern(state)
        return self._preempt[sid, i]

    def round(self, sid: int, runnable: int) -> tuple[int, dict[int, tuple]]:
        """Plan one round over the ``runnable`` bit set and settle it
        under every demand and autoscaler proposal; check P1 and P4.

        Returns:
            The served bit set and ``{next state id: event}``.
        """
        if (sid, runnable) not in self._round:
            state = self.states[sid]
            names = _names(runnable)
            decision, planned = plan_round(state, names)
            alloc = decision.allocation
            if sum(alloc.values()) != decision.width:
                raise Violation(
                    f"P1: {alloc} does not sum to width {decision.width}"
                )
            if decision.width < math.ceil(len(state.jobs) / 2):
                raise Violation(
                    f"P4: width {decision.width} under the floor of "
                    f"{len(state.jobs)} jobs"
                )
            served = [n for n in names if alloc[n]]
            demands = DEMANDS if state.policy == "stall_weighted" else (1.0,)
            nexts: dict[int, tuple] = {}
            for demand in demands:
                stats = [JobRoundStat(n, alloc[n], demand, 0.0) for n in served]
                for step in STEPS:
                    width = min(max(decision.width + step, 1), MAX_WIDTH)
                    nxt = self.intern(settle(planned, stats, width))
                    nexts.setdefault(nxt, ("round", alloc, demand, width))
            bits = sum(1 << NAMES.index(n) for n in served)
            self._round[sid, runnable] = (bits, nexts)
        return self._round[sid, runnable]


def successors(core: Core, node: Node) -> Iterator[tuple[tuple, Node]]:
    """Every (event, next node) pair out of ``node``; a round raises
    :class:`Violation` when it breaks a property."""
    sid, cap, gated, skipped, fresh, fresh_skipped = node
    count = len(core.states[sid].jobs)
    if count < cap:
        for nxt, event in core.arrive(sid):
            yield event, (
                nxt, cap, gated, skipped, fresh | 1 << count, fresh_skipped
            )
    for i in range(count):
        yield ("preempt", NAMES[i]), (
            core.preempt(sid, i),
            cap,
            _drop(gated, i),
            _drop(skipped, i),
            _drop(fresh, i),
            _drop(fresh_skipped, i),
        )
        toggle = "ungate" if gated >> i & 1 else "gate"
        yield (toggle, NAMES[i]), (
            sid, cap, gated ^ 1 << i, skipped, fresh, fresh_skipped
        )
    runnable = ((1 << count) - 1) & ~gated
    if not runnable:
        return
    served, nexts = core.round(sid, runnable)
    missed = runnable & ~served
    if missed & skipped:
        raise Violation(
            f"P2: {_names(missed & skipped)} skipped in two consecutive "
            "rounds in which they were runnable"
        )
    if missed & fresh_skipped:
        raise Violation(
            f"P3: newcomer {_names(missed & fresh_skipped)} skipped twice "
            "before being served"
        )
    skipped = (skipped & ~runnable) | missed
    fresh &= ~served
    fresh_skipped = (fresh_skipped | missed) & fresh
    for nxt, event in nexts.items():
        yield event, (nxt, cap, gated, skipped, fresh, fresh_skipped)


def explore(depth: int = DEPTH) -> int:
    """Search every node reachable within ``depth`` events; return how
    many distinct nodes there are.

    Raises:
        Violation: naming the start and the event path to the round
            that broke a property.
    """
    core = Core()
    parent: dict[Node, tuple[Node | None, tuple]] = {}
    frontier: list[Node] = []
    for width in range(1, MAX_WIDTH + 1):
        cap = min(2 * width, MAX_JOBS)
        for policy in POLICIES:
            for count in range(1, cap + 1):
                state = TierState(width, policy)
                for name in NAMES[:count]:
                    state = admit(state, name)
                node = (core.intern(state), cap, 0, 0, 0, 0)
                parent[node] = (None, ("width", width, policy, count))
                frontier.append(node)
    for _ in range(depth):
        following = []
        for node in frontier:
            try:
                for event, nxt in successors(core, node):
                    if nxt not in parent:
                        parent[nxt] = (node, event)
                        following.append(nxt)
            except Violation as err:
                path = []
                at: Node | None = node
                while at is not None:
                    at, event = parent[at]
                    path.append(event)
                raise Violation(
                    f"{err}; after {' -> '.join(map(str, reversed(path)))}"
                ) from None
        frontier = following
    return len(parent)


def test_every_reachable_state_keeps_the_four_properties():
    started = time.perf_counter()
    states = explore()
    print(
        f"tier explorer: {states} states to depth {DEPTH} in "
        f"{time.perf_counter() - started:.2f} s"
    )
    assert states > 10_000


if __name__ == "__main__":
    depth = int(sys.argv[1]) if len(sys.argv) > 1 else DEPTH
    started = time.perf_counter()
    states = explore(depth)
    print(
        f"tier explorer: {states} states to depth {depth} in "
        f"{time.perf_counter() - started:.2f} s"
    )
