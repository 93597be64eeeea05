"""Every architecture rule holds on the tree and every one of its checks fires on the regression it
was written for.  The rules also fire on each regression the tier-state, event-log, overlap-report,
option, queue-wait and public-name checks were first proven against (a removed test-only name
re-added), one regression per copy of the tree."""

import pytest

from tests.architecture.rules import RULES, TIER_CLOCK, Tree

TREE = Tree.load()
CHECKS = [(name, i) for name, rule in RULES.items() for i in range(len(rule.checks))]
TIER = "reader/tier_scheduler.py"
OVERLAP_FIELD = "    trainer_busy_seconds: float = 0.0\n"
FROM_RUN = "rt.trainer.report, wall_seconds=wall_seconds"

#: regression -> (rule, fixture), or (rule, index of the check whose own fixture it is)
REGRESSIONS = {
    "reader-autoscaler": ("tier_decisions_in_one_state", 1),
    "shrink-streak": ("tier_decisions_in_one_state", (TIER, TIER_CLOCK, TIER_CLOCK + "        self._shrink_streak = 0\n")),
    "autoscaler-attribute": ("tier_decisions_in_one_state", (TIER, TIER_CLOCK, TIER_CLOCK + "        self._autoscaler = None\n")),
    "rounds-list": ("tier_decisions_in_one_state", (TIER, TIER_CLOCK, TIER_CLOCK + "        self._rounds.append(rnd)\n")),
    "min-readers": ("tier_decisions_in_one_state", 2),
    "rescale-outside-step": ("tier_decisions_in_one_state", 3),
    "floor-not-planned": ("tier_decisions_in_one_state", (TIER, "planned.floor, planned.streak,", "1, planned.streak,")),
    "append-outside-emit": ("one_event_log", 0),
    "overlap-streaming-field": ("byte_counters_on_the_ledger", 1),
    "bytes-to-modeled": ("byte_counters_on_the_ledger", 2),
    "reader-to-from-run": ("byte_counters_on_the_ledger", ("pipeline/session.py", FROM_RUN, FROM_RUN + ", reader=rt.report")),
    "track-freshness": ("every_option_has_a_caller", 3),
    "session-scaling": ("every_option_has_a_caller", 4),
    "overlap-queue-field": ("byte_counters_on_the_ledger",
                            ("metrics/overlap.py", OVERLAP_FIELD, OVERLAP_FIELD + "    queue: QueueWaitBreakdown | None = None\n")),
    "overlap-queue-import": ("byte_counters_on_the_ledger", ("metrics/overlap.py", "from .ledger import Folded\n",
                                                             "from .fleet import QueueWaitBreakdown\nfrom .ledger import Folded\n")),
    "queue-to-from-run": ("byte_counters_on_the_ledger", ("pipeline/session.py", FROM_RUN, FROM_RUN + ", queue=fleet.queue")),
    "rescale-overlap": ("byte_counters_on_the_ledger", 4),
    "queue-on-job-round": ("byte_counters_on_the_ledger", 3),
    "grid-exclude": ("every_option_has_a_caller", 5),
    "scribe-shards-keyword": ("every_option_has_a_caller", 6),
    "scribe-shards-field": ("every_option_has_a_caller", 7),
    "prefetch-depth-flag": ("every_option_has_a_caller", ("cli.py", '    _flag("--reader-executor"',
                                                          '    _flag("--prefetch-depth", type=int),\n    _flag("--reader-executor"')),
    "prefetch-depth-fleet": ("every_option_has_a_caller", ("reader/fleet.py", "maxsize=_PREFETCH_DEPTH", "maxsize=self.prefetch_depth")),
    "modeled-get-wait": ("one_shard_scan_one_serial_loop", ("reader/fleet.py", "            yield from batches\n",
                                                            "            self.report.queue.get_wait += 0.0\n            yield from batches\n")),
    "queue-wait-keyword": ("one_shard_scan_one_serial_loop", ("reader/fleet.py", "def _settle(node):\n    return QueueWaitBreakdown(put_wait=0.5)")),
    "fault-plan-seeded": ("public_names_have_callers", ("sim/faults.py", "    def fleet_faults(self", "    @classmethod\n    def seeded("
                                                        "cls, seed: int) -> FaultPlan:\n        return cls(seed=seed)\n\n    def fleet_faults(self")),
    "evaluation-module": ("public_names_have_callers", ("trainer/evaluation.py", "def normalized_entropy(p, y):\n    return 1.0")),
    "run-store-experiments": ("public_names_have_callers", ("experiments/store.py", "    def metric(\n",
                                                            "    def experiments(self):\n        return []\n\n    def metric(\n")),
    "scaling-trace-actions": ("public_names_have_callers", ("metrics/scaling.py", "    @property\n    def final_width", "    @property\n"
                                                            "    def actions(self):\n        return []\n\n    @property\n    def final_width")),
    "lengths-from-offsets": ("public_names_have_callers", ("core/jagged.py", "def lengths_from_offsets(offsets):\n    return np.diff(offsets)")),
    "scribe-seal": ("public_names_have_callers", ("scribe/bus.py", "    def drain(self)", "    def seal(self) -> int:\n        return self.flush()\n\n    def drain(self)")),
}


@pytest.mark.parametrize("name", RULES)
def test_rule_holds_on_the_tree(name):
    assert RULES[name].failures(TREE) == []


@pytest.mark.parametrize("name, i", CHECKS, ids=[f"{name}-{i}" for name, i in CHECKS])
def test_check_fires_on_its_fixture(name, i):
    check = RULES[name].checks[i]
    tree = TREE.overlay(*check.fixture)
    assert check.find(tree)
    assert any(f.startswith(check.error.split("{n}")[0]) for f in RULES[name].failures(tree))


@pytest.mark.parametrize("regression", REGRESSIONS)
def test_rule_fires_on_a_past_regression(regression):
    name, fixture = REGRESSIONS[regression]
    fixture = RULES[name].checks[fixture].fixture if isinstance(fixture, int) else fixture
    assert RULES[name].failures(TREE.overlay(*fixture))
