"""Landing: the one path from a job's trace to Hive partitions.

Every job's rows reach storage through a :class:`Lander` — generate →
scribe → ETL → land — on the schedule its spec selects.  A static job's
whole table lands before the first scheduling round; a streamed job
closes the loop instead: its lander drains sealed scribe blocks into
Hive micro-partitions as the tier's cost-model clock advances, and the
session's drive loop (``Session.tick``) interleaves those landing ticks
with the shared tier's scheduling rounds, so jobs train on partitions
that did not exist when they were admitted.  Because every tick fires
on modeled time and batch content depends only on row values and
order, a live run's losses are bit-identical to landing the same
stream up front (``Session.land_all_streams``) and training over it —
the invariant the ``repro stream --verify`` gate asserts.
"""

from .lander import Lander, partition_slices, plan_windows

__all__ = ["Lander", "partition_slices", "plan_windows"]
