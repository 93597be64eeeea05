"""The paper's figures and tables at benchmark size: one harness over
``FIGURES`` and the stored ``fleet_scaling`` grid.

Every entry of :data:`repro.experiments.figures.FIGURES` — the paper's
figures, its §4.2/§7 ablations and the repo's own claims — runs its
driver at the sizes :data:`CASES` gives it, is printed by the one
``render`` (measured cells beside the paper's, which ``FIGURES``
declares) into ``benchmarks/results/<figure>.txt``, and is held to the
direction the paper reports by its ``CASES`` check.  The simulation
models all communication as exposed (no overlap), so trainer
multipliers run above the paper's; ordering and direction must match.
The fleet claims (width scaling, the copy/shm bend, dedup x width) are
read from the paper profile's ``fleet_scaling`` runs instead of
re-running them.
"""

import functools
import inspect

import numpy as np
import pytest

from repro.datagen import FeatureKind
from repro.experiments import FIGURES, figures, get_profile, render, run_grid
from repro.experiments.figures import FLEET_SCALING


def _fig3(res):
    stats = res.partition_stats
    assert 14.0 < stats["mean"] < 19.0
    assert stats["tail_1000"] >= 1
    assert res.batch_mean_interleaved < 2.0
    assert res.batch_mean_clustered > 10.0


def _fig4(rep):
    user = [f for f in rep.features if f.kind is FeatureKind.USER]
    item = [f for f in rep.features if f.kind is FeatureKind.ITEM]
    assert 0.72 < rep.mean_exact < 0.88
    assert rep.mean_partial > rep.mean_exact
    assert rep.byte_weighted_partial > rep.byte_weighted_exact
    assert np.mean([f.exact_fraction for f in user]) > np.mean(
        [f.exact_fraction for f in item]
    )


def _fig7(rows):
    for r in rows:
        # direction: RecD wins on all three axes for every RM
        assert r.trainer_x > 1.2, r.rm
        assert r.reader_x > 1.1, r.rm
        assert r.storage_x > 1.3, r.rm
    by_rm = {r.rm: r for r in rows}
    # RM1's heavy sequence usage gives it the largest trainer gain (paper)
    assert by_rm["RM1"].trainer_x >= by_rm["RM2"].trainer_x
    # RM3's lower samples/session gives it the smallest storage gain
    assert by_rm["RM3"].storage_x <= by_rm["RM1"].storage_x
    assert by_rm["RM3"].storage_x <= by_rm["RM2"].storage_x


def _fig8(rows):
    for r in rows:
        bt = r.baseline.total
        # baseline shape: A2A is a significant exposed component
        assert r.baseline.a2a / bt > 0.25, r.rm
        # RecD at least halves exposed A2A (paper: halves across all RMs)
        assert r.recd.a2a <= 0.55 * r.baseline.a2a, r.rm
        # iteration time shrinks at the same batch size
        assert r.recd_normalized["total"] < 0.8, r.rm
    by_rm = {r.rm: r for r in rows}
    # RM1's GEMM benefits most (transformer dedup)
    rm1 = by_rm["RM1"]
    assert rm1.recd.gemm < rm1.baseline.gemm


def _fig9(stages):
    norm = [s.normalized for s in stages]
    assert norm[0] == pytest.approx(1.0)
    # clustering alone is necessary but not sufficient (paper's point)
    assert norm[1] == pytest.approx(1.0, abs=0.35)
    # every RecD stage strictly improves
    assert norm[2] > max(norm[0], norm[1])
    assert norm[3] > norm[2]
    assert norm[4] >= norm[3] * 0.95
    # the full stack is a multi-x win
    assert norm[4] > 1.8


def _fig10(rows):
    for r in rows:
        bt = r.baseline.total
        # fills dominate baseline reader CPU (paper's observation)
        assert r.baseline.fill / bt > 0.4, r.rm
        # RecD cuts fill CPU by 30%+ (paper: 33-50%)
        assert r.recd.fill < 0.7 * r.baseline.fill, r.rm
        # convert rises (hashing overhead)...
        assert r.recd.convert > r.baseline.convert, r.rm
        # ...but conversion stays a small share of total reader CPU
        assert r.recd.convert / bt < 0.25, r.rm
        # process gets cheaper with dedup inputs
        assert r.recd.process <= r.baseline.process, r.rm
        # net reader CPU falls
        assert r.recd_normalized["total"] < 0.85, r.rm


def _table2(rows):
    by = {r.config: r for r in rows}
    base, recd = by["Baseline"], by["RecD"]
    dbig, b3x = by["RecD + EMB D1.5x"], by["RecD + B3x"]
    # baseline fills GPU memory (capacity calibrated that way, like §6.1)
    assert base.max_mem_util == pytest.approx(0.999, abs=0.01)
    assert base.max_mem_util > base.avg_mem_util
    # RecD frees a large fraction of memory and lifts QPS + efficiency
    assert recd.max_mem_util < 0.6
    assert recd.norm_qps > 1.3
    assert recd.norm_compute_efficiency > 1.3
    # freed memory reinvested: bigger dims fit; bigger batch lifts QPS more
    assert recd.max_mem_util < dbig.max_mem_util <= 1.0
    assert dbig.norm_compute_efficiency > recd.norm_compute_efficiency
    assert b3x.norm_qps > recd.norm_qps
    assert b3x.max_mem_util <= 1.0


def _table3(rows):
    by = {r.config: r for r in rows}
    b, c, i = by["Baseline"], by["with Cluster"], by["with IKJT"]
    # clustering: read bytes drop sharply (paper: 538 -> 179, a 3x cut)
    assert c.bytes.read < 0.6 * b.bytes.read
    assert c.bytes.decoded == pytest.approx(b.bytes.decoded, rel=0.02)
    # IKJT: send bytes drop, read unchanged (paper: 837 -> 713)
    assert i.bytes.read == pytest.approx(c.bytes.read, rel=0.02)
    assert i.bytes.decoded < 0.9 * c.bytes.decoded


def _table4(res):
    scribe_x, storage_x, fill_cut, convert_up, process_cut, o56_x, o7_x = res.values()
    assert scribe_x > 1.15
    assert storage_x > 1.5
    assert fill_cut > 0.3
    assert convert_up > 0.0
    assert process_cut > 0.0
    assert o56_x > 1.0
    assert o7_x > o56_x


def _scribe(res):
    gain = res["session"] / res["random"]
    assert res["session"] > res["random"]
    assert gain > 1.2


def _single_node(res):
    assert res["speedup"] > 1.4


def _accuracy(res):
    assert (
        res.clustered_repeat_fraction < res.interleaved_repeat_fraction
    )


def _dedupe_model(points):
    for p in points:
        assert abs(p.measured - p.modeled) / p.modeled < 0.25, (
            p.samples_per_session,
            p.d,
        )
    # the paper's dedup band: S=16.5, d~0.9 -> factor ~4-15
    high = [p for p in points if p.samples_per_session == 16 and p.d >= 0.8]
    assert all(4.0 < p.measured < 16.0 for p in high)


def _partial(res):
    assert res.partial_factor > res.exact_factor
    assert res.partial_captured_fraction > res.exact_captured_fraction


def _downsampling(rows):
    base, session = rows["per-sample (base)"], rows["per-session (§7)"]
    # comparable retained volume...
    assert 0.5 < base["samples"] / session["samples"] < 2.0
    # ...but per-session keeps S (and the dedupe factor) high
    assert session["S"] > 2.0 * base["S"]
    assert session["S"] == pytest.approx(rows["full partition"]["S"], rel=0.25)
    assert session["dedupe factor"] > base["dedupe factor"]


def _grouping(rows):
    synced, unsynced = rows["synced"], rows["unsynced"]
    # synchronized features: grouping strictly saves (one lookup, same dedup)
    assert synced["grouped bytes"] < synced["2x singleton bytes"]
    assert synced["grouped dedupe"] == pytest.approx(synced["solo-a dedupe"], rel=0.01)
    # the §4.2 invariant: unsynchronized rows stay un-deduplicated, so the
    # group's factor drops below the solo factor...
    assert unsynced["grouped dedupe"] < unsynced["solo-a dedupe"]
    # ...but correctness is never at risk
    assert synced["lossless"] and unsynced["lossless"]


def _comm_overlap(rows):
    mults = {label.split()[1]: cells["RecD/baseline"] for label, cells in rows.items()}
    # more overlap -> baseline hides more A2A -> RecD's relative win shrinks
    assert mults["0.75"] < mults["0.25"] <= mults["0.00"]
    # RecD still wins at every overlap level
    assert all(m > 1.2 for m in mults.values())


def _threshold(rows):
    nbytes = {label.split()[1]: cells["batch bytes"] for label, cells in rows.items()}
    # deduplicating the clearly-profitable features shrinks the batch...
    assert nbytes["1.50"] < nbytes["8.00"]
    # ...and a permissive threshold buys little beyond the paper default
    assert nbytes["1.00"] >= nbytes["1.50"] * 0.95


def _encodings(rows):
    # the selector picks the right family for each shape...
    chosen = {column: cells["chosen"] for column, cells in rows.items()}
    assert chosen == dict(lengths_fixed="RLE", country_ids="DICT", history_ids="VARINT")
    # ...and the picks are actually the small ones
    fixed = rows["lengths_fixed"]
    assert fixed["RLE"] == min(fixed[enc] for enc in ("PLAIN", "VARINT", "RLE", "DICT"))
    assert rows["country_ids"]["DICT"] < rows["country_ids"]["VARINT"]


def _freshness(runs):
    rr, wt = runs["round_robin"], runs["freshness-weighted"]
    # the invariant first: scheduling policy never touches a loss
    for a, b in zip(rr.jobs, wt.jobs, strict=True):
        assert a.name == b.name
        assert list(a.training.losses) == list(b.training.losses)
    # the headline: the lag-boosted weights cut the tail
    assert wt.tier.freshness.p99_lag_seconds < rr.tier.freshness.p99_lag_seconds


def _o6_memory(res):
    assert res["dense"] > res["jagged"]


#: figure -> (the sizes its driver runs at, its direction assertions)
CASES = {
    "fig3": (dict(num_sessions=100_000, seed=0), _fig3),
    "fig4": (dict(num_features=733, num_sessions=20_000, seed=0), _fig4),
    "fig7": (dict(scale=1.0, num_sessions=220, seed=0), _fig7),
    "fig8": (dict(scale=1.0, num_sessions=220, seed=0), _fig8),
    "ablation": (dict(scale=1.0, num_sessions=220, seed=0), _fig9),
    "fig10": (dict(scale=1.0, num_sessions=200, seed=0), _fig10),
    "table2": (dict(scale=1.0, num_sessions=220, seed=0), _table2),
    "table3": (dict(scale=1.0, num_sessions=220, seed=0), _table3),
    "table4": (dict(scale=1.0, num_sessions=220, seed=0), _table4),
    "scribe": (dict(scale=1.0, num_sessions=250, seed=0), _scribe),
    "single-node": (dict(scale=0.5, num_sessions=250, seed=0), _single_node),
    "accuracy": (dict(scale=0.5, num_sessions=200, train_batches=6, seed=0), _accuracy),
    "dedupe-model": (dict(seed=0), _dedupe_model),
    "partial": (dict(num_sessions=150, seed=0), _partial),
    "downsampling": (dict(num_sessions=400, seed=6), _downsampling),
    "grouping": (dict(seed=2), _grouping),
    "comm-overlap": (dict(scale=1.0, num_sessions=220, seed=0), _comm_overlap),
    "threshold": (dict(seed=5), _threshold),
    "encodings": (dict(seed=9), _encodings),
    "freshness": (dict(scale=1.0, num_sessions=60, seed=0), _freshness),
    "o6-memory": (dict(seed=1), _o6_memory),
}


def _once(driver):
    """``driver`` memoised on its bound arguments (defaults applied)."""
    signature, results = inspect.signature(driver), {}

    @functools.wraps(driver)
    def cached(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments.items())
        if key not in results:
            results[key] = driver(*args, **kwargs)
        return results[key]

    return cached


@pytest.fixture(scope="module", autouse=True)
def drivers_run_once():
    """Every driver is cached per (name, sizes) for the module, under
    its own name in ``figures`` — so a driver that calls another's
    (Table 4 takes its last two cells from Fig 9) reuses the rows."""
    with pytest.MonkeyPatch.context() as patch:
        for fig in FIGURES.values():
            patch.setattr(figures, fig.run.__name__, _once(fig.run))
        yield


@pytest.mark.parametrize("name", FIGURES)
def test_figure(name, emit):
    fig = FIGURES[name]
    assert name in CASES, f"{name} is in FIGURES but has no benchmark case"
    sizes, check = CASES[name]
    rows = getattr(figures, fig.run.__name__)(**sizes)
    emit(fig.title, render(fig, rows), name=name)
    check(rows)


def _wall(record) -> float:
    return record.metrics["fleet_modeled_wall_seconds"]


def _delivered(record) -> float:
    return record.reports["fleet"]["modeled_delivered_wall_seconds"]


def _transport(record) -> float:
    return record.metrics["fleet_transport_wait_seconds"]


def _fleet_widths(rows):
    """The sizing curve: every width scans the serial run's batches, and
    sharding buys real parallel headroom (the modeled wall-clock is the
    straggler shard's) well before 4 workers."""
    curve = rows.curves[False, "copy"]
    merged = [r.reports["fleet"]["merged"] for r in curve.values()]
    assert len({(m["samples"], m["batches"]) for m in merged}) == 1
    assert min(_wall(curve[1]) / _wall(curve[width]) for width in (2, 4)) >= 1.5


def _transport_bend(rows):
    """Wide fleets x transport: decode parallelizes with width, but every
    ``copy`` batch pays a serial handoff at the consumer, so its
    delivered wall floors at the transport wait (the Amdahl bend); ``shm``
    charges nothing and keeps tracking the decode wall."""
    copy, shm = rows.wide["copy"], rows.wide["shm"]
    narrow, widest = min(copy), max(copy)
    for width in copy:
        c, s = copy[width], shm[width]
        assert _transport(s) == 0.0 and _delivered(s) == _wall(s)
        assert _transport(c) > 0.0
        assert _delivered(c) <= _delivered(copy[narrow])
        # shm's delivered wall never trails copy's, and beats it strictly
        # once copy goes transport-bound
        assert _delivered(s) <= _delivered(c)
        if _transport(c) > _wall(c):
            assert _delivered(s) < _delivered(c)
    # decode itself keeps scaling...
    assert _delivered(shm[widest]) < _delivered(shm[narrow])
    # ...and the bend, attributed: at the widest width the copy fleet's
    # delivered wall IS the serial copy handoff, not the decode wall
    assert _delivered(copy[widest]) == _transport(copy[widest]) > _wall(copy[widest])


def _dedup_width(rows):
    """Session-dedup x width: at every width the deduped stream trains
    bit-identically and its fleet finishes faster.  Only convert/process
    shrink with the byte factor ``f`` (fill re-reads the same storage
    bytes), so the predicted margin is ``total / (fill + convert +
    process / f)``; the realized widest-width speedup keeps >= 85 % of it
    (dedup pays real hashing the prediction ignores)."""
    base, dedup = rows.curves[False, "copy"], rows.curves[True, "copy"]
    for width, b in base.items():
        d = dedup[width]
        assert d.losses == b.losses
        assert d.metrics["reader_bytes_decoded"] < b.metrics["reader_bytes_decoded"]
        assert d.metrics["reader_bytes_expanded"] == b.metrics["reader_bytes_decoded"]
        assert _wall(d) < _wall(b)
    widest = max(base)
    cpu = base[widest].reports["fleet"]["merged"]["cpu"]
    factor = dedup[widest].metrics["dedupe_byte_factor"]
    predicted = cpu["total"] / (cpu["fill"] + cpu["convert"] + cpu["process"] / factor)
    assert _wall(base[widest]) / _wall(dedup[widest]) >= 1.0 + 0.85 * (predicted - 1.0)
    # dedup at the widest width is the fastest configuration stored
    assert _wall(dedup[widest]) == min(map(_wall, [*base.values(), *dedup.values()]))


def test_fleet_scaling(run_store, emit):
    """The paper profile's ``fleet_scaling`` grid, read from the store
    (resume-on-rerun skips every point a profile run already stored) and
    held to its three claims."""
    outcome = run_grid(get_profile("paper").grid("fleet_scaling"), run_store, profile="paper")
    rows = FLEET_SCALING.rows(outcome.records)
    emit(FLEET_SCALING.title, render(FLEET_SCALING, rows), name="fleet-scaling")
    for check in (_fleet_widths, _transport_bend, _dedup_width):
        check(rows)
