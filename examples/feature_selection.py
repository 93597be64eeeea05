"""The §7 workflow: deciding which features to deduplicate.

An ML engineer characterizes their dataset's features (how often each
value changes, how long the lists are), applies the DedupeFactor model,
and dedups everything above the 1.5 threshold — then validates the
modeled factors against measured in-batch dedup on a real clustered
trace.

Run:  python examples/feature_selection.py
"""

from repro.core import (
    DEFAULT_DEDUPE_THRESHOLD,
    FeatureDedupStats,
    JaggedTensor,
    dedupe_factor,
    measure_feature_stats,
    measured_dedupe_factor,
    select_features_to_dedup,
)
from repro.datagen import (
    DatasetSchema,
    FeatureKind,
    SparseFeatureSpec,
    TraceConfig,
    generate_partition,
)
from repro.etl import samples_per_session
from repro.etl.cluster import cluster_order
from repro.storage import RowBlock


def main() -> None:
    # a feature zoo spanning the duplication spectrum
    specs = [
        SparseFeatureSpec("liked_posts", FeatureKind.USER, 50, 0.03),
        SparseFeatureSpec("shared_posts", FeatureKind.USER, 50, 0.01),
        SparseFeatureSpec("watch_history", FeatureKind.USER, 100, 0.10),
        SparseFeatureSpec("recent_searches", FeatureKind.USER, 10, 0.40),
        SparseFeatureSpec("ranked_item", FeatureKind.ITEM, 1, 0.95),
        SparseFeatureSpec("item_tags", FeatureKind.ITEM, 8, 0.90),
    ]
    schema = DatasetSchema(sparse=tuple(specs))
    S, B = 16.5, 1024

    stats = [
        FeatureDedupStats(f.name, f.avg_length, f.d) for f in specs
    ]
    chosen = select_features_to_dedup(stats, B, S)
    print(f"DedupeFactor model at S={S}, B={B} "
          f"(threshold {DEFAULT_DEDUPE_THRESHOLD}):\n")
    print(f"{'feature':<18s} {'d(f)':>6s} {'l(f)':>6s} {'factor':>8s}  dedup?")
    for f in specs:
        factor = dedupe_factor(f.avg_length, B, S, f.d)
        mark = "yes" if f.name in chosen else "no"
        print(f"{f.name:<18s} {f.d:6.2f} {f.avg_length:6d} {factor:8.2f}  {mark}")

    # validate the model against a real clustered trace
    print("\nvalidation on a generated, clustered trace:")
    trace = RowBlock.from_samples(generate_partition(schema, 300, TraceConfig(seed=3)))
    samples = trace.take(cluster_order(trace.session_id, trace.timestamp))
    for f in specs:
        offsets, values = samples[:B].sparse[f.name]
        jt = JaggedTensor(values, offsets)
        measured = measured_dedupe_factor(jt)
        modeled = dedupe_factor(f.avg_length, B, S, f.d)
        print(
            f"  {f.name:<18s} modeled {modeled:6.2f}  measured {measured:6.2f}"
        )

    # in production the schema "truth" is unknown: estimate d(f)/l(f)
    # from logged samples instead, then select
    print("\nonline characterization (no schema truth):")
    est_stats = measure_feature_stats(samples, [f.name for f in specs])
    est_S = samples_per_session(samples.session_id)
    est_chosen = select_features_to_dedup(est_stats, B, est_S)
    for s_ in est_stats:
        print(
            f"  {s_.name:<18s} d̂={s_.d:5.2f} l̂={s_.avg_length:6.1f} "
            f"-> {'dedup' if s_.name in est_chosen else 'keep as KJT'}"
        )
    assert set(est_chosen) == set(chosen), "online estimate should agree"

    print(
        "\nengineers start from the model's ranking, then tune by observed "
        "trainer throughput (§7)."
    )


if __name__ == "__main__":
    main()
