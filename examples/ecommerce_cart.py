"""E-commerce scenario from the paper's introduction and §4.2.

A shopper's session produces many impressions; the "last N items added
to cart" features (item ID + seller ID) only change when the cart does,
so they are duplicated across the session's samples and updated
*synchronously* — the motivating case for grouped IKJTs.

This example builds that workload, trains a small DLRM twice (baseline
KJT path vs full RecD IKJT path), and shows that the math is identical
while the resources are not.

Run:  python examples/ecommerce_cart.py
"""

import numpy as np

from repro.datagen import (
    DatasetSchema,
    DenseFeatureSpec,
    FeatureKind,
    PoolingKind,
    SparseFeatureSpec,
    TraceConfig,
    generate_partition,
)
from repro.etl.cluster import cluster_order
from repro.reader import DataLoaderConfig, convert_rows
from repro.storage import RowBlock
from repro.trainer import DLRM, DLRMConfig, TrainerOptFlags


def build_schema() -> DatasetSchema:
    return DatasetSchema(
        sparse=(
            # the synchronized cart pair -> one grouped IKJT
            SparseFeatureSpec(
                "cart_item_ids",
                kind=FeatureKind.USER,
                avg_length=20,
                change_prob=0.08,
                group="cart",
                pooling=PoolingKind.ATTENTION,
            ),
            SparseFeatureSpec(
                "cart_seller_ids",
                kind=FeatureKind.USER,
                avg_length=20,
                change_prob=0.08,
                group="cart",
                pooling=PoolingKind.ATTENTION,
            ),
            # browsing history — deduplicated alone
            SparseFeatureSpec(
                "viewed_items",
                kind=FeatureKind.USER,
                avg_length=30,
                change_prob=0.15,
                pooling=PoolingKind.SUM,
            ),
            # the candidate item being ranked — not worth deduplicating
            SparseFeatureSpec(
                "candidate_item",
                kind=FeatureKind.ITEM,
                avg_length=1,
                change_prob=0.95,
                pooling=PoolingKind.SUM,
            ),
        ),
        dense=(DenseFeatureSpec("hour_of_day"), DenseFeatureSpec("cart_value")),
    )


def main() -> None:
    schema = build_schema()
    # the trace as one block, clustered by session (O2)
    trace = RowBlock.from_samples(generate_partition(schema, 120, TraceConfig(seed=7)))
    samples = trace.take(cluster_order(trace.session_id, trace.timestamp))
    batch_size = 128
    print(f"generated {len(samples)} samples from 120 shopper sessions")

    base_cfg = DataLoaderConfig(
        batch_size=batch_size,
        sparse_features=tuple(schema.sparse_names),
        dense_features=tuple(schema.dense_names),
    )
    recd_cfg = DataLoaderConfig(
        batch_size=batch_size,
        sparse_features=("candidate_item",),
        dedup_sparse_features=(
            ("cart_item_ids", "cart_seller_ids"),  # grouped: synchronized
            ("viewed_items",),
        ),
        dense_features=tuple(schema.dense_names),
    )

    model_cfg = DLRMConfig(
        embedding_dim=16,
        bottom_mlp=(32, 16),
        top_mlp=(32, 1),
        num_dense=2,
        max_table_rows=1000,
        seed=1,
    )
    base_model = DLRM(list(schema.sparse), model_cfg, TrainerOptFlags.baseline())
    recd_model = DLRM(list(schema.sparse), model_cfg, TrainerOptFlags.full())

    print("\nstep  baseline-loss  recd-loss   (identical math, §6.2)")
    for step in range(4):
        rows = samples[step * batch_size : (step + 1) * batch_size]
        base_batch, _ = convert_rows(rows, base_cfg)
        recd_batch, _ = convert_rows(rows, recd_cfg)
        cart = recd_batch.ikjts[0]
        lb = base_model.train_step(base_batch)
        lr = recd_model.train_step(recd_batch)
        print(
            f"{step:4d}  {lb:.6f}      {lr:.6f}   "
            f"cart dedupe factor {cart.dedupe_factor():.1f}x"
        )
        assert np.isclose(lb, lr), "RecD must not change the training math"

    c = {
        "baseline": base_model.counters.as_dict(),
        "recd": recd_model.counters.as_dict(),
    }
    print("\nresources over 4 identical batches:")
    for key in ("emb_lookups", "pooling_flops", "activation_bytes"):
        b, r = c["baseline"][key], c["recd"][key]
        print(f"  {key:18s}: baseline {b:12.0f}  recd {r:12.0f}  ({b / r:.1f}x less)")


if __name__ == "__main__":
    main()
