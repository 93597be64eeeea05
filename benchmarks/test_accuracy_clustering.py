"""E12 / §6.2: clustering's accuracy mechanism.

Paper: without clustering, a session's duplicate samples land in many
batches, so the model applies repeated sparse updates for the same
feature values across iterations and overfits tail values.  Clustering
concentrates each session in one batch — each row's value is seen (and
updated) in far fewer distinct iterations.
"""

from repro.experiments.figures import FIGURES, accuracy_clustering


def test_accuracy_clustering(benchmark, emit):
    res = benchmark.pedantic(
        lambda: accuracy_clustering(
            scale=0.5, num_sessions=200, train_batches=6
        ),
        rounds=1,
        iterations=1,
    )
    lines = FIGURES["accuracy"].lines(res)
    emit("Clustering accuracy mechanism (§6.2)", lines)

    assert (
        res.clustered_repeat_fraction < res.interleaved_repeat_fraction
    )
