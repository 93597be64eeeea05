"""Gradient-checked tests for all pooling modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jagged_ops import gather_ranges
from repro.trainer import (
    AttentionPooling,
    EmbeddingActivations,
    MaxPooling,
    MeanPooling,
    SumPooling,
    TransformerPooling,
)


def make_acts(rng, lengths, dim):
    total = sum(lengths)
    values = rng.normal(size=(total, dim))
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    ids = rng.integers(0, 100, size=total)
    return EmbeddingActivations(values, offsets, ids)


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    fx, fg = x.ravel(), g.ravel()
    for i in range(fx.size):
        old = fx[i]
        fx[i] = old + eps
        hi = f()
        fx[i] = old - eps
        lo = f()
        fx[i] = old
        fg[i] = (hi - lo) / (2 * eps)
    return g


POOLINGS = {
    "sum": lambda dim, rng: SumPooling(),
    "mean": lambda dim, rng: MeanPooling(),
    "max": lambda dim, rng: MaxPooling(),
    "attention": lambda dim, rng: AttentionPooling(dim, rng=rng),
    "transformer": lambda dim, rng: TransformerPooling(dim, rng=rng),
}


@pytest.mark.parametrize("name", list(POOLINGS))
def test_input_gradients_match_numeric(name):
    rng = np.random.default_rng(7)
    dim = 3
    pool = POOLINGS[name](dim, rng)
    acts = make_acts(rng, [2, 0, 3, 1], dim)
    # a fixed random projection makes the scalar loss sensitive everywhere
    proj = rng.normal(size=(4, dim))

    def loss():
        return float((pool.forward(acts) * proj).sum())

    out = pool.forward(acts)
    dacts = pool.backward(proj)
    assert dacts.shape == acts.values.shape
    np.testing.assert_allclose(
        dacts, numeric_grad(loss, acts.values), atol=1e-5
    )


@pytest.mark.parametrize("name", ["attention", "transformer"])
def test_param_gradients_match_numeric(name):
    rng = np.random.default_rng(8)
    dim = 3
    pool = POOLINGS[name](dim, rng)
    acts = make_acts(rng, [3, 2], dim)
    proj = rng.normal(size=(2, dim))

    def loss():
        return float((pool.forward(acts) * proj).sum())

    pool.forward(acts)
    for p in pool.params():
        p.zero_grad()
    pool.forward(acts)
    pool.backward(proj)
    for p in pool.params():
        np.testing.assert_allclose(
            p.grad, numeric_grad(loss, p.value), atol=1e-5,
            err_msg=f"{name} param {p.shape}",
        )


@pytest.mark.parametrize("name", list(POOLINGS))
def test_empty_segments_pool_to_zero(name):
    rng = np.random.default_rng(9)
    dim = 4
    pool = POOLINGS[name](dim, rng)
    acts = make_acts(rng, [0, 2, 0], dim)
    out = pool.forward(acts)
    assert out.shape == (3, dim)
    np.testing.assert_allclose(out[0], 0.0)
    np.testing.assert_allclose(out[2], 0.0)


@pytest.mark.parametrize("name", list(POOLINGS))
def test_backward_before_forward_raises(name):
    pool = POOLINGS[name](3, np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        pool.backward(np.zeros((1, 3)))


# -- TransformerPooling: full rows skip the padding -----------------------


def _always_padded(acts):
    """The padded packing for every batch, full rows included: what
    ``TransformerPooling._to_dense`` returns for a ragged batch."""
    lengths = np.diff(acts.offsets)
    B, L, D = lengths.size, int(lengths.max()), acts.values.shape[1]
    X = np.zeros((B, L, D))
    mask = np.arange(L)[None, :] < lengths[:, None]
    X[mask] = acts.values
    return X, mask


@pytest.mark.parametrize("B", [1, 2, 64, 192])
@pytest.mark.parametrize("L", [1, 12])
@pytest.mark.parametrize("dedup", [False, True], ids=["kjt", "ikjt"])
def test_full_rows_equal_the_padded_path_bit_for_bit(monkeypatch, B, L, dedup):
    """A batch whose rows all hold L values runs on a view of the
    activations with no key mask; the padded, masked path over the same
    batch gives the same output, dX and parameter gradients to the bit.
    ``ikjt`` pools unique rows and reaches the backward through
    ``expand_cache``, as the O7 path does."""
    D = 16
    rng = np.random.default_rng(B * 100 + L)
    U = max(B // 3, 1) if dedup else B
    unique = make_acts(rng, [L] * U, D)
    inverse = rng.permutation(
        np.concatenate([np.arange(U), rng.integers(0, U, B - U)])
    )
    dpooled = rng.normal(size=(B, D))

    def run(padded):
        if padded:
            monkeypatch.setattr(
                TransformerPooling, "_to_dense", staticmethod(_always_padded)
            )
        pool = TransformerPooling(D, rng=np.random.default_rng(1))
        out = pool.forward(unique)
        if dedup:
            src, batch_offsets = gather_ranges(
                np.arange(unique.values.shape[0]), unique.offsets, inverse
            )
            pool.expand_cache(inverse, src, batch_offsets)
        assert (pool._cache["mask"] is None) is not padded
        dX = pool.backward(dpooled)
        monkeypatch.undo()
        return [out, dX] + [p.grad for p in pool.params()]

    full, padded = run(False), run(True)
    assert len(full) == 10
    for got, want in zip(full, padded):
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("lengths", [[3, 1, 3], [2, 2, 2]], ids=["ragged", "full"])
def test_transformer_gradients_match_numeric_on_both_paths(lengths):
    """A ragged batch keeps the masked path and a full one drops it; both
    pass the finite-difference check on dX and every parameter."""
    rng = np.random.default_rng(12)
    dim = 3
    pool = TransformerPooling(dim, rng=rng)
    acts = make_acts(rng, lengths, dim)
    proj = rng.normal(size=(len(lengths), dim))

    def loss():
        return float((pool.forward(acts) * proj).sum())

    pool.forward(acts)
    assert (pool._cache["mask"] is None) == (len(set(lengths)) == 1)
    dacts = pool.backward(proj)
    np.testing.assert_allclose(dacts, numeric_grad(loss, acts.values), atol=1e-5)
    for p in pool.params():
        np.testing.assert_allclose(
            p.grad, numeric_grad(loss, p.value), atol=1e-5, err_msg=f"{p.shape}"
        )


class TestSemantics:
    def test_sum_pooling_values(self):
        acts = EmbeddingActivations(
            np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
            np.array([0, 2, 3]),
            np.zeros(3, dtype=np.int64),
        )
        out = SumPooling().forward(acts)
        np.testing.assert_allclose(out, [[4.0, 6.0], [5.0, 6.0]])

    def test_mean_pooling_values(self):
        acts = EmbeddingActivations(
            np.array([[2.0], [4.0]]), np.array([0, 2]), np.zeros(2, dtype=np.int64)
        )
        np.testing.assert_allclose(MeanPooling().forward(acts), [[3.0]])

    def test_max_pooling_values(self):
        acts = EmbeddingActivations(
            np.array([[1.0, 9.0], [5.0, 2.0]]),
            np.array([0, 2]),
            np.zeros(2, dtype=np.int64),
        )
        np.testing.assert_allclose(MaxPooling().forward(acts), [[5.0, 9.0]])

    # MaxPooling.forward is the one max-pool kernel: the cases below pin
    # its per-row, per-dimension semantics on small hand-made batches

    def test_max_pooling_per_dimension_per_row(self):
        acts = EmbeddingActivations(
            np.array([[1.0, 9.0], [5.0, 2.0], [3.0, 3.0]]),
            np.array([0, 2, 3]),
            np.zeros(3, dtype=np.int64),
        )
        np.testing.assert_allclose(
            MaxPooling().forward(acts), [[5.0, 9.0], [3.0, 3.0]]
        )

    def test_max_pooling_empty_row_between_rows_is_zero(self):
        acts = EmbeddingActivations(
            np.array([[1.0], [2.0], [3.0]]),
            np.array([0, 1, 1, 3]),
            np.zeros(3, dtype=np.int64),
        )
        np.testing.assert_allclose(
            MaxPooling().forward(acts), [[1.0], [0.0], [3.0]]
        )

    def test_max_pooling_all_rows_empty(self):
        acts = EmbeddingActivations(
            np.empty((0, 3)), np.array([0, 0, 0]), np.zeros(0, dtype=np.int64)
        )
        np.testing.assert_allclose(MaxPooling().forward(acts), np.zeros((2, 3)))

    def test_max_pooling_keeps_negative_maxima(self):
        """Only an empty row pools to zero: a row of negatives keeps its
        (negative) maximum rather than being clamped at the pad value."""
        acts = EmbeddingActivations(
            np.array([[-4.0, -1.0], [-2.0, -3.0]]),
            np.array([0, 2, 2]),
            np.zeros(2, dtype=np.int64),
        )
        np.testing.assert_allclose(
            MaxPooling().forward(acts), [[-2.0, -1.0], [0.0, 0.0]]
        )

    def test_attention_is_convex_combination(self):
        """Attention output lies in the convex hull of the segment rows."""
        rng = np.random.default_rng(10)
        pool = AttentionPooling(3, rng=rng)
        acts = make_acts(rng, [4], 3)
        out = pool.forward(acts)[0]
        lo = acts.values.min(axis=0) - 1e-9
        hi = acts.values.max(axis=0) + 1e-9
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_transformer_permutation_of_batch(self):
        """Permuting batch rows permutes outputs (no cross-row leakage)."""
        rng = np.random.default_rng(11)
        pool = TransformerPooling(3, rng=rng)
        a = make_acts(rng, [2, 3], 3)
        out = pool.forward(a)
        # swap the two rows
        values_swapped = np.concatenate([a.values[2:], a.values[:2]])
        b = EmbeddingActivations(
            values_swapped, np.array([0, 3, 5]), a.ids
        )
        out_swapped = pool.forward(b)
        np.testing.assert_allclose(out_swapped[0], out[1], atol=1e-12)
        np.testing.assert_allclose(out_swapped[1], out[0], atol=1e-12)

    def test_flop_counts_positive_and_scale(self):
        rng = np.random.default_rng(0)
        for name, factory in POOLINGS.items():
            pool = factory(8, rng)
            small = pool.flops(100, 8, 10)
            large = pool.flops(1000, 8, 10)
            assert 0 < small < large, name


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
    st.sampled_from([1, 3]),
    st.integers(0, 2**16),
)
def test_property_max_pooling_matches_loop(lengths, dim, seed):
    """MaxPooling.forward equals a per-row loop's max (zero for an empty
    row), and its argmax points at an entry holding that max."""
    rng = np.random.default_rng(seed)
    acts = make_acts(rng, lengths, dim)
    pool = MaxPooling()
    got = pool.forward(acts)
    offsets = acts.offsets
    for i, ln in enumerate(lengths):
        seg = acts.values[offsets[i] : offsets[i + 1]]
        want = seg.max(axis=0) if ln else np.zeros(dim)
        assert got[i].tobytes() == want.tobytes()
        if ln:
            picked = acts.values[pool._argmax[i], np.arange(dim)]
            assert picked.tobytes() == want.tobytes()
        else:
            assert (pool._argmax[i] == -1).all()


# -- cache expansion (the IKJT backward's gather) ----------------------------


def assert_same(a, b, what, bitwise=True):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, what
    if bitwise:
        assert a.tobytes() == b.tobytes(), what
    else:
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12, err_msg=what)


def cache_arrays(pool):
    """Every array a pooling module holds between forward and backward."""
    state = getattr(pool, "_cache", None) or vars(pool)
    return {k: v for k, v in state.items() if isinstance(v, np.ndarray)}


@st.composite
def dedup_cases(draw):
    """Unique-row lengths plus an inverse_lookup referencing every one
    of them, as dedup builds it: a single row behind the whole batch,
    every row referenced exactly once, and anything between."""
    lengths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    if draw(st.integers(0, 3)) == 0:
        lengths = [0] * len(lengths)  # an all-empty feature
    copies = draw(st.lists(st.sampled_from(range(len(lengths))), max_size=8))
    inverse = draw(st.permutations(list(range(len(lengths))) + copies))
    dim = draw(st.sampled_from([1, 3, 16]))
    seed = draw(st.integers(0, 2**16))
    return lengths, np.asarray(inverse, dtype=np.int64), dim, seed


@pytest.mark.parametrize("name", list(POOLINGS))
@settings(max_examples=60, deadline=None)
@given(case=dedup_cases())
def test_expand_cache_equals_forward_on_expanded_batch(name, case):
    """forward(unique) + expand_cache leaves, array for array, the cache
    of forward(expanded batch); backward outputs and parameter grads
    then agree bit for bit — the gather replaces the re-forward."""
    lengths, inverse, dim, seed = case
    rng = np.random.default_rng(seed)
    unique = make_acts(rng, lengths, dim)
    src, batch_offsets = gather_ranges(
        np.arange(unique.values.shape[0]), unique.offsets, inverse
    )
    batch = EmbeddingActivations(
        unique.values[src], batch_offsets, unique.ids[src]
    )
    gathered = POOLINGS[name](dim, np.random.default_rng(1))
    reference = POOLINGS[name](dim, np.random.default_rng(1))
    bitwise = True
    if name == "attention":
        # its score is a matrix-vector product, and OpenBLAS's gemv (and
        # the single-row product NumPy sends there) rounds a row by its
        # position in the matrix: the O7 forward's own pooled output
        # carries that last-bit dependence, which no gather can undo.
        # Bitwise is the claim wherever the BLAS is position-independent.
        W, q = gathered.W.value, gathered.q.value
        XW = unique.values @ W
        H = np.tanh(XW)
        bitwise = (
            XW[src].tobytes() == (batch.values @ W).tobytes()
            and (H @ q)[src].tobytes() == (H[src] @ q).tobytes()
        )

    gathered.forward(unique)
    gathered.expand_cache(inverse, src, batch_offsets)
    reference.forward(batch)

    got, want = cache_arrays(gathered), cache_arrays(reference)
    assert got.keys() == want.keys()
    for key in want:
        assert_same(got[key], want[key], key, bitwise)

    dpooled = rng.normal(size=(inverse.size, dim))
    assert_same(
        gathered.backward(dpooled), reference.backward(dpooled), "dvalues",
        bitwise,
    )
    for p, q in zip(gathered.params(), reference.params()):
        assert_same(p.grad, q.grad, "param grad", bitwise)
