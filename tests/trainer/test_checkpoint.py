"""Tests for model checkpointing and the Model Store."""

import numpy as np
import pytest

from repro.datagen import rm2
from repro.storage import TectonicFS
from repro.trainer import DLRM, DLRMConfig, TrainerOptFlags
from repro.trainer.checkpoint import (
    ModelStore,
    load_model,
    model_state,
    save_model,
)

from .test_model import make_batches


def _model(seed=1, drop_last_feature=False):
    """An RM2 model; ``drop_last_feature`` builds one with a smaller
    feature set (one embedding table fewer, a narrower top MLP)."""
    w = rm2(scale=0.1)
    cfg = DLRMConfig(
        embedding_dim=w.embedding_dim,
        bottom_mlp=tuple(w.bottom_mlp) + (w.embedding_dim,),
        top_mlp=tuple(w.top_mlp),
        num_dense=len(w.schema.dense),
        max_table_rows=200,
        seed=seed,
    )
    sparse = list(w.schema.sparse)
    if drop_last_feature:
        sparse = sparse[:-1]
    return DLRM(sparse, cfg, TrainerOptFlags.baseline()), w


def _last_table_key():
    return f"emb/{rm2(scale=0.1).schema.sparse[-1].name}/weight"


class TestSerialization:
    def test_round_trip_restores_weights(self):
        model, w = _model()
        (batch,) = make_batches(w, dedup=False, n_batches=1, seed=2)
        model.train_step(batch)
        blob = save_model(model)
        fresh, _ = _model(seed=99)  # different init
        load_model(fresh, blob)
        for a, b in zip(
            model.sparse_arch.tables(), fresh.sparse_arch.tables()
        ):
            np.testing.assert_array_equal(a.weight, b.weight)
        for pa, pb in zip(model.dense_params(), fresh.dense_params()):
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_resume_training_is_exact(self):
        """A restored model continues the identical loss trajectory."""
        model, w = _model()
        batches = make_batches(w, dedup=False, n_batches=4, seed=3)
        model.train_step(batches[0])
        blob = save_model(model)
        later = [model.train_step(b) for b in batches[1:]]

        restored, _ = _model(seed=77)
        load_model(restored, blob)
        resumed = [restored.train_step(b) for b in batches[1:]]
        np.testing.assert_allclose(later, resumed, rtol=1e-12)

    def test_state_is_the_weights_and_nothing_else(self):
        """One table weight per sparse feature, one array per dense
        parameter, and the format marker: no optimizer state."""
        model, w = _model()
        state = model_state(model)
        tables = {f"emb/{f.name}/weight" for f in w.schema.sparse}
        dense = {f"dense/{i}" for i in range(len(model.dense_params()))}
        assert set(state) == {"__format__"} | tables | dense

    def test_architecture_mismatch_rejected(self):
        model, _ = _model()
        blob = save_model(model)
        other, _ = _model(drop_last_feature=True)  # one table fewer
        with pytest.raises(ValueError):
            load_model(other, blob)

    def test_corrupt_version_rejected(self):
        import io

        import numpy as np2

        model, _ = _model()
        state = model_state(model)
        state["__format__"] = np2.array([999])
        buf = io.BytesIO()
        np2.savez_compressed(buf, **state)
        with pytest.raises(ValueError):
            load_model(model, buf.getvalue())


class TestLoadModelErrors:
    """load_model reports every problem, in sorted deterministic order."""

    def test_truncated_blob(self):
        model, _ = _model()
        blob = save_model(model)
        with pytest.raises(
            ValueError, match="not a model checkpoint: unreadable blob"
        ):
            load_model(model, blob[:40])

    def test_garbage_blob(self):
        model, _ = _model()
        with pytest.raises(
            ValueError, match="not a model checkpoint: unreadable blob"
        ):
            load_model(model, b"these are not the bytes you seek")

    def test_npz_without_format_marker(self):
        import io

        model, _ = _model()
        buf = io.BytesIO()
        np.savez_compressed(buf, something=np.zeros(3))
        with pytest.raises(
            ValueError,
            match="not a model checkpoint: no format marker \\('__format__'\\)",
        ):
            load_model(model, buf.getvalue())

    def test_version_mismatch_names_the_version(self):
        import io

        model, _ = _model()
        state = model_state(model)
        state["__format__"] = np.array([999])
        buf = io.BytesIO()
        np.savez_compressed(buf, **state)
        with pytest.raises(
            ValueError, match="^unsupported checkpoint version 999$"
        ):
            load_model(model, buf.getvalue())

    def test_mismatch_message_is_exact_and_sorted(self):
        """Missing, extra, and shape problems in one deterministic line."""
        import io

        model, _ = _model()
        state = model_state(model)
        emb_key = sorted(k for k in state if k.startswith("emb/"))[0]
        want_shape = state[emb_key].shape
        del state["dense/1"]
        del state["dense/0"]
        state["zz_bogus"] = np.zeros(1)
        state["aa_bogus"] = np.zeros(1)
        state[emb_key] = np.zeros((3, 3))
        buf = io.BytesIO()
        np.savez_compressed(buf, **state)
        with pytest.raises(ValueError) as err:
            load_model(model, buf.getvalue())
        assert str(err.value) == (
            "checkpoint/model mismatch: "
            "missing=dense/0, dense/1; "
            "extra=aa_bogus, zz_bogus; "
            f"shape={emb_key} (checkpoint (3, 3) vs model {want_shape})"
        )

    def test_feature_set_mismatch_lists_the_table_key(self):
        """A checkpoint of another feature set names the table it lacks
        (missing) or carries beyond the model (extra), then the dense
        layers whose width the feature count sets (shape)."""
        small, _ = _model(drop_last_feature=True)
        full, _ = _model()
        with pytest.raises(ValueError) as err:
            load_model(full, save_model(small))
        assert str(err.value).startswith(
            f"checkpoint/model mismatch: missing={_last_table_key()}; shape="
        )
        with pytest.raises(ValueError) as err:
            load_model(small, save_model(full))
        assert str(err.value).startswith(
            f"checkpoint/model mismatch: extra={_last_table_key()}; shape="
        )

    def test_optimizer_state_in_the_blob_is_extra(self):
        """The checkpoint holds weights only: a blob carrying an
        optimizer's per-row state beside them is refused, naming just
        those arrays."""
        import io

        model, _ = _model()
        state = model_state(model)
        table = _last_table_key()
        acc = table.replace("emb/", "adagrad/").replace("weight", "accumulator")
        state[acc] = np.zeros(state[table].shape[0])
        buf = io.BytesIO()
        np.savez_compressed(buf, **state)
        with pytest.raises(ValueError) as err:
            load_model(model, buf.getvalue())
        assert str(err.value) == f"checkpoint/model mismatch: extra={acc}"

    def test_missing_table_alone_is_one_part(self):
        import io

        model, _ = _model()
        state = model_state(model)
        del state[_last_table_key()]
        buf = io.BytesIO()
        np.savez_compressed(buf, **state)
        with pytest.raises(ValueError) as err:
            load_model(model, buf.getvalue())
        assert str(err.value) == (
            f"checkpoint/model mismatch: missing={_last_table_key()}"
        )

    def test_mismatched_table_capacity_reports_shapes(self):
        small, _ = _model()
        blob = save_model(small)
        big_cfg_model, w = _model()
        cfg = DLRMConfig(
            embedding_dim=w.embedding_dim,
            bottom_mlp=tuple(w.bottom_mlp) + (w.embedding_dim,),
            top_mlp=tuple(w.top_mlp),
            num_dense=len(w.schema.dense),
            max_table_rows=100,  # half the capacity of the checkpoint
            seed=1,
        )
        big = DLRM(list(w.schema.sparse), cfg, TrainerOptFlags.baseline())
        with pytest.raises(
            ValueError, match="checkpoint/model mismatch: shape="
        ) as err:
            load_model(big, blob)
        assert "checkpoint (200," in str(err.value)
        assert "vs model (100," in str(err.value)

    def test_failed_load_leaves_model_untouched(self):
        """The mismatch scan happens before any write-back."""
        model, _ = _model()
        before = {
            k: v.copy() for k, v in model_state(model).items()
        }
        import io

        state = model_state(model)
        del state["dense/0"]
        buf = io.BytesIO()
        np.savez_compressed(buf, **state)
        with pytest.raises(ValueError, match="missing=dense/0"):
            load_model(model, buf.getvalue())
        for k, v in model_state(model).items():
            np.testing.assert_array_equal(v, before[k])


class TestModelStore:
    def test_versioning(self):
        fs = TectonicFS()
        store = ModelStore(fs)
        model, _ = _model()
        assert store.save("rm2", model) == 1
        assert store.save("rm2", model) == 2
        assert store.versions("rm2") == [1, 2]

    def test_load_latest_and_specific(self):
        fs = TectonicFS()
        store = ModelStore(fs)
        model, w = _model()
        store.save("rm2", model)
        (batch,) = make_batches(w, dedup=False, n_batches=1, seed=4)
        model.train_step(batch)
        store.save("rm2", model)

        latest, _ = _model(seed=5)
        assert store.load("rm2", latest) == 2
        np.testing.assert_array_equal(
            latest.sparse_arch.tables()[0].weight,
            model.sparse_arch.tables()[0].weight,
        )
        v1, _ = _model(seed=6)
        assert store.load("rm2", v1, version=1) == 1

    def test_missing_model(self):
        store = ModelStore(TectonicFS())
        model, _ = _model()
        with pytest.raises(FileNotFoundError):
            store.load("nope", model)
        store.save("m", model)
        with pytest.raises(FileNotFoundError):
            store.load("m", model, version=7)

    def test_snapshots_are_immutable(self):
        """Saving to an existing name appends a version; the underlying
        blob paths can never be overwritten in place."""
        fs = TectonicFS()
        store = ModelStore(fs)
        model, _ = _model()
        assert store.save("m", model) == 1
        with pytest.raises(FileExistsError):
            fs.write(store._path("m", 1), b"clobber")
        assert store.save("m", model) == 2

    def test_corrupt_stored_blob_is_reported(self):
        fs = TectonicFS()
        store = ModelStore(fs)
        model, _ = _model()
        store.save("m", model)
        fs.write(store._path("m", 2), b"bit rot")
        with pytest.raises(
            ValueError, match="not a model checkpoint: unreadable blob"
        ):
            store.load("m", model)  # latest (2) is the corrupt one
        assert store.load("m", model, version=1) == 1

    def test_restore_into_mismatched_architecture(self):
        store = ModelStore(TectonicFS())
        model, _ = _model(drop_last_feature=True)
        store.save("m", model)
        other, _ = _model()
        with pytest.raises(ValueError, match=f"missing={_last_table_key()}"):
            store.load("m", other)

