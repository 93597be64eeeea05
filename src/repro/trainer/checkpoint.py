"""Model checkpointing and the Model Store (Figure 1).

The training pipeline's output is a trained model landed in a model
store.  This module serializes a :class:`~repro.trainer.model.DLRM` —
embedding tables and dense parameters — to a self-describing byte blob
(``np.savez``) and provides a Tectonic-backed :class:`ModelStore` with
named, versioned snapshots.

Checkpoint/restore is exact: a restored model continues training on the
precise trajectory it left (asserted by the test suite), which also
gives RecD's equivalence guarantees a persistence story.
"""

from __future__ import annotations

import io

import numpy as np

from ..storage.tectonic import TectonicFS
from .model import DLRM

__all__ = ["model_state", "save_model", "load_model", "ModelStore"]

_FORMAT_KEY = "__format__"
_FORMAT_VERSION = 1


def model_state(model: DLRM) -> dict[str, np.ndarray]:
    """Flatten every trainable/stateful array under stable names."""
    state: dict[str, np.ndarray] = {
        _FORMAT_KEY: np.array([_FORMAT_VERSION], dtype=np.int64)
    }
    for name, feature in model.sparse_arch.features.items():
        state[f"emb/{name}/weight"] = feature.table.weight
    for i, p in enumerate(model.dense_params()):
        state[f"dense/{i}"] = p.value
    return state


def save_model(model: DLRM) -> bytes:
    """Serialize the model's state to a compressed npz blob."""
    buf = io.BytesIO()
    np.savez_compressed(buf, **model_state(model))
    return buf.getvalue()


def load_model(model: DLRM, blob: bytes) -> None:
    """Restore state in place.

    The model must have the same architecture: every problem —
    missing keys, extra keys, and shape mismatches — is collected
    before raising, and each category is listed in sorted key order,
    so the error message for a given (checkpoint, model) pair is
    deterministic and tests can assert it exactly.

    Raises:
        ValueError: if the blob is not a checkpoint, carries an
            unsupported format version, or does not match the model's
            architecture key-for-key and shape-for-shape.
    """
    try:
        data = np.load(io.BytesIO(blob))
    except Exception as exc:
        raise ValueError(
            f"not a model checkpoint: unreadable blob ({exc})"
        ) from exc
    with data:
        if _FORMAT_KEY not in data.files:
            raise ValueError(
                "not a model checkpoint: no format marker "
                f"({_FORMAT_KEY!r})"
            )
        version = int(data[_FORMAT_KEY][0])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        expected = model_state(model)
        missing = sorted(set(expected) - set(data.files))
        extra = sorted(set(data.files) - set(expected))
        mismatched = [
            (key, data[key].shape, expected[key].shape)
            for key in sorted(set(expected) & set(data.files))
            if key != _FORMAT_KEY and data[key].shape != expected[key].shape
        ]
        if missing or extra or mismatched:
            parts = []
            if missing:
                parts.append("missing=" + ", ".join(missing))
            if extra:
                parts.append("extra=" + ", ".join(extra))
            if mismatched:
                parts.append(
                    "shape="
                    + ", ".join(
                        f"{key} (checkpoint {ckpt} vs model {want})"
                        for key, ckpt, want in mismatched
                    )
                )
            raise ValueError(
                "checkpoint/model mismatch: " + "; ".join(parts)
            )
        for key, target in expected.items():
            if key == _FORMAT_KEY:
                continue
            target[...] = data[key]


class ModelStore:
    """Versioned model snapshots on the (simulated) Tectonic filesystem,
    under ``model_store/<name>/``."""

    def __init__(self, fs: TectonicFS):
        self.fs = fs

    def _path(self, name: str, version: int) -> str:
        return f"model_store/{name}/v{version:06d}.npz"

    def versions(self, name: str) -> list[int]:
        paths = self.fs.listdir(f"model_store/{name}/")
        return sorted(
            int(p.rsplit("/v", 1)[1].removesuffix(".npz")) for p in paths
        )

    def save(self, name: str, model: DLRM) -> int:
        """Snapshot under the next version number; returns the version."""
        existing = self.versions(name)
        version = (existing[-1] + 1) if existing else 1
        self.fs.write(self._path(name, version), save_model(model))
        return version

    def load(self, name: str, model: DLRM, version: int | None = None) -> int:
        """Restore the given (default: latest) version into ``model``."""
        existing = self.versions(name)
        if not existing:
            raise FileNotFoundError(f"no snapshots for {name!r}")
        version = existing[-1] if version is None else version
        if version not in existing:
            raise FileNotFoundError(f"{name!r} has no version {version}")
        load_model(model, self.fs.read(self._path(name, version)))
        return version
