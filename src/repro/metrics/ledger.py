"""The reader byte ledger, and the field-wise fold behind report
``merge`` / ``as_dict``.

RecD's reader-tier result is a byte story (Table 3: bytes read off
storage vs bytes sent to trainers), so the five byte counters every
reader, fleet and tier round carries live in one value object,
:class:`ByteLedger`, with the only definitions of the two values
derived from them.

The reports that carry it — and the phase breakdowns beside it — all
aggregate the same way: numbers add, nested reports merge, per-batch
sample lists concatenate.  :class:`Folded` derives that ``merge`` and
the matching ``as_dict`` from the dataclass fields, so a report states
only what is *not* additive (``FleetReport.executor_used`` degrades to
``"mixed"``) by overriding ``merge`` for exactly that field.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar

__all__ = ["ByteLedger", "Folded"]

# merge kinds
_ADD, _EXTEND, _MERGE = range(3)
# as_dict kinds
_VALUE, _NESTED, _INLINE = range(3)


class Folded:
    """Mixin for report dataclasses: ``merge`` and ``as_dict`` derived
    from the fields, in field order.

    Each field folds by the type of its default: a number adds, a list
    extends, a nested :class:`Folded` merges.  Anything else (a flag, a
    name) has no additive meaning — the class overrides :meth:`merge`
    with that field's policy and calls ``super().merge(other)`` for the
    rest; declaring such a field without the override is a
    ``TypeError`` the first time the class folds.

    ``as_dict`` emits every non-list field (lists are per-batch sample
    bags; their percentile views serialize instead) plus the properties
    named in :attr:`derived`.
    """

    #: properties ``as_dict`` emits beside the fields
    derived: ClassVar[tuple[str, ...]] = ()
    #: the field the derived values follow (``None``: the last one)
    derived_after: ClassVar[str | None] = None
    #: serialized key per attribute, where it differs from the name
    keys: ClassVar[dict[str, str]] = {}
    #: nested in another report, serialize as that report's own keys
    #: rather than as a sub-dict
    inline: ClassVar[bool] = False

    @classmethod
    def fold(cls, parts):
        """A fresh instance with every part merged in, in order.

        ``None`` parts are skipped (a job that tracked no freshness, a
        run with no fleet queue), so ``fold([x])`` is also how a report
        takes its own copy of ``x``.
        """
        out = cls()
        for part in parts:
            if part is not None:
                out.merge(part)
        return out

    def merge(self, other) -> None:
        """Fold another instance's measurements into this one."""
        for name, kind in _plan(type(self))[0]:
            mine, theirs = getattr(self, name), getattr(other, name)
            if kind == _ADD:
                setattr(self, name, mine + theirs)
            elif kind == _EXTEND:
                mine.extend(theirs)
            else:
                mine.merge(theirs)

    def as_dict(self) -> dict:
        """Serialize to a plain JSON-ready dict (the run-store form)."""
        out = {}
        for key, name, kind in _plan(type(self))[1]:
            value = getattr(self, name)
            if kind == _VALUE:
                out[key] = value
            elif kind == _NESTED:
                out[key] = value.as_dict()
            else:
                out.update(value.as_dict())
        return out


@functools.cache
def _plan(cls: type) -> tuple[tuple, tuple]:
    """``(merge steps, as_dict layout)`` for one report class, computed
    once: ``(field, kind)`` pairs and ``(key, attribute, kind)``
    triples."""
    keys = cls.keys
    derived = [(keys.get(name, name), name, _VALUE) for name in cls.derived]
    steps, layout = [], []
    for f in fields(cls):
        if f.default is not MISSING:
            default = f.default
        elif f.default_factory is not MISSING:
            default = f.default_factory()
        else:
            raise TypeError(
                f"{cls.__name__}.{f.name} needs a default: merging with "
                "a default instance must be the identity"
            )
        key = keys.get(f.name, f.name)
        if isinstance(default, Folded):
            steps.append((f.name, _MERGE))
            layout.append((key, f.name, _INLINE if default.inline else _NESTED))
        elif isinstance(default, list):
            steps.append((f.name, _EXTEND))
        else:
            layout.append((key, f.name, _VALUE))
            if isinstance(default, (int, float)) and not isinstance(
                default, bool
            ):
                steps.append((f.name, _ADD))
            elif cls.merge is Folded.merge:
                raise TypeError(
                    f"{cls.__name__}.{f.name} is not additive: override "
                    "merge() with its policy"
                )
        if f.name == cls.derived_after:
            layout.extend(derived)
    if cls.derived_after is None:
        layout.extend(derived)
    return tuple(steps), tuple(layout)


@dataclass
class ByteLedger(Folded):
    """The reader tier's byte accounting for one scan, round or run.

    ``read`` / ``decoded`` / ``expanded`` are counted per batch by
    :meth:`ReaderNode.run <repro.reader.node.ReaderNode.run>`;
    ``copied`` / ``avoided`` per worker by the fleet's transport
    accounting (exactly one of the two is non-zero).
    """

    #: compressed bytes pulled off storage (Table 3 ingest)
    read: int = 0
    #: preprocessed tensor bytes shipped to trainers (Table 3 egress;
    #: deduped batches ship IKJT slices, so this shrinks under dedup)
    decoded: int = 0
    #: what fully-materialized (non-dedup) batches would have carried;
    #: equals ``decoded`` when no dedup groups are configured
    expanded: int = 0
    #: wire bytes the ``copy`` transport serialized through the
    #: worker→trainer queues (zero under ``shm``)
    copied: int = 0
    #: wire bytes the ``shm`` transport handed over without a copy
    #: (zero under ``copy``)
    avoided: int = 0

    derived = ("saved", "dedupe_factor")
    keys = {
        "read": "read_bytes",
        "decoded": "decoded_bytes",
        "expanded": "expanded_bytes",
        "copied": "bytes_copied",
        "avoided": "copies_avoided",
        "saved": "bytes_saved",
        "dedupe_factor": "dedupe_byte_factor",
    }
    inline = True

    @property
    def saved(self) -> int:
        """Transport bytes dedup removed (expanded minus decoded)."""
        return self.expanded - self.decoded

    @property
    def dedupe_factor(self) -> float:
        """Expanded / decoded byte ratio (1.0 with no dedup savings)."""
        if self.decoded == 0:
            return 1.0
        return self.expanded / self.decoded

    def counters(self) -> dict[str, int]:
        """The five counters alone under their serialized keys (the
        per-row form; :meth:`as_dict` adds the derived values)."""
        return {self.keys[f.name]: getattr(self, f.name) for f in fields(self)}
