"""In-memory span tracer for the traced benchmark run.

Spans are opened around calls into mpsl's modules by replacing a function at
the name its callers look it up under (``mpsl.trainer.record_forward`` is
what ``train_epoch`` calls), and by the benchmark's own ``span`` blocks. A
span's self time is its duration minus the durations of its child spans.
Nothing is wrapped while the timed (untraced) measurements run.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method``) as span ``name``.

    ``label`` maps the call's arguments to a suffix of the span name;
    ``count`` maps the call's result to a number kept on the span.
    """

    module: str
    attr: str
    name: str
    label: Callable | None = None
    count: Callable | None = None


def _tape_nodes(result):
    """Node count of the tape ``record_forward`` returns; None once there is no tape."""
    tape = result[0] if isinstance(result, tuple) else result
    nodes = getattr(tape, "nodes", None)
    return None if nodes is None else len(nodes)


def _perturb_kind(args, kwargs):
    spec = kwargs["spec"] if "spec" in kwargs else args[1]
    return spec.kind


HOOKS = (
    Hook("mpsl.trainer", "record_forward", "tape.record_forward", count=_tape_nodes),
    Hook("mpsl.trainer", "backward", "tape.backward"),
    Hook("mpsl.trainer", "Adam.step", "trainer.adam_step"),
    Hook("mpsl.trainer", "evaluate", "trainer.evaluate"),
    Hook("mpsl.cli", "evaluate", "trainer.evaluate"),
    Hook("mpsl.trainer", "forward_inference", "network.forward_inference"),
    Hook("mpsl.network", "merge_weights", "plasticity.merge_weights"),
    Hook("mpsl.network", "membrane_step", "neuron.lif"),
    Hook("mpsl.network", "spike", "neuron.lif"),
    Hook("mpsl.cli", "perturb_dataset", "data.perturb_dataset", label=_perturb_kind),
    Hook("mpsl.trainer", "load_idx", "data.load_idx"),
    Hook("mpsl.trainer", "load_checkpoint", "checkpoint.load_checkpoint"),
    Hook("mpsl.cli", "write_metrics_csv", "metrics.write_metrics_csv"),
)


@dataclass
class Span:
    sid: int
    parent: int | None
    phase: str
    name: str
    start: float
    end: float = 0.0
    children: float = 0.0
    value: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class Tracer:
    """Records spans of one thread; ``phase`` tags every span opened under it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[Span] = []
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        record = Span(self._next_id, parent, self.phase, name, time.perf_counter())
        self._next_id += 1
        self._stack.append(record)
        return record

    def _close(self, record: Span) -> None:
        record.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].children += record.duration
        self.spans.append(record)

    def _wrap(self, fn, hook: Hook):
        def traced(*args, **kwargs):
            name = hook.name
            if hook.label is not None:
                name = f"{name}.{hook.label(args, kwargs)}"
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if hook.count is not None:
                record.value = hook.count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks=HOOKS) -> list[str]:
        """Wrap every hook whose target exists; return the targets that do not."""
        absent = []
        for hook in hooks:
            owner_path, _, attr = f"{hook.module}.{hook.attr}".rpartition(".")
            owner = _resolve(owner_path)
            original = owner.__dict__.get(attr) if owner is not None else None
            if not callable(original):
                absent.append(f"{hook.module}.{hook.attr}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, hook))
        return absent

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def _resolve(path: str):
    """The module or class at a dotted path, or None when it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None
