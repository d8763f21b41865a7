"""Call probes installed from outside the ``tubeform`` package.

A probe wraps one callable named by its dotted path, for example
``tubeform.sim.SimWorld._world_derivative``. The wrapper passes arguments,
return values and exceptions through untouched; it only reads the clock,
counts the call and, optionally, hands the call to an observer that reads
(never changes) its arguments and result.

A target that no longer resolves (renamed or removed by a refactor) is
reported as ``absent`` instead of raising, so the benchmark keeps running on
a restructured program and says which layer numbers it could not measure.

Spans nest: a probe's self time is its wall time minus the time covered by
probes entered while it ran. Each span is booked under the current *stage*
(``certify``, ``run``, ``loop``, ``report``), so a layer that runs both in
set-up and in the closed loop can be reported for either.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

Observer = Callable[[tuple, dict, object, BaseException | None], None]


def resolve(dotted: str):
    """(owner, attribute name, object) for a dotted path, or None.

    The longest importable prefix is the module; the rest is an attribute
    chain (class, then method).
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


@dataclass
class Span:
    name: str
    stage: str
    start: float
    child: float = 0.0


@dataclass
class Recorder:
    """Self time and call counts per (probe, stage), plus stage boundaries."""

    self_time: dict = field(default_factory=lambda: defaultdict(float))
    incl_time: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counters: dict = field(default_factory=lambda: defaultdict(float))
    stages: list = field(default_factory=lambda: ["outside"])
    stack: list = field(default_factory=list)
    status: dict = field(default_factory=dict)  # dotted target -> "ok" | "absent"
    observer_errors: dict = field(default_factory=lambda: defaultdict(int))
    sampled: set = field(default_factory=set)  # probes whose every (start, duration) is kept
    samples: dict = field(default_factory=lambda: defaultdict(list))

    @property
    def stage(self) -> str:
        return self.stages[-1]

    def enter(self, name: str) -> Span:
        span = Span(name, self.stage, time.perf_counter())
        self.stack.append(span)
        return span

    def leave(self, span: Span) -> float:
        duration = time.perf_counter() - span.start
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += duration
        key = (span.name, span.stage)
        self.self_time[key] += duration - span.child
        self.incl_time[key] += duration
        self.calls[key] += 1
        if span.name in self.sampled:
            self.samples[span.name].append((span.start, duration))
        return duration

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(name, self.stage)] += value

    def total(self, table: dict, name: str, stages: tuple[str, ...] | None = None) -> float:
        return sum(v for (n, s), v in table.items() if n == name and (stages is None or s in stages))


class Probes:
    """Installs wrappers and restores the originals on ``remove``."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._undo: list[tuple[object, str, object]] = []

    def wrap(
        self,
        name: str,
        target: str,
        observer: Observer | None = None,
        stage: str | None = None,
        timed: bool = True,
        call: Callable[..., object] | None = None,
    ) -> bool:
        """Wrap ``target``; book it as probe ``name``. False if absent.

        ``stage`` makes the call a stage boundary: spans entered while it runs
        are booked under that stage. ``timed=False`` only observes the call.
        ``call(original, *args, **kwargs)``, if given, runs in place of the
        original call (the loop replay and the pace chunk use it).
        """
        found = resolve(target)
        if found is None or not callable(found[2]):
            self.rec.status[target] = "absent"
            return False
        owner, attr, original = found
        rec = self.rec
        invoke = original if call is None else functools.partial(call, original)

        def probe(*args, **kwargs):
            if stage is not None:
                rec.stages.append(stage)
            span = rec.enter(name) if timed else None
            error = None
            result = None
            try:
                result = invoke(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                if span is not None:
                    rec.leave(span)
                if stage is not None:
                    rec.stages.pop()
                if observer is not None:
                    try:
                        observer(args, kwargs, result, error)
                    except Exception:
                        rec.observer_errors[name] += 1

        probe.__wrapped__ = original
        probe.__name__ = getattr(original, "__name__", attr)
        probe.__qualname__ = getattr(original, "__qualname__", attr)
        probe.__doc__ = getattr(original, "__doc__", None)
        if isinstance(owner, type):
            self._set(owner, attr, probe)
        else:
            # a module-level function is also bound by name in every module
            # that imported it (``from .ocp import solve_ocp``): rebind those
            package = owner.__name__.split(".")[0]
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, probe)
        self.rec.status[target] = "ok"
        return True

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


_INHERITED = object()
