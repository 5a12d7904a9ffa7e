"""Out-of-tree tracer for the csisense layers.

The tracer never edits the package.  `install()` replaces every public
function of each layer module with a timing wrapper, both in the module
that defines it and in every `csisense` module that imported it by name
(``cli.py`` does ``from .aoa import bartlett_profile``, for example), so
calls made through either name are seen.  `uninstall()` puts the
originals back.

Each wrapped call is a span: name, start, end, parent span and the
frame it worked on (the ``timestamp_ns`` of a frame argument or result,
else the parent's).  A span's self time is its duration minus the time
its child spans cover.  Per-name totals are kept for every span; the
span records themselves are kept for the first traced pass only, which
bounds memory on long runs.  Nothing is written until the caller asks.

A function a metric names but the package no longer has is reported as
absent instead of failing the run, so later refactors that move or
delete code do not break the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("codec", "core", "synth", "scenario", "calibration", "aoa", "scanner", "cli")

# Methods are not module attributes, so the ones a metric needs are listed.
METHODS = {"aoa": ("ProfileAverager.push",)}


class Tracer:
    """Span and count recorder for the `csisense` package in this process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list[tuple] = []  # (name, start_ns, dur_ns, parent, frame_id)
        self.record_spans = False
        self.fine_tune: list[tuple[int, float]] = []  # (iterations, phase moved)
        self.ingest_stats: list = []  # IngestStats objects cli handed to ingest_stream
        self._stack: list[list] = []  # [name, start_ns, child_ns, frame_id] per open span
        self._patches: list[tuple[object, str, object]] = []
        self._targets = self._discover()

    # -- discovery and patching ------------------------------------------

    @staticmethod
    def _discover() -> dict[str, tuple[object, str, object]]:
        """Qualified name -> (owner, attribute, original) for every target."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules.get(f"csisense.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    targets[f"{layer}.{attr}"] = (module, attr, obj)
            for dotted in METHODS.get(layer, ()):
                cls_name, _, meth = dotted.partition(".")
                cls = getattr(module, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if inspect.isfunction(fn):
                    targets[f"{layer}.{dotted}"] = (cls, meth, fn)
        return targets

    def has(self, name: str) -> bool:
        return name in self._targets

    def install(self) -> None:
        if self._patches:
            return
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for name, (_owner, _attr, fn) in self._targets.items()}
        owners = [m for n, m in list(sys.modules.items())
                  if n == "csisense" or n.startswith("csisense.")]
        owners += [owner for owner, _a, _f in self._targets.values() if inspect.isclass(owner)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str, args, kwargs) -> list:
        frame_id = _frame_id(args, kwargs)
        if frame_id is None and self._stack:
            frame_id = self._stack[-1][3]
        entry = [name, time.perf_counter_ns(), 0, frame_id]
        self._stack.append(entry)
        return entry

    def _exit(self, entry: list, result=None) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, child, frame_id = entry
        duration = end - start
        rec = self.stats[name]  # the wrapper counted the call, creating the record
        rec[1] += duration
        rec[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if self.record_spans:
            ts = getattr(result, "timestamp_ns", None)
            if isinstance(ts, int):
                frame_id = ts
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((name, start, duration, parent, frame_id))

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.stats.setdefault(name, [0, 0, 0])[0] += 1
                if hook is not None:
                    hook(tracer, args, kwargs, None)
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        entry = tracer._enter(name, args, kwargs)
                        try:
                            item = next(gen)
                        except StopIteration:
                            tracer._exit(entry)
                            return
                        except BaseException:
                            tracer._exit(entry)
                            raise
                        tracer._exit(entry, item)
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.stats.setdefault(name, [0, 0, 0])[0] += 1
            entry = tracer._enter(name, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(entry)
                raise
            tracer._exit(entry, result)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return wrapper

    # -- results --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def self_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[2]

    def layer_self_ns(self, layer: str) -> int:
        prefix = layer + "."
        return sum(rec[2] for name, rec in self.stats.items() if name.startswith(prefix))

    def write_spans(self, path) -> int:
        """Write the kept span records as JSON lines; returns how many."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            for name, start, dur, parent, frame_id in self.spans:
                fh.write(json.dumps({"name": name, "start_us": (start - t0) / 1e3,
                                     "dur_us": dur / 1e3, "parent": parent,
                                     "frame": frame_id}) + "\n")
        return len(self.spans)


def _frame_id(args, kwargs):
    """timestamp_ns of the first frame-like argument, if any."""
    ts = kwargs.get("timestamp_ns")
    if isinstance(ts, int):
        return ts
    for arg in args:
        if type(arg).__name__ == "CsiFrame":
            return arg.timestamp_ns
    return None


# Hooks read counters that the package computes but does not report.
# They tolerate signature changes: a value they cannot find is skipped.

def _fine_tune_hook(tracer: Tracer, args, kwargs, result) -> None:
    coarse = args[0] if args else kwargs.get("coarse")
    try:
        moved = np.max(np.abs(np.angle(np.exp(1j * (result.phi - coarse.phi_coarse)))))
        tracer.fine_tune.append((int(result.iterations), float(moved)))
    except (AttributeError, TypeError, ValueError):
        pass


def _ingest_hook(tracer: Tracer, args, kwargs, _result) -> None:
    stats = kwargs.get("stats", args[3] if len(args) > 3 else None)
    if stats is not None:
        tracer.ingest_stats.append(stats)


_HOOKS = {
    "calibration.fine_tune": _fine_tune_hook,
    "codec.ingest_stream": _ingest_hook,
}
