"""Span tracer that wraps drivemon's public functions from outside the package.

Every public function defined in a traced module is replaced, in every
drivemon module that imported it, by a wrapper that records one span per
call: wall time, self time (wall time minus the time of nested traced
calls) and, for the functions listed in ``COUNTERS``, a row or byte count
taken from the arguments or the result. Spans are aggregated in memory;
nothing is written until the run ends. ``uninstall`` puts every original
function back.

The cli layer is traced as one span per command around ``cli.main``, so a
command's self time is its argument parsing and the glue code of the
command body (object building, small artifact writes). Calls made outside
a ``cli.main`` span are not recorded, which keeps the benchmark's own input
generation and correctness checks out of the layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass

LAYER_MODULES = ("telemetry", "derive", "features", "net", "detect", "synth", "cli")


#: Per-function counters: name -> {counter: fn(args, result)}.
COUNTERS = {
    "telemetry.read_stream": {"rows": lambda a, r: len(r)},
    "telemetry.write_stream": {"rows": lambda a, r: len(a[0]),
                               "bytes": lambda a, r: os.path.getsize(a[1])},
    "features.feature_matrix": {"rows": lambda a, r: r[0].shape[0]},
    "net.train": {"steps": lambda a, r: train_steps(len(a[1]), a[2])},
    "net.save_model": {"bytes": lambda a, r: os.path.getsize(a[1])},
    "detect.flag": {"flags": lambda a, r: len(r)},
}


def train_steps(n_rows: int, config) -> int:
    """ADAM steps that ``net.train`` takes on n_rows windows under ``config``.

    Derived from the public TrainConfig semantics (seeded validation split of
    round(n * fraction) rows, at least 1 and at most n - 1, then
    ceil(n_train / batch) batches per epoch), so it stays valid when the
    training loop stops calling the public ``adam_step``.
    """
    n_val = min(max(1, round(n_rows * config.validation_fraction)), n_rows - 1)
    n_train = n_rows - n_val
    return config.epochs * -(-n_train // config.batch_size)


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Wraps layer functions; ``stats`` maps span name -> Stat, ``counts`` name -> int."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        #: counters whose argument or result no longer has the expected shape
        self.uncounted: set[str] = set()
        self._stack: list[list[float]] = []  # per open span: [child time]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _record(self, name: str, elapsed: float, child: float) -> None:
        st = self.stats.setdefault(name, Stat())
        st.calls += 1
        st.s += elapsed
        st.self_s += elapsed - child
        if self._stack:
            self._stack[-1][0] += elapsed

    def _count(self, name: str, args, result) -> None:
        for counter, fn in COUNTERS.get(name, {}).items():
            full = f"{name}.{counter}"
            try:
                n = int(fn(args, result))
            except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError):
                self.uncounted.add(full)
                continue
            self.counts[full] = self.counts.get(full, 0) + n

    def wrap(self, name: str, fn, span_name=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span_name is None and not tracer._stack:
                return fn(*args, **kwargs)
            tracer._stack.append([0.0])
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                child = tracer._stack.pop()[0]
                tracer._record(span_name(args) if span_name else name, elapsed, child)
            tracer._count(name, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package, expected: list[str]) -> None:
        """Wrap the public functions of LAYER_MODULES; note expected names not found.

        ``expected`` lists "module.function" names the benchmark reports on;
        a missing one is recorded in ``absent`` instead of raising, so the
        trace still runs after an API is deleted.
        """
        modules = {}
        for mod_name in LAYER_MODULES:
            try:
                modules[mod_name] = importlib.import_module(f"{package.__name__}.{mod_name}")
            except ModuleNotFoundError:
                modules[mod_name] = None
        replacements: dict[int, object] = {}
        for mod_name, mod in modules.items():
            if mod is None:
                continue
            if mod_name == "cli":
                if callable(getattr(mod, "main", None)):
                    replacements[id(mod.main)] = self.wrap(
                        "cli.main", mod.main, span_name=_cli_span_name)
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replacements[id(obj)] = self.wrap(f"{mod_name}.{attr}", obj)
        targets = [package] + [m for m in modules.values() if m is not None]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for name in expected:
            mod_name, _, fn_name = name.partition(".")
            mod = modules.get(mod_name)
            if mod is None or not inspect.isfunction(getattr(mod, fn_name, None)):
                self.absent.append(name)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def module_self_s(self) -> dict[str, float]:
        out = {m: 0.0 for m in LAYER_MODULES}
        for name, st in self.stats.items():
            out[name.partition(".")[0]] += st.self_s
        return out


def _cli_span_name(args) -> str:
    argv = args[0] if args else None
    command = argv[0] if argv else "none"
    return f"cli.{command}"
