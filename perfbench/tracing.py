"""Outside-in per-layer tracer for the betaplane package.

The tracer never edits the package. It replaces, for the duration of a
traced operation, the names through which one layer calls another:

* a function defined in layer A and imported into the namespace of
  layer B (``dynamics.arakawa``, ``run.integrate``, ...);
* the public methods of classes defined in a layer
  (``AnalyticField.jet``, ``Grid.k2``, ...); dunder methods (indexing,
  construction, arithmetic) are left alone, so their time is charged to
  the caller;
* the transform functions of ``numpy.fft``, as the pseudo-layer
  ``spectral.fft``, real variants included, so that a switch from
  ``fft2`` to ``rfft2`` is still counted;
* callbacks that cross a layer boundary as arguments, such as the
  ``run`` observer that ``dynamics.integrate`` calls once per step.

Each boundary crossing opens a span. Self time is charged
incrementally: whichever span is on top of the stack owns the clock
until the next enter or exit, so a layer's self time is its busy time
minus the time of the layers it called. A call from a layer into
itself opens no span.

The stepping loop is delimited by ``dynamics.step_leapfrog_raw``: from
its first call inside an ``integrate`` span until that span returns,
every charge and count is also booked to the loop totals, which is
what the ``*_per_step`` metrics divide by the number of leapfrog steps.
Start-up work (initial condition, ``auto_dt``, bootstrap) stays out of
them.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter
from types import FunctionType

LAYERS = (
    "grid", "spectral", "kernels", "dynamics", "dissipation", "diagnostics",
    "snapshot", "config", "run", "cli", "jets", "invariants", "identities",
    "conservation", "symmetry",
)
FFT_LAYER = "spectral.fft"
ROOT = "bench"

# Every transform entry point of numpy.fft (the frequency helpers are
# not transforms and are not counted).
FFT_FUNCTIONS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)

# Functions the harness itself calls, wrapped in their own module so
# that the operation's outermost layer is a span too; and the marker
# that opens the stepping loop.
ENTRY_POINTS = (("cli", "main"), ("run", "certify_invariants"),
                ("run", "certify_conservation"))
STEP_MARKER = ("dynamics", "step_leapfrog_raw")

_MODULE_LAYER = {f"betaplane.{name}": name for name in LAYERS}


class Tracer:
    """Span stack with incremental self-time accounting."""

    def __init__(self):
        self.stack = [(ROOT, ROOT, perf_counter())]
        self.t_last = perf_counter()
        self.layer_of = {ROOT: ROOT}
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.raised = Counter()
        self.loop_self_s = defaultdict(float)
        self.loop_calls = Counter()
        self.loop_steps = 0
        self._loop_depth = None

    def _charge(self) -> float:
        now = perf_counter()
        dt = now - self.t_last
        self.t_last = now
        key = self.stack[-1][1]
        self.self_s[key] += dt
        if self._loop_depth is not None:
            self.loop_self_s[key] += dt
        return now

    def enter(self, layer: str, key: str) -> None:
        now = self._charge()
        self.calls[key] += 1
        if self._loop_depth is not None:
            self.loop_calls[key] += 1
        self.stack.append((layer, key, now))

    def exit(self) -> None:
        now = self._charge()
        _, key, start = self.stack.pop()
        self.incl_s[key] += now - start
        if self._loop_depth is not None and len(self.stack) < self._loop_depth:
            self._loop_depth = None

    def resume(self) -> None:
        """Start the clock again after untraced work."""
        self.t_last = perf_counter()

    def pause(self) -> None:
        self._charge()

    def mark_step(self) -> None:
        self._charge()
        if self._loop_depth is None:
            self._loop_depth = len(self.stack)
        self.loop_steps += 1

    def wrap(self, fn, layer: str, key: str):
        self.layer_of[key] = layer
        stack = self.stack

        def traced(*args, **kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            args, kwargs = self._wrap_callbacks(layer, args, kwargs)
            self.enter(layer, key)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[key] += 1
                raise
            finally:
                self.exit()

        traced.__wrapped__ = fn
        return traced

    def _wrap_callbacks(self, callee_layer, args, kwargs):
        """Give a function passed across a boundary its own layer's span."""

        def fix(v):
            if type(v) is FunctionType:
                owner = _MODULE_LAYER.get(v.__module__)
                if owner is not None and owner != callee_layer:
                    return self.wrap(v, owner, f"{owner}.{v.__name__}")
            return v

        if any(type(v) is FunctionType for v in args):
            args = tuple(fix(v) for v in args)
        if any(type(v) is FunctionType for v in kwargs.values()):
            kwargs = {k: fix(v) for k, v in kwargs.items()}
        return args, kwargs

    def wrap_step_marker(self, fn):
        def marked(*args, **kwargs):
            self.mark_step()
            return fn(*args, **kwargs)

        marked.__wrapped__ = fn
        return marked

    def layer_totals(self, per_key: dict) -> dict:
        out = defaultdict(float)
        for key, v in per_key.items():
            out[self.layer_of.get(key, key)] += v
        return out


class Patches:
    """Install the tracer's wrappers and put the originals back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        tracer = self.tracer
        modules = {layer: importlib.import_module(f"betaplane.{layer}")
                   for layer in LAYERS}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if type(obj) is not FunctionType:
                    continue
                owner = _MODULE_LAYER.get(obj.__module__)
                if owner is not None and owner != layer:
                    self._set(module, name,
                              tracer.wrap(obj, owner, f"{owner}.{name}"))
            for cls in vars(module).values():
                if inspect.isclass(cls) and cls.__module__ == module.__name__:
                    self._wrap_methods(cls, layer)
        for layer, name in ENTRY_POINTS:
            module = modules[layer]
            self._set(module, name, tracer.wrap(getattr(module, name), layer,
                                                f"{layer}.{name}"))
        layer, name = STEP_MARKER
        self._set(modules[layer], name,
                  tracer.wrap_step_marker(getattr(modules[layer], name)))
        import numpy.fft as npfft
        for name in FFT_FUNCTIONS:
            self._set(npfft, name, tracer.wrap(getattr(npfft, name), FFT_LAYER,
                                               f"{FFT_LAYER}.{name}"))

    def _wrap_methods(self, cls, layer: str) -> None:
        tracer = self.tracer
        for name, attr in list(vars(cls).items()):
            if name.startswith("__"):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if type(attr) is FunctionType:
                self._set(cls, name, tracer.wrap(attr, layer, key))
            elif isinstance(attr, classmethod):
                self._set(cls, name,
                          classmethod(tracer.wrap(attr.__func__, layer, key)))
            elif isinstance(attr, staticmethod):
                self._set(cls, name,
                          staticmethod(tracer.wrap(attr.__func__, layer, key)))

    def remove(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self):
        self.install()
        self.tracer.resume()
        return self.tracer

    def __exit__(self, *exc):
        self.tracer.pause()
        self.remove()
        return False
