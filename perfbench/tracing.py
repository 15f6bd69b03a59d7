"""In-memory spans recorded around calls into the package's public functions.

The benchmark times layers from outside: `Tracer.wrap` swaps each traced
public function for a wrapper in every `esri_net` module that holds a
reference to it, so calls between modules (for example `batch_indices`
calling `propagate` through `indices.propagate`) are seen too.  Spans stay
in memory and are written out once, when the run ends.  Work done in
forked pool workers is not seen; per-scenario figures come from
single-worker calls.
"""
from __future__ import annotations

import enum
import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

# (module, function) pairs wrapped in a traced run; each is a layer boundary
TRACED = (
    ("synth", "generate"),
    ("network", "write_network"),
    ("network", "load_network"),
    ("calibration", "classify_inputs"),
    ("calibration", "calibrate"),
    ("propagation", "production_step"),
    ("propagation", "propagate"),
    ("indices", "batch_indices"),
    ("strategies", "run_heuristic"),
    ("strategies", "run_strategy"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans with a parent link, recorded while `active` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.active:
            yield None
            return
        s = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            parent=self._stack[-1] if self._stack else None,
            attrs=dict(attrs),
        )
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name) as s:
                for arg in (*args, *kwargs.values()):
                    if isinstance(arg, enum.Enum):
                        s.attrs[type(arg).__name__.lower()] = arg.value
                result = fn(*args, **kwargs)
                # counts taken where the work happens
                for attr in ("iterations", "converged", "n_edges"):
                    value = getattr(result, attr, None)
                    if isinstance(value, (bool, int)):
                        s.attrs[attr] = value
                return result

        return traced

    @contextmanager
    def wrap(self, package: str = "esri_net"):
        """Install wrappers on every module of the package, then restore."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        wrappers = {}
        for mod, name in TRACED:
            fn = getattr(sys.modules[f"{package}.{mod}"], name)
            wrappers[id(fn)] = self._wrapper(f"{mod}.{name}", fn)
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    # -- read-outs -------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + s.seconds - child_time[s.id]
        return dict(sorted(totals.items()))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"spans": [asdict(s) for s in self.spans], "self_s": self.self_times()})
            + "\n",
            encoding="utf-8",
        )
