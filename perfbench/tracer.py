"""Layer tracing from outside the program: wrap public functions, time spans.

A :class:`Layer` names one public function or method of ``repro`` and the
places where its callers look it up (a module global such as
``repro.bittorrent.fast.swarm.batched_regular_slots``, or a class
attribute such as ``BitfieldMatrix.wanted_bytes``).  :class:`Tracer`
swaps each of those places for a timing wrapper while it is active and
puts every original back when it exits, even on error.

Every wrapped call is one span.  Spans nest on a stack, so each layer gets
its call count, its inclusive seconds (``s``) and its self seconds
(``self_s``: the span minus the spans of wrapped calls made inside it).
Nothing under ``src/`` changes; the program cannot tell it is traced
except through the clock.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Layer", "LayerNotFound", "LayerStats", "Tracer"]

# on_call(stats, args, kwargs, result) lets a layer count outcomes (e.g.
# empty masks, dropped pairs) where the work happens.
OnCall = Callable[["LayerStats", tuple, dict, Any], None]


class LayerNotFound(LookupError):
    """A traced name no longer resolves (renamed or moved by a refactor)."""


@dataclass(frozen=True)
class Layer:
    """One traced function: its reported name and where callers find it.

    ``sites`` are ``(module, attribute path)`` pairs; the attribute path
    is either a module-level name or ``Class.method``.
    """

    name: str
    sites: Tuple[Tuple[str, str], ...]
    on_call: Optional[OnCall] = None


@dataclass
class LayerStats:
    """What the spans of one layer add up to."""

    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """Return ``(owner, attribute, raw descriptor)`` for one site.

    The descriptor is read from the class ``__dict__`` along the MRO, so a
    ``classmethod`` stays a ``classmethod`` and an inherited method is
    found on the base that defines it.
    """
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise LayerNotFound(f"module {module_name!r} does not import: {exc}") from exc
    *parents, attribute = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise LayerNotFound(f"{module_name}.{path}: no attribute {part!r}")
        owner = getattr(owner, part)
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attribute in vars(klass):
                raw = vars(klass)[attribute]
                break
        else:
            raise LayerNotFound(f"{module_name}.{path}: no attribute {attribute!r}")
    else:
        if not hasattr(owner, attribute):
            raise LayerNotFound(f"{module_name}.{path}: no attribute {attribute!r}")
        raw = getattr(owner, attribute)
    function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not callable(function):
        raise LayerNotFound(f"{module_name}.{path} is not callable")
    return owner, attribute, raw


class Tracer:
    """Context manager that traces a set of layers.

    ``with Tracer(layers) as tracer: ...`` installs every wrapper (or
    none: a name that fails to resolve raises :class:`LayerNotFound`
    before anything is patched), and ``tracer.stats`` holds one
    :class:`LayerStats` per layer name -- a layer that was wrapped but
    never called reads ``calls == 0``.
    """

    def __init__(self, layers: List[Layer]) -> None:
        self.layers = layers
        self.stats: Dict[str, LayerStats] = {layer.name: LayerStats() for layer in layers}
        # One entry per open span: seconds spent in wrapped children.
        self._stack: List[float] = []
        self._saved: List[Tuple[Any, str, bool, Any]] = []

    def __enter__(self) -> "Tracer":
        resolved = [
            (layer, _resolve(module_name, path))
            for layer in self.layers
            for module_name, path in layer.sites
        ]
        for layer, (owner, attribute, raw) in resolved:
            # An inherited method is restored by deleting the override.
            inherited = isinstance(owner, type) and attribute not in vars(owner)
            self._saved.append((owner, attribute, inherited, raw))
            setattr(owner, attribute, self._wrap(layer, raw))
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attribute, inherited, raw = self._saved.pop()
            if inherited:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, raw)

    def _wrap(self, layer: Layer, raw: Any) -> Any:
        function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        stats = self.stats[layer.name]
        stack = self._stack
        on_call = layer.on_call

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stats.calls += 1
                stats.s += elapsed
                stats.self_s += elapsed - children
            if on_call is not None:
                on_call(stats, args, kwargs, result)
            if stack:
                # The whole footprint, outcome hook included, is charged to
                # this span so the caller's self time excludes it.
                stack[-1] += perf_counter() - start
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        traced.__name__ = getattr(function, "__name__", layer.name)
        if isinstance(raw, classmethod):
            return classmethod(traced)
        if isinstance(raw, staticmethod):
            return staticmethod(traced)
        return traced
