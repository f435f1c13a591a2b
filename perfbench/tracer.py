"""Per-layer tracing of uavsim from outside the library.

``Tracer.installed()`` wraps every public function, public method and
constructor of the six uavsim modules (``cli`` counts as
``experiment``) and rebinds every module-level name that refers to a
wrapped function, so ``uavsim.experiment.simulate_cycle`` and
``uavsim.relay.simulate_cycle`` are both traced.  Leaving the context
restores the originals, so untraced runs pay nothing.

Coarse calls (runs, cycles, trajectories, dissemination phases,
coverage radii) are kept as spans ``(id, name, start, end, parent)``.
Per-sample calls (channel functions, ``position_at``, state and
geometry constructors) are folded into call counts and summed times.
A layer's self time is the time its frames run minus the time of the
traced frames they call; its busy time is the time at least one of its
frames is on the stack.  The tracer's own per-call cost lands in the
caller's self time, which is why traced and untraced runs are never
compared directly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import importlib
import inspect
import itertools
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    "uavsim.channel": "channel",
    "uavsim.mobility": "mobility",
    "uavsim.relay": "relay",
    "uavsim.dissemination": "dissemination",
    "uavsim.coverage": "coverage",
    "uavsim.experiment": "experiment",
    "uavsim.cli": "experiment",
}

# Calls recorded as spans; every other traced call is folded into counts.
COARSE = {
    "experiment.load_config", "experiment.run",
    "experiment.run_dissemination_pair",
    "relay.simulate_cycle", "relay.sweep_delay", "relay.path_loss_trace",
    "mobility.mobile_relay_trajectory", "mobility.ferry_trajectory",
    "mobility.overflight_trajectory",
    "dissemination.D2dGraph.__init__", "dissemination.phase1_broadcast",
    "dissemination.phase2_exchange", "dissemination.run_baseline",
    "coverage.coverage_radius", "coverage.optimal_altitude",
}

TRAJECTORY_FUNCTIONS = ("mobility.mobile_relay_trajectory",
                        "mobility.ferry_trajectory",
                        "mobility.overflight_trajectory")


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def _on_cycle(tracer, fn, args, kwargs, result):
    arguments = _arguments(fn, args, kwargs)
    if arguments["strategy"] == "static":
        # A static relay never moves, so its cycle ignores v_max.
        arguments["geom"] = dataclasses.replace(arguments["geom"], v_max=0.0)
    tracer.distinct["relay.cycles"].add(repr(sorted(arguments.items())))
    tracer.tallies["relay.steps"] += len(result.se_trace)


def _on_trajectory(tracer, fn, args, kwargs, result):
    tracer.distinct["mobility.trajectories"].add(
        fn.__name__ + repr(sorted(_arguments(fn, args, kwargs).items())))


def _on_phase1(tracer, fn, args, kwargs, result):
    tracer.tallies["dissemination.uav_transmissions"] += result


def _on_exchange(tracer, fn, args, kwargs, result):
    tracer.tallies["dissemination.gossip_rounds"] += result.rounds_used


def _on_baseline(tracer, fn, args, kwargs, result):
    tracer.tallies["dissemination.uav_transmissions"] += \
        result.uav_transmissions
    tracer.tallies["dissemination.baseline_passes"] += result.passes_used


HOOKS = {
    "relay.simulate_cycle": _on_cycle,
    "dissemination.phase1_broadcast": _on_phase1,
    "dissemination.phase2_exchange": _on_exchange,
    "dissemination.run_baseline": _on_baseline,
    **{name: _on_trajectory for name in TRAJECTORY_FUNCTIONS},
}


def _traceable(module):
    """(qualified name, owner, attribute, function) for each public callable
    defined in ``module``; methods include ``__init__`` of plain classes."""
    layer = LAYERS[module.__name__]
    for name, value in sorted(vars(module).items()):
        if name.startswith("_") or getattr(value, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(value):
            yield f"{layer}.{name}", module, name, value
        elif inspect.isclass(value) and not issubclass(
                value, (enum.Enum, BaseException)):
            for attr, member in sorted(vars(value).items()):
                if inspect.isfunction(member) and (
                        attr == "__init__" or not attr.startswith("_")):
                    yield f"{layer}.{name}.{attr}", value, attr, member


class Tracer:
    """Call counts, times and spans of one traced run."""

    def __init__(self):
        self._layers = {}   # layer -> [self s, busy s, open frames]
        self._stats = {}    # qualified name -> [calls, inclusive s]
        self.tallies = Counter()            # counts read from results
        self.distinct = defaultdict(set)    # name -> distinct argument keys
        self.spans = []                     # (id, name, start, end, parent)

    @property
    def calls(self) -> Counter:
        return Counter({name: s[0] for name, s in self._stats.items()})

    @property
    def seconds(self) -> defaultdict:
        return defaultdict(float, ((name, s[1])
                                   for name, s in self._stats.items()))

    @property
    def self_s(self) -> defaultdict:
        return defaultdict(float, ((name, s[0])
                                   for name, s in self._layers.items()))

    @property
    def busy_s(self) -> defaultdict:
        return defaultdict(float, ((name, s[1])
                                   for name, s in self._layers.items()))

    def _wrap(self, qualname: str, fn, child, open_spans, span_ids):
        layer = self._layers.setdefault(qualname.split(".", 1)[0],
                                        [0.0, 0.0, 0])
        stat = self._stats.setdefault(qualname, [0, 0.0])
        coarse = qualname in COARSE
        hook = HOOKS.get(qualname)
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if coarse:
                span_id = next(span_ids)
                parent = open_spans[-1]
                open_spans.append(span_id)
            child.append(0.0)
            layer[2] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                inner = child.pop()
                child[-1] += elapsed
                layer[0] += elapsed - inner
                layer[2] -= 1
                if not layer[2]:
                    layer[1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                if coarse:
                    open_spans.pop()
                    spans.append((span_id, qualname, start, end, parent))
            if hook is not None:
                hook_start = perf_counter()
                hook(tracer, fn, args, kwargs, result)
                # Keep the hook's cost out of the caller's self time.
                child[-1] += perf_counter() - hook_start
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap uavsim's public callables for the duration of the block.

        Use a fresh ``Tracer`` for each traced run."""
        modules = [importlib.import_module(name) for name in LAYERS]
        package = importlib.import_module("uavsim")
        # Shared by all wrappers: traced time inside each open frame, and
        # the stack of open span ids.
        child, open_spans, span_ids = [0.0], [None], itertools.count()
        patches = []  # (owner, attribute, original)
        wrapped = {}  # id(original function) -> wrapper
        for module in modules:
            for qualname, owner, attr, fn in _traceable(module):
                wrapper = self._wrap(qualname, fn, child, open_spans, span_ids)
                patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                if owner is module:
                    wrapped[id(fn)] = wrapper
        # Rebind names imported with ``from .module import name``.
        for module in modules + [package]:
            for name, value in list(vars(module).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None and value is not wrapper:
                    patches.append((module, name, value))
                    setattr(module, name, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def counts(self) -> dict:
        """Every count of a traced run; these must repeat exactly."""
        counts = {f"calls.{name}": n for name, n in sorted(self.calls.items())}
        counts.update(sorted(self.tallies.items()))
        counts.update((f"distinct.{name}", len(keys))
                      for name, keys in sorted(self.distinct.items()))
        return counts
