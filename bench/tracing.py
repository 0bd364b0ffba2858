"""Spans and counts around the public functions of ``netgains``, from outside.

:func:`install` replaces every module-level public function of the seven
layers with a wrapper, under every name a caller looks it up by: several
modules import names directly (``quality.rank_of_rows``, ``suites.gain_fast``,
``scramble.gain_fast``) and ``cli`` dispatches through a dict.  The package
attribute ``netgains.scramble`` is the ``scramble`` function, not the
module, so modules are taken from ``sys.modules``.

A wrapper records a span (op id, span id, parent, name, start, end) while
the tracer is on and passes straight through while it is off.  Self time is
a span's duration minus the time its child spans cover.  ``GeneratorSet.row``
runs about 31 times per ``(u, k)`` in the sweep, so it is counted, not timed.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from array import array

LAYERS = ("gf2", "netgen", "quality", "gains", "scramble", "suites", "cli")
# Called many times per scramble to draw bits; no metric reads it.
_SKIP = {"scramble.splitmix64"}
# Spans whose nested calls add once to one inclusive time.
_GROUPS = {
    "netgen.load_generators": "netgen.load",
    "netgen.parse_direction_numbers": "netgen.load",
    "netgen.direction_columns": "netgen.load",
    "netgen.sobol_generator_set": "netgen.load",
    "netgen.GeneratorSet": "netgen.load",
}
CLI_COMMANDS = ("analyze", "gains", "gen", "scramble", "integrate", "verify")


def _values(result) -> int:
    return result.n * result.s


# What one call produced, for the per-second rates.
_WORK = {
    "netgen.generate_points": _values,
    "scramble.scramble": _values,
    "gains.enumerate_gains": lambda report: report.visited,
}


class Tracer:
    """Spans of one process, kept in memory, and totals per span name.

    ``setup`` and ``ops`` map a span name to ``[calls, self s, inclusive s,
    work]``; spans with op id -1 (set-up) go to ``setup``.
    """

    def __init__(self):
        self.on = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._cols = {"name": array("i"), "parent": array("i"), "op": array("i"),
                      "start": array("d"), "end": array("d")}
        self._stack: list[list] = []  # [span id, time covered by children]
        self._group_depth: dict[str, int] = {}
        self.setup: dict[str, list] = {}
        self.ops: dict[str, list] = {}
        self.row_calls = 0
        self.import_s: list[float] = []

    def wrap(self, name: str, fn, work=None, name_of=None):
        tracer = self
        cols = self._cols

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            label = name_of(args, kwargs) if name_of else name
            group = _GROUPS.get(label, label)
            depth = tracer._group_depth.get(group, 0)
            tracer._group_depth[group] = depth + 1
            sid = len(cols["name"])
            nid = tracer._name_ids.get(label)
            if nid is None:
                nid = tracer._name_ids[label] = len(tracer.names)
                tracer.names.append(label)
            cols["name"].append(nid)
            cols["parent"].append(tracer._stack[-1][0] if tracer._stack else -1)
            cols["op"].append(tracer.op)
            cols["start"].append(0.0)
            cols["end"].append(0.0)
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                cols["start"][sid] = start
                cols["end"][sid] = end
                tracer._stack.pop()
                tracer._group_depth[group] = depth
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                table = tracer.setup if tracer.op < 0 else tracer.ops
                tot = table.get(label)
                if tot is None:
                    tot = table[label] = [0, 0.0, 0.0, 0]
                tot[0] += 1
                tot[1] += duration - frame[1]
                if depth == 0:
                    tot[2] += duration
                if work is not None and result is not None:
                    tot[3] += work(result)

        return wrapper

    def span_lines(self):
        """Spans as JSON lines ``[op, id, parent, name, start_us, end_us]``.

        Times are microseconds on the process's ``perf_counter`` clock; ids
        and parents are unique within one op.
        """
        cols = self._cols
        names = [json.dumps(n) for n in self.names]
        for i in range(len(cols["name"])):
            yield (f'[{cols["op"][i]},{i},{cols["parent"][i]},{names[cols["name"][i]]},'
                   f'{cols["start"][i] * 1e6:.0f},{cols["end"][i] * 1e6:.0f}]\n')

    def write_spans(self, fh) -> None:
        fh.write(json.dumps({"fields": ["op", "id", "parent", "name", "start_us", "end_us"]}) + "\n")
        fh.writelines(self.span_lines())

    def totals_json(self) -> dict:
        return {"setup": self.setup, "ops": self.ops, "row_calls": self.row_calls}

    def merge(self, child: dict) -> None:
        """Add the totals a traced CLI child process wrote."""
        for name, (calls, self_s, incl_s, work) in child["ops"].items():
            tot = self.ops.setdefault(name, [0, 0.0, 0.0, 0])
            tot[0] += calls
            tot[1] += self_s
            tot[2] += incl_s
            tot[3] += work
        self.row_calls += child["row_calls"]
        self.import_s.append(child["import_s"])


def _scramble_name(args, kwargs) -> str:
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return f"scramble.scramble.{getattr(spec.kind, 'value', spec.kind)}"


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, wherever callers find them."""
    import netgains.cli  # noqa: F401  (loads every layer)

    modules = {name: sys.modules[f"netgains.{name}"] for name in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in _SKIP or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                continue
            replaced[obj] = tracer.wrap(
                name, obj, _WORK.get(name), _scramble_name if name == "scramble.scramble" else None
            )
    for ns in (sys.modules["netgains"], sys.modules["netgains.samples"], *modules.values()):
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(ns, attr, replaced[obj])
    commands = modules["cli"]._COMMANDS
    for command, fn in commands.items():
        commands[command] = replaced.get(fn, fn)

    gs = modules["netgen"].GeneratorSet
    gs.__post_init__ = tracer.wrap("netgen.GeneratorSet", gs.__post_init__)
    row = gs.row

    def counted_row(self, j, ell):
        if tracer.on and tracer.op >= 0:
            tracer.row_calls += 1
        return row(self, j, ell)

    gs.row = counted_row


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "gf2.self_s": "s", "gf2.calls": "count",
    "netgen.row_calls": "count", "netgen.points_values_per_s": "1/s",
    "netgen.points_self_s": "s", "netgen.load_s": "s",
    "quality.t_value_s": "s", "quality.first_deficient_s": "s", "quality.counting_t_s": "s",
    "gains.fast_calls": "count", "gains.fast_self_s": "s", "gains.visits_per_s": "1/s",
    "gains.brute_self_s": "s", "gains.repr_self_s": "s", "gains.max_gain_s": "s", "gains.bounds_s": "s",
    "scramble.linear_values_per_s": "1/s", "scramble.nested_values_per_s": "1/s",
    "scramble.shift_values_per_s": "1/s", "scramble.estimate_self_s": "s",
    "suites.evaluate_self_s": "s", "cli.import_s": "s",
    **{f"cli.{c}_ms": "ms" for c in CLI_COMMANDS},
}


def layer_metrics(tracer: Tracer, rounds: int, slowness: float, command_ms: dict[str, list[float]]) -> dict:
    """Per-layer figures of a traced run, each per round of the op list.

    Times and counts are the set-up's plus the traced rounds' divided by
    ``rounds``; times are divided by ``slowness`` (host-speed correction)
    and rates multiplied by it.  ``command_ms`` holds the wall times of the
    traced CLI commands, keyed by subcommand.
    """
    def pick(names, field):
        names = [names] if isinstance(names, str) else names
        setup = sum(tracer.setup.get(n, [0, 0.0, 0.0, 0])[field] for n in names)
        ops = sum(tracer.ops.get(n, [0, 0.0, 0.0, 0])[field] for n in names)
        return setup + ops / rounds

    def prefixed(prefix):
        return sorted({n for n in (*tracer.setup, *tracer.ops) if n.startswith(prefix)})

    def rate(names):
        seconds = pick(names, 2)
        return pick(names, 3) / seconds * slowness if seconds else 0.0

    points = "netgen.generate_points"
    out = {
        "gf2.self_s": pick(prefixed("gf2."), 1) / slowness,
        "gf2.calls": pick(prefixed("gf2."), 0),
        "netgen.row_calls": tracer.row_calls / rounds,
        "netgen.points_values_per_s": rate(points),
        "netgen.points_self_s": pick(points, 1) / slowness,
        "netgen.load_s": pick(list(_GROUPS), 2) / slowness,
        "quality.t_value_s": pick("quality.t_value", 2) / slowness,
        "quality.first_deficient_s": pick("quality.first_rank_deficient_k", 2) / slowness,
        "quality.counting_t_s": pick("quality.minimal_counting_t", 2) / slowness,
        "gains.fast_calls": pick("gains.gain_fast", 0),
        "gains.fast_self_s": pick("gains.gain_fast", 1) / slowness,
        "gains.visits_per_s": rate("gains.enumerate_gains"),
        "gains.brute_self_s": pick("gains.gain_bruteforce", 1) / slowness,
        "gains.repr_self_s": pick("gains.gain_representation", 1) / slowness,
        "gains.max_gain_s": pick("gains.max_gain", 2) / slowness,
        "gains.bounds_s": pick("gains.gain_bounds", 2) / slowness,
        "scramble.linear_values_per_s": rate("scramble.scramble.random_linear"),
        "scramble.nested_values_per_s": rate("scramble.scramble.nested_uniform"),
        "scramble.shift_values_per_s": rate("scramble.scramble.digital_shift"),
        "scramble.estimate_self_s": pick("scramble.estimate", 1) / slowness,
        "suites.evaluate_self_s": pick("suites.evaluate_net", 1) / slowness,
        "cli.import_s": statistics.median(tracer.import_s) / slowness if tracer.import_s else 0.0,
    }
    for command in CLI_COMMANDS:
        times = command_ms.get(command)
        out[f"cli.{command}_ms"] = statistics.median(times) / slowness if times else 0.0
    return out
