"""Run one peerfx CLI command in-process with a span around every layer call.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/trace_worker.py SPANS.json -- <command> [flags]

Every public function of the layer modules (cli, fileio, graph, panel,
simulate, estimator, report) is wrapped in each module namespace that binds
it, so a call made through any import path gets a span: name, start, end
and parent.  The command itself runs as ``peerfx.cli.main(argv)`` under a
root span ``cli.<command>``.  Spans stay in memory and are written to
SPANS.json when the command ends, together with the work counts read from
the return values at the same boundaries.  The exit code is the command's.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "fileio", "graph", "panel", "simulate", "estimator", "report")
KATZ = "graph.katz_centrality"


def _within_counts(result, bound):
    fe_dims = bound.arguments.get("fe_dims", ("player", "week"))
    columns = list(bound.arguments["columns"])
    return {"estimator.within_transform.calls": 1,
            "estimator.within_transform.columns": len(columns),
            "estimator.within_transform.sweeps": result.iterations,
            "pairs": [[c, list(fe_dims)] for c in columns]}


# work counts read from a layer call's result, keyed by span name
COUNTERS = {
    "graph.build_network": lambda r, b: {"graph.edges": r.n_edges},
    KATZ: lambda r, b: {
        "graph.katz_centrality.iterations": r.iterations},
    "graph.tag_peers": lambda r, b: {
        "graph.old_friend_pairs": int(r.old_friend_pairs.shape[0])},
    "panel.build_panel": lambda r, b: {"panel.rows": r.n_rows},
    "panel.build_playtime_crosssection": lambda r, b: {
        "panel.playtime_rows": len(r)},
    "simulate.gen_network": lambda r, b: {
        "simulate.rematch_rounds": r.diagnostics["rematch_rounds"]},
    "simulate.simulate_adoption": lambda r, b: {
        "simulate.adopters": int(r.players.size)},
    "estimator.within_transform": _within_counts,
}


class Tracer:
    """Spans as ``[name, start, end, parent, counts]`` lists, in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.katz_call = None

    def call(self, name, fn, args, kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if name == KATZ and self.katz_call is None:
            self.katz_call = (args, kwargs)
        count = COUNTERS.get(name)
        if count is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            rec[4] = count(result, bound)
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced


def install(tracer) -> dict:
    """Wrap the public layer functions in every namespace that binds them."""
    modules = [importlib.import_module(f"peerfx.{m}") for m in LAYERS]
    owners = {m.__name__ for m in modules}
    skip = {modules[0].main}
    originals = {}
    for mod in [importlib.import_module("peerfx"), *modules]:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj in skip:
                continue
            if obj.__module__ not in owners or hasattr(obj, "__wrapped__"):
                continue  # foreign helpers and context-manager factories
            name = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
            if name not in originals:
                originals[name] = (obj, tracer.wrap(name, obj))
            setattr(mod, attr, originals[name][1])
    return {name: fn for name, (fn, _) in originals.items()}


def main(argv) -> int:
    spans_path, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--" or not cli_argv:
        print("usage: trace_worker.py SPANS.json -- <command> [flags]", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    cli = importlib.import_module("peerfx.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    originals = install(tracer)
    rc = tracer.call(f"cli.{cli_argv[0]}", cli.main, (cli_argv,), {})
    # the same Katz call again, warm, outside the command's spans
    katz_warm_s = None
    if tracer.katz_call is not None:
        args, kwargs = tracer.katz_call
        t1 = time.perf_counter()
        originals[KATZ](*args, **kwargs)
        katz_warm_s = time.perf_counter() - t1
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "import_s": import_s, "katz_warm_s": katz_warm_s,
                   "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
