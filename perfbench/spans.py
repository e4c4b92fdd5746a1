"""Outside-in span tracer for one gbmfolio invocation.

The public functions of each layer are wrapped from here, not from inside
the package: after `gbmfolio.cli` is imported, every loaded `gbmfolio.*`
module attribute that is bound to a traced function is replaced by a
wrapper. A restructured `cli.py` that imports the same public functions
under any name is still traced.

Each wrapped call records a span (id, name, start, end, parent span, run
id) plus a few counts taken from its arguments and result. Spans are kept
in memory and written out once the invocation ends.

Run one traced invocation in this interpreter:

    python3 perfbench/spans.py SPANS.json -- --data-dir D --out-dir O report

The exit code is the CLI's.
"""

import inspect
import json
import sys
import time
import uuid

# layer (module name) -> traced public functions defined there
TRACED = {
    "market_data": ("load_csv", "align_panel", "slice_period", "slice_panel"),
    "stats": ("asset_stats",),
    "portfolio": ("rank_and_group", "optimize_max_sharpe", "portfolio_value_series"),
    "gbm": ("simulate_ensemble", "envelope"),
    "evaluation": ("evaluate_ensemble",),
}


def _window_key(series):
    return [series.ticker, series.dates[0].isoformat(), series.dates[-1].isoformat(), len(series)]


# function name -> attrs(bound arguments, result); "key" identifies the input
# for distinct-input ratios, the other entries are summed per function
_ATTRS = {
    "load_csv": lambda a, r: {"key": str(a["path"]), "rows": len(r)},
    "asset_stats": lambda a, r: {"key": _window_key(a["series"])},
    "optimize_max_sharpe": lambda a, r: {
        "key": [list(a["panel"].tickers), a["seed"], a["n_trials"]],
        "trials": a["n_trials"],
    },
    "simulate_ensemble": lambda a, r: {
        "path_steps": r.paths.shape[0] * (r.paths.shape[1] - 1),
        "out_bytes": r.paths.nbytes,
    },
    "evaluate_ensemble": lambda a, r: {
        "path_horizons": a["pathset"].paths.shape[0] * len(a["horizons"]),
    },
}


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        signature = inspect.signature(fn) if attrs else None

        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = attrs(bound.arguments, result)
            return result

        return traced

    def install(self):
        """Replace every binding of a traced function in loaded gbmfolio modules."""
        import gbmfolio.cli  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "gbmfolio"]
        for layer, names in TRACED.items():
            home = sys.modules[f"gbmfolio.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", original, _ATTRS.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def run_traced(spans_path, cli_args):
    tracer = Tracer()
    tracer.install()
    from gbmfolio import cli

    code = tracer.wrap("cli.main", cli.main)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run": tracer.run_id, "exit_code": code, "spans": tracer.spans}, fh)
    return code


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans):
    """Per-layer metrics (name -> (value, unit)) of one traced run."""
    self_s = _self_times(spans)
    by_fn = {}
    for s in spans:
        by_fn.setdefault(s["name"], []).append(s)

    def calls(*names):
        return sum(len(by_fn.get(n, ())) for n in names)

    def busy(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_fn.get(n, ()))

    def total(name, attr):
        return sum(s["attrs"][attr] for s in by_fn.get(name, ()))

    def distinct(name):
        keys = {json.dumps(s["attrs"]["key"]) for s in by_fn.get(name, ())}
        return len(keys) / max(calls(name), 1)

    def layer_self(layer):
        return sum(self_s[s["id"]] for s in spans if s["name"].split(".")[0] == layer)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {}
    load = "market_data.load_csv"
    m[f"{load}.calls"] = (calls(load), "count")
    m[f"{load}.busy_s"] = (busy(load), "s")
    m[f"{load}.rows_per_s"] = (rate(total(load, "rows"), busy(load)), "1/s")
    m[f"{load}.distinct_ratio"] = (distinct(load), "ratio")
    align = "market_data.align_panel"
    m[f"{align}.calls"] = (calls(align), "count")
    m[f"{align}.busy_s"] = (busy(align), "s")
    slices = ("market_data.slice_period", "market_data.slice_panel")
    m["market_data.slice.calls"] = (calls(*slices), "count")
    m["market_data.slice.busy_s"] = (busy(*slices), "s")
    m["market_data.self_s"] = (layer_self("market_data"), "s")

    st = "stats.asset_stats"
    m[f"{st}.calls"] = (calls(st), "count")
    m[f"{st}.busy_s"] = (busy(st), "s")
    m[f"{st}.distinct_ratio"] = (distinct(st), "ratio")
    m["stats.self_s"] = (layer_self("stats"), "s")

    rank = "portfolio.rank_and_group"
    m[f"{rank}.calls"] = (calls(rank), "count")
    m[f"{rank}.busy_s"] = (busy(rank), "s")
    opt = "portfolio.optimize_max_sharpe"
    m[f"{opt}.calls"] = (calls(opt), "count")
    m[f"{opt}.busy_s"] = (busy(opt), "s")
    m[f"{opt}.trials"] = (total(opt, "trials"), "count")
    m[f"{opt}.trials_per_s"] = (rate(total(opt, "trials"), busy(opt)), "1/s")
    m[f"{opt}.distinct_ratio"] = (distinct(opt), "ratio")
    pvs = "portfolio.portfolio_value_series"
    m[f"{pvs}.calls"] = (calls(pvs), "count")
    m[f"{pvs}.busy_s"] = (busy(pvs), "s")
    m["portfolio.self_s"] = (layer_self("portfolio"), "s")

    sim = "gbm.simulate_ensemble"
    m[f"{sim}.calls"] = (calls(sim), "count")
    m[f"{sim}.busy_s"] = (busy(sim), "s")
    m[f"{sim}.out_mb"] = (total(sim, "out_bytes") / 1e6, "MB")
    m["gbm.path_steps"] = (total(sim, "path_steps"), "count")
    m["gbm.path_steps_per_s"] = (rate(total(sim, "path_steps"), busy(sim)), "1/s")
    env = "gbm.envelope"
    m[f"{env}.calls"] = (calls(env), "count")
    m[f"{env}.busy_s"] = (busy(env), "s")
    m["gbm.self_s"] = (layer_self("gbm"), "s")

    ev = "evaluation.evaluate_ensemble"
    m[f"{ev}.calls"] = (calls(ev), "count")
    m[f"{ev}.busy_s"] = (busy(ev), "s")
    m["evaluation.path_horizons_per_s"] = (rate(total(ev, "path_horizons"), busy(ev)), "1/s")
    m["evaluation.self_s"] = (layer_self("evaluation"), "s")

    m["cli.main.busy_s"] = (busy("cli.main"), "s")
    m["cli.self_s"] = (layer_self("cli"), "s")
    return m


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: spans.py SPANS.json -- <gbmfolio arguments>")
    sys.exit(run_traced(sys.argv[1], sys.argv[3:]))
