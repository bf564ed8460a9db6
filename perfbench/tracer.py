"""Span recorder for the traced run.

Wraps public causekit functions in every module namespace that binds them,
records one span per call (name, start, end, parent span, query id) in
memory, and turns the spans into per-layer self times and counts.  A
function missing from the package is reported as absent.
"""

import time
from collections import defaultdict

# Span name, the modules that bind the function, the function name.  A
# callable name picks the span name from the call's first argument.
SPANS = (
    ("cli.parse", ("cli",), "build_parser"),
    ("cli.other", ("cli",), "main"),
    ("cli.emit", ("cli", "model"), "dumps_canonical"),
    ("model.load", ("cli", "model"), "load_model"),
    ("model.load", ("cli", "model"), "load_strategy"),
    ("model.load", ("cli", "model"), "load_path"),
    ("model.validate", ("cli", "model", "generators"), "validate_model"),
    ("model.validate", ("model", "game_causality"), "validate_strategy"),
    ("model.validate", ("model", "ts_causality", "sem_bridge"), "validate_maximal_path"),
    ("model.maximal_avoiding_set", ("model", "ts_causality", "game_causality"), "maximal_avoiding_set"),
    ("model.strategy_adjacency", ("model", "distances", "game_causality"), "strategy_adjacency"),
    (lambda q: f"ts.check.{q.metric}", ("ts_causality",), "check_cause_pref_ap"),
    (lambda q: f"ts.check.{q.metric}", ("ts_causality", "sem_bridge"), "check_cause_hamm_layered"),
    (lambda q: f"ts.check.{q.metric}", ("ts_causality",), "check_cause_ghamm"),
    (lambda q: f"ts.check.{q.metric}", ("ts_causality",), "check_cause_lev"),
    ("ts.product_build", ("ts_causality",), "build_ghamm_graph"),
    ("ts.product_build", ("ts_causality",), "build_lev_product"),
    ("ts.dijkstra", ("ts_causality",), "dijkstra"),
    ("ts.validate_layered", ("ts_causality",), "validate_layered"),
    ("sem.unroll", ("sem_bridge",), "unroll_to_ts"),
    ("sem.bridge", ("sem_bridge",), "bridge_check"),
    ("sem.butfor", ("sem_bridge",), "is_but_for_cause"),
    ("game.solve", ("game_causality",), "solve"),
    ("game.attractor_ranks", ("game_causality",), "attractor_ranks"),
    ("game.avoid_region", ("game_causality",), "avoid_region"),
    ("game.extract_explanation", ("game_causality",), "extract_explanation"),
    ("game.is_explanation", ("game_causality",), "is_explanation"),
    (lambda q: f"game.check.{q.metric}", ("game_causality",), "check_cause_game"),
    ("game.is_minimal_explanation", ("game_causality",), "is_minimal_explanation"),
    ("game.min_winning_distance", ("game_causality",), "min_winning_distance"),
    ("game.repair", ("game_causality",), "min_dstar_winning_strategy_acyclic"),
    ("game.strategy_is_winning", ("game_causality",), "strategy_is_winning"),
    ("distances.dstar", ("distances",), "dstar"),
    ("distances.dstrat", ("distances",), "dstrat"),
    ("distances.d_pref_hausdorff", ("distances",), "d_pref_hausdorff"),
)

TIMED = (
    "cli.parse", "cli.emit", "cli.other", "model.load", "model.validate",
    "model.maximal_avoiding_set", "model.strategy_adjacency",
    "ts.check.pref", "ts.check.pref-ap", "ts.check.hamm", "ts.check.ghamm", "ts.check.lev",
    "ts.product_build", "ts.dijkstra", "ts.validate_layered",
    "sem.unroll", "sem.bridge", "sem.butfor",
    "game.solve", "game.attractor_ranks", "game.avoid_region", "game.extract_explanation",
    "game.is_explanation", "game.check.pref-h", "game.check.hamm-s", "game.check.dstar",
    "game.is_minimal_explanation", "game.min_winning_distance", "game.repair",
    "distances.dstrat", "distances.d_pref_hausdorff",
)
CALLS = (
    "model.maximal_avoiding_set", "model.strategy_adjacency",
    "game.strategy_is_winning", "distances.dstar",
)
BUDGET_KINDS = (
    "ts-cause", "game-cause.pref-h", "game-cause.hamm-s", "game-cause.dstar",
    "explain", "explain.check", "explain.check-minimal.hamm-s",
    "explain.check-minimal.dstar", "repair",
)

# Which end-to-end metric each per-layer metric should move, on which workload.
MOVES = {
    "cli.parse_ms": "verdict_p50_ms on small-instances",
    "cli.emit_ms": "verdict_p50_ms on small-instances",
    "cli.other_ms": "verdict_p50_ms on small-instances",
    "model.load_ms": "verdict_p50_ms on game-large and ts-large",
    "model.validate_ms": "verdict_p50_ms on game-large and ts-large",
    "model.maximal_avoiding_set_ms": "verdict_geomean_ms on ts-large and game-large",
    "model.maximal_avoiding_set.calls": "verdict_geomean_ms on ts-large and game-large",
    "model.strategy_adjacency_ms": "verdicts_per_s on small-instances",
    "model.strategy_adjacency.calls": "verdicts_per_s on small-instances",
    "ts.check.": "verdicts_per_s and verdict_geomean_ms on ts-large",
    "ts.product_build_ms": "verdicts_per_s and verdict_geomean_ms on ts-large",
    "ts.dijkstra_ms": "verdicts_per_s and verdict_geomean_ms on ts-large",
    "ts.validate_layered_ms": "verdicts_per_s and verdict_geomean_ms on ts-large",
    "ts.product_nodes": "peak_rss_mb and verdicts_per_s on ts-large",
    "ts.settled_nodes": "peak_rss_mb and verdicts_per_s on ts-large",
    "ts.settled_share": "peak_rss_mb and verdicts_per_s on ts-large",
    "sem.": "verdict_geomean_ms on ts-large",
    "game.solve_ms": "verdict_p50_ms and verdicts_per_s on game-large; none on small-instances",
    "game.attractor_ranks_ms": "verdict_p50_ms and verdicts_per_s on game-large",
    "game.avoid_region_ms": "verdict_p50_ms and verdicts_per_s on game-large",
    "game.extract_explanation_ms": "verdict_p50_ms and verdicts_per_s on game-large",
    "game.is_explanation_ms": "verdict_p50_ms and verdicts_per_s on game-large",
    "game.check.pref-h_ms": "verdict_p50_ms and verdicts_per_s on game-large",
    "game.check.hamm-s_ms": "verdicts_per_s and verdict_tail_ms on small-instances",
    "game.check.dstar_ms": "verdicts_per_s and verdict_tail_ms on small-instances",
    "game.is_minimal_explanation_ms": "verdicts_per_s and verdict_tail_ms on small-instances",
    "game.min_winning_distance_ms": "verdicts_per_s and verdict_tail_ms on small-instances",
    "game.repair_ms": "verdicts_per_s and verdict_tail_ms on small-instances",
    "game.strategy_is_winning.calls": "verdicts_per_s and verdict_tail_ms on small-instances",
    "distances.dstar.calls": "verdict_tail_ms on small-instances",
    "distances.dstrat_ms": "verdict_tail_ms on small-instances",
    "distances.d_pref_hausdorff_ms": "verdict_p50_ms on game-large",
    "budget.used.": "verdicts_per_s on small-instances",
    "budget.used.ts-cause": "none: ts-cause never charges the budget, so it reads 0",
    "trace.overhead_share": "none: traced minus untraced wall time, over untraced",
    "trace.remainder_share": "none: traced wall time outside the listed layers' self times",
}


def moves(name):
    for prefix in sorted(MOVES, key=len, reverse=True):
        if name.startswith(prefix):
            return MOVES[prefix]
    return ""


class Recorder:
    """In-memory spans in parallel lists; one recorder per traced run."""

    def __init__(self):
        self.names, self.parents, self.queries = [], [], []
        self.starts, self.ends = [], []
        self.stack = []
        self.query = -1
        self.product_nodes = 0
        self.settled_nodes = 0
        self.absent = []
        self._undo = []

    def span(self, fn, name):
        rec = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(args[0]) if callable(name) else name
            idx = len(rec.starts)
            rec.names.append(label)
            rec.parents.append(rec.stack[-1] if rec.stack else -1)
            rec.queries.append(rec.query)
            rec.ends.append(0.0)
            rec.stack.append(idx)
            rec.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[idx] = clock()
                rec.stack.pop()
            if fn.__name__ == "build_parser":
                result.parse_args = rec.span(result.parse_args, "cli.parse")
            elif label == "ts.dijkstra" and hasattr(args[0], "nodes"):
                rec.product_nodes += len(args[0].nodes)
                rec.settled_nodes += len(result[0])
            return result

        return traced

    def install(self, package):
        """Wrap every listed function wherever the package binds it."""
        wrapped = {}
        for name, modules, func in SPANS:
            for mod_name in modules:
                mod = getattr(package, mod_name, None)
                original = getattr(mod, func, None) if mod is not None else None
                if original is None:
                    self.absent.append(f"{mod_name}.{func}")
                    continue
                if id(original) not in wrapped:
                    wrapped[id(original)] = self.span(original, name)
                setattr(mod, func, wrapped[id(original)])
                self._undo.append((mod, func, original))

    def uninstall(self):
        for mod, func, original in reversed(self._undo):
            setattr(mod, func, original)
        self._undo.clear()

    def self_times(self):
        """Per span name: (self seconds, calls)."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        totals = defaultdict(lambda: [0.0, 0])
        for i in range(n):
            t = totals[self.names[i]]
            t[0] += self.ends[i] - self.starts[i] - child[i]
            t[1] += 1
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tquery\tstart\tend\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{i}\t{self.names[i]}\t{self.parents[i]}\t{self.queries[i]}\t"
                    f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n"
                )
