"""Seeded instances and query lists for the benchmark workloads.

Everything is drawn from one ``random.Random(seed)``, so a seed fixes the
instance files, the query list and its order.  Sizes come from fixed
ladders; the seed only moves the structure inside each size, so the runs
of two seeds do comparable work.  Only meaningful queries are kept: the
execution visits the cause and shows the effect, and a game strategy loses
through the cause while the cause stays avoidable, so the checkers do more
than reject a precondition.
"""

import json
import math
import os
import random
from itertools import combinations

import reference as ref

TS_METRICS = ("pref", "pref-ap", "hamm", "ghamm", "lev")

# (execution length, target |S|, target |T|) for ts-large, each size twice:
# |S| may miss by 3% and |T| by 4%, so two seeds build products of one size.
TS_LARGE = 2 * ((20, 150, 614), (28, 250, 1209), (36, 350, 1873), (43, 450, 2625), (50, 550, 3323))
SEM_LARGE = (10, 11, 12, 13)
CHAINS = ((500, False), (750, True), (1000, False), (1250, True))
CYCLIC = (1000, 1200, 1400, 1600, 1800, 2000)
TS_SMALL = (4, 5, 6, 4, 5, 6, 4, 5, 6)
SEM_SMALL = (4, 5, 6, 4, 5, 6)
ACYCLIC = 4 * tuple((n, p) for n in (16, 18, 20, 22, 24, 26, 28) for p in ("reach", "safe"))


class Collector:
    """Collects instance files and queries for one workload."""

    def __init__(self, work, seed):
        self.work = work
        self.rng = random.Random(seed)
        self.queries = []
        os.makedirs(work, exist_ok=True)

    def write(self, stem, obj):
        path = os.path.join(self.work, f"{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))
        return path

    def add(self, kind, check, argv, **fields):
        self.queries.append(dict(id=len(self.queries), kind=kind, check=check, argv=argv, **fields))

    def sub_seed(self, accept, tries=2_000_000):
        """A seed whose generator draws pass `accept`, screened cheaply."""
        for _ in range(tries):
            seed = self.rng.getrandbits(32)
            if accept(random.Random(seed)):
                return seed
        raise RuntimeError("no seed gives an instance of the requested size")


# ---------------------------------------------------------------------------
# file formats


def ts_json(ts):
    return {
        "kind": "ts",
        "alphabet": list(ts.alphabet),
        "states": [{"id": s, "label": ts.labeling[s]} for s in sorted(ts.states)],
        "initial": ts.initial,
        "transitions": [list(t) for t in sorted(ts.transitions)],
    }


def game_json(game):
    owner = {v: ref.REACH for v in game.reach_owned}
    owner.update({v: ref.SAFE for v in game.safe_owned})
    owner.update({v: ref.EFFECT for v in game.effect})
    return raw_game_json(owner, game.initial, game.edges)


def raw_game_json(owner, initial, edges):
    return {
        "kind": "game",
        "vertices": [{"id": v, "owner": o} for v, o in sorted(owner.items())],
        "initial": initial,
        "edges": [list(e) for e in sorted(edges)],
    }


def strategy_json(player, choices):
    return {"player": player, "choices": dict(sorted(choices.items()))}


# ---------------------------------------------------------------------------
# transition systems and structural equation models


def near(value, target, tolerance):
    return target is None or abs(value - target) <= tolerance * target


def layered(b, generators, length, width, states=None, transitions=None):
    """A layered system whose maximal paths have `length` states."""
    depth = length - 1

    def accept(r):
        if r.randint(1, depth) != depth:
            return False
        return near(1 + sum(r.randint(1, width) for _ in range(depth)), states, 0.03)

    while True:
        ts = generators.layered_ts(random.Random(b.sub_seed(accept)), length, width, 3)
        data = ts_json(ts)
        plain = ref.ts_from_json(data)
        terminals = sum(1 for out in plain["succ"].values() if not out)
        if (
            max(ref.depths(plain).values()) == depth
            and terminals > 1
            and near(len(data["states"]), states, 0.03)
            and near(len(data["transitions"]), transitions, 0.04)
        ):
            return data, plain


def walk(rng, ts):
    seq = [ts["init"]]
    while ts["succ"][seq[-1]]:
        seq.append(rng.choice(ts["succ"][seq[-1]]))
    return seq


def ts_queries(b, stem, data, plain, early_reach, oracle):
    """Both effect properties, every metric, causes early and late."""
    rng = b.rng
    model = b.write(stem, data)
    seq = walk(rng, plain)
    path = b.write(stem + "-run", seq)
    n = len(seq)
    end = seq[-1]
    others = sorted(s for s, out in plain["succ"].items() if not out and s != end)
    early = seq[max(1, n // 8) : 1 + max(1, n // 4)]
    late = seq[max(1, (3 * n) // 4) : n - 1] or seq[n - 2 : n - 1]
    for phi, at_start in (("reach", early_reach), ("safe", not early_reach)):
        if phi == "reach":
            effect = [end] + [t for t in others if rng.random() < 0.1]
        else:
            effect = [t for t in others if rng.random() < 0.2] or [rng.choice(others)]
        avoidable = lambda c: ref.ts_avoidable(plain, {c})  # noqa: E731
        c = pick(rng, early if at_start else late, avoidable) or pick(rng, seq[1 : n - 1], avoidable)
        if c is None:
            continue
        cause = [c]
        for metric in TS_METRICS:
            b.add(
                f"ts-cause.{metric}", "ts-cause",
                ["ts-cause", "--model", model, "--path", path, "--cause", ",".join(cause),
                 "--effect", ",".join(sorted(effect)), "--phi", phi, "--metric", metric],
                model=model, path=path, cause=cause, effect=effect, phi=phi,
                metric=metric, oracle=oracle,
            )


def sem_query(b, generators, stem, nvars):
    seed = b.sub_seed(lambda r: r.randint(1, nvars) == nvars)
    sem = generators.boolean_sem(random.Random(seed), nvars)
    data = {
        "kind": "sem",
        "variables": list(sem.variables),
        "tables": [[bool(x) for x in t] for t in sem.tables],
    }
    model = b.write(stem, data)
    default = []
    for table in data["tables"]:
        pos = 0
        for bit in default:
            pos = (pos << 1) | int(bit)
        default.append(table[pos])
    k = min(2, nvars - 1)
    effect = {"last": k, "values": [default[-k:]]}
    xs = sorted(b.rng.sample(data["variables"], b.rng.randint(1, 2)))
    b.add(
        "sem-bridge", "sem-bridge",
        ["sem", "bridge", "--model", model, "--effect", json.dumps(effect), "--vars", ",".join(xs)],
        model=model, effect=effect, vars=xs,
    )


# ---------------------------------------------------------------------------
# games


def chain_game(rng, n, safe_wins):
    """Alternating chain c0000 -> c0001 -> ... -> goal.

    Reach owns the even positions, each with a back edge a few steps up
    the chain and, by coin flip, a skip over the next Safe vertex.  In the
    Safe-wins variant two early Safe vertices without a skip before them
    also lead to a Safe trap.  Every forward play must pass the last such
    vertex, so Reach wins exactly from the goal and the positions after it.
    The attractor grows by one vertex per round along the chain.
    """
    names = [f"c{i:04d}" for i in range(n)]
    owner = {v: (ref.REACH if i % 2 == 0 else ref.SAFE) for i, v in enumerate(names)}
    owner.update(goal=ref.EFFECT, trap=ref.SAFE)
    escapes = sorted(rng.sample(range(5, 23, 2), 2)) if safe_wins else []
    edges = {("trap", "trap")}
    skips = set()
    for i, v in enumerate(names):
        edges.add((v, names[i + 1] if i + 1 < n else "goal"))
        if i % 2 == 0:
            if i >= 2:
                edges.add((v, names[i - 1 - rng.randrange(min(i, 8))]))
            if i + 2 < n and i + 1 not in escapes and rng.random() < 0.5:
                edges.add((v, names[i + 2]))
                skips.add(i)
    for k in escapes:
        edges.add((names[k], "trap"))
    last = escapes[-1] if escapes else -1
    region = ["goal"] + names[last + 1 :]
    return names, owner, edges, skips, region


def chain_queries(b, stem, n, safe_wins):
    rng = b.rng
    names, owner, edges, skips, region = chain_game(rng, n, safe_wins)
    data = raw_game_json(owner, names[0], edges)
    model = b.write(stem, data)
    game = ref.game_from_json(data)
    back = int(0.75 * n) & ~1
    choices = {v: names[i + 1] for i, v in enumerate(names) if owner[v] == ref.REACH}
    choices[names[back]] = min(game["succ"][names[back]])
    sigma = strategy_json(ref.REACH, choices)
    strategy = b.write(stem + "-sigma", sigma)
    b.add("solve", "solve", ["solve", "--model", model], model=model, reach_region=region)
    deep = [c for c in range(int(0.3 * n) | 1, back, 2) if c - 1 in skips]
    cause = [names[rng.choice(deep[:20])]]
    b.add(
        "explain", "explain",
        ["explain", "--model", model, "--strategy", strategy, "--cause", cause[0]],
        model=model, strategy=strategy, cause=cause,
    )
    b.add(
        "explain.check", "explain.check",
        ["explain", "--model", model, "--strategy", strategy, "--check", names[back]],
        model=model, strategy=strategy, set=[names[back]],
    )
    shallow = [names[c] for c in range(15, 41, 2) if c - 1 in skips]
    c = pick(rng, shallow, lambda c: meaningful(game, sigma, [c]))
    if c is not None:
        game_cause(b, model, strategy, ref.REACH, [c], "pref-h", False)


def pick(rng, candidates, accept, tries=50):
    """A random candidate passing `accept`, or None after `tries` misses."""
    candidates = list(candidates)
    rng.shuffle(candidates)
    for c in candidates[:tries]:
        if accept(c):
            return c
    return None


def meaningful(game, sigma, cause):
    """For a losing strategy: it loses through the cause, which is avoidable."""
    return ref.losing_play_through(game, sigma, cause) and ref.can_avoid(
        game, sigma["player"], cause
    )


def game_cause(b, model, strategy, player, cause, metric, oracle):
    b.add(
        f"game-cause.{metric}", "game-cause",
        ["game-cause", "--model", model, "--player", player, "--strategy", strategy,
         "--cause", ",".join(cause), "--metric", metric],
        model=model, strategy=strategy, player=player, cause=cause, metric=metric, oracle=oracle,
    )


def losing_strategy(b, generators, pkg_game, game, player, tries=200):
    for _ in range(tries):
        s = generators.random_strategy(b.rng, pkg_game, player)
        sigma = strategy_json(player, s.choice)
        if not ref.strategy_wins(game, sigma):
            return sigma
    return None


def sized_game(b, generators, family, size):
    """A generated game with exactly `size` vertices.

    Cyclic games also draw their effect-set size first; keeping it at 8-16%
    of the vertices keeps the number of attractor rounds comparable.
    """
    make = generators.acyclic_game if family == "acyclic" else generators.cyclic_game

    def accept(r):
        if r.randint(3, size) != size:
            return False
        return family == "acyclic" or 0.08 * size <= r.randint(1, size // 3) <= 0.16 * size

    while True:
        pkg = make(random.Random(b.sub_seed(accept)), size)
        data = game_json(pkg)
        if len(data["vertices"]) == size:
            return pkg, data, ref.game_from_json(data)


def cyclic_pick(b, generators, pkg, game, player, tries=5):
    """A losing strategy, a meaningful cause 3-5 steps into its plays and a
    change set for explain --check; None if `tries` strategies give none."""
    effect = ref.effect_set(game)
    for _ in range(tries):
        sigma = losing_strategy(b, generators, pkg, game, player)
        if sigma is None:
            return None
        depth = ref.bfs_depths(ref.under(game, sigma), game["init"])
        seen = sorted(v for v in depth if v not in effect)
        near_start = [v for v in seen if 3 <= depth[v] <= 5]
        c = pick(b.rng, near_start, lambda c: meaningful(game, sigma, [c]), tries=10)
        free = [v for v in seen if game["owner"][v] == player and len(game["succ"][v]) > 1]
        if c is not None and free:
            return sigma, c, sorted(b.rng.sample(free, min(len(free), b.rng.randint(1, 2))))
    return None


def cyclic_queries(b, generators, stem, size):
    """solve, then pref-h, explain and explain --check for both players.

    A game on which either player lacks a meaningful query is drawn again,
    so every seed asks the same number of queries of each kind.
    """
    while True:
        pkg, data, game = sized_game(b, generators, "cyclic", size)
        picked = [cyclic_pick(b, generators, pkg, game, p) for p in (ref.REACH, ref.SAFE)]
        if all(picked):
            break
    model = b.write(stem, data)
    b.add("solve", "solve", ["solve", "--model", model], model=model)
    for player, (sigma, c, vset) in zip((ref.REACH, ref.SAFE), picked):
        strategy = b.write(f"{stem}-{player}", sigma)
        game_cause(b, model, strategy, player, [c], "pref-h", False)
        b.add(
            "explain", "explain",
            ["explain", "--model", model, "--strategy", strategy, "--cause", c],
            model=model, strategy=strategy, cause=[c],
        )
        b.add(
            "explain.check", "explain.check",
            ["explain", "--model", model, "--strategy", strategy, "--check", ",".join(vset)],
            model=model, strategy=strategy, set=vset,
        )


def acyclic_queries(b, generators, stem, size, player):
    """Exact strategy searches for one player on an acyclic game.

    The player has 2^(size/4 + 2) to 2^(size/4 + 3) MD strategies, so the
    exponential searches grow with the size but cost about the same for
    every seed.  Games are drawn until each query is meaningful; for Reach,
    Reach must also win, as the d* repair requires.
    """
    low = size // 4 + 2
    while True:
        pkg, data, game = sized_game(b, generators, "acyclic", size)
        bits = sum(math.log2(len(game["succ"][v])) for v in ref.owned(game, player))
        if not low <= bits < low + 1:
            continue
        if player == ref.REACH and game["init"] not in ref.reach_region(game):
            continue
        sigma = losing_strategy(b, generators, pkg, game, player)
        if sigma is None:
            continue
        seen = sorted(ref.reachable(ref.under(game, sigma), game["init"]) - ref.effect_set(game))
        c = pick(b.rng, seen, lambda c: meaningful(game, sigma, [c]))
        k = ref.min_changes_to_win(game, sigma)
        if c is None or k == ref.INF:
            continue
        free = sorted(v for v in sigma["choices"] if len(game["succ"][v]) > 1)
        sets = [
            next((list(s) for s in _combos(free, n) if ref.wins_changing_exactly(game, sigma, set(s))), None)
            for n in (k, k + 1)
        ]
        if sets[0] is not None:
            break
    model = b.write(stem, data)
    strategy = b.write(f"{stem}-{player}", sigma)
    for metric in ("hamm-s", "dstar"):
        game_cause(b, model, strategy, player, [c], metric, True)
    # A minimal change set for one metric and a one-larger set for the other.
    larger = sets[1] or sets[0]
    pairs = (sets[0], larger) if player == ref.REACH else (larger, sets[0])
    for metric, vset in zip(("hamm-s", "dstar"), pairs):
        b.add(
            f"explain.check-minimal.{metric}", "explain.check-minimal",
            ["explain", "--model", model, "--strategy", strategy,
             "--check-minimal", ",".join(vset), "--metric", metric],
            model=model, strategy=strategy, set=vset, metric=metric,
        )
    if player == ref.REACH:
        b.add("repair", "repair", None, model=model, strategy=strategy)


def _combos(items, size):
    return combinations(items, size) if 0 <= size <= len(items) else ()


# ---------------------------------------------------------------------------
# workloads


def ts_large(b, generators):
    for i, (length, states, transitions) in enumerate(TS_LARGE):
        width = round(2 * (states - 1) / (length - 1) - 1)
        data, plain = layered(b, generators, length, width, states, transitions)
        ts_queries(b, f"ts{i}", data, plain, i % 2 == 0, False)
    for i, nvars in enumerate(SEM_LARGE):
        sem_query(b, generators, f"sem{i}", nvars)


def game_large(b, generators):
    for i, (n, safe_wins) in enumerate(CHAINS):
        chain_queries(b, f"chain{i}", n, safe_wins)
    for i, size in enumerate(CYCLIC):
        cyclic_queries(b, generators, f"cyclic{i}", size)


def small_instances(b, generators):
    for i, length in enumerate(TS_SMALL):
        data, plain = layered(b, generators, length, 3)
        ts_queries(b, f"ts{i}", data, plain, i % 2 == 0, True)
    for i, nvars in enumerate(SEM_SMALL):
        sem_query(b, generators, f"sem{i}", nvars)
    for i, (size, player) in enumerate(ACYCLIC):
        acyclic_queries(b, generators, f"acyclic{i}", size, player)


WORKLOADS = {
    "ts-large": ts_large,
    "game-large": game_large,
    "small-instances": small_instances,
}


def build(workload, seed, work):
    """Generate and write one workload's instances; return its query list."""
    from causekit import generators

    b = Collector(work, seed)
    WORKLOADS[workload](b, generators)
    b.rng.shuffle(b.queries)
    return b.queries
