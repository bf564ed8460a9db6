"""Pinned results of the exact game searches, budget use included.

`search_pins.json` holds what `check_cause_game` (hamm-s and d*),
`min_winning_distance` and `is_minimal_explanation` return on a small seeded
sweep of acyclic and cyclic games: verdicts, every witness strategy and the
`budget.used` of each call.  The other tests compare verdicts and distances
only, so a change to the search order or to the budget charging shows here.

Regenerate the file only for an intended change of those results:
`PYTHONPATH=src python tests/test_search_pins.py`.  Before writing, it prints
per call kind how many records changed their result, on how many the budget
rose or fell and the summed budget use in the pins and in the sweep with the
indices of the changed records, and lists the records that ran out of
budget before and give an answer now.
"""

import json
import random
from pathlib import Path

from causekit.errors import Budget, CausekitError
from causekit.game_causality import (
    METRIC_DSTAR,
    METRIC_HAMM_S,
    GameCauseQuery,
    GameCauseVerdict,
    check_cause_game,
    extract_explanation,
    is_minimal_explanation,
    min_winning_distance,
)
from causekit.generators import acyclic_game, cyclic_game, random_strategy

from helpers import id_adjacency, naive_reachable

PINS = Path(__file__).with_name("search_pins.json")
GAMES = 80


def outcome(fn, *args, **kwargs):
    """[result, budget used], the result as JSON and an error as its type name."""
    budget = Budget(20_000)
    try:
        result = fn(*args, budget=budget, **kwargs)
    except CausekitError as exc:
        return [type(exc).__name__, budget.used]
    if isinstance(result, GameCauseVerdict):
        result = [
            result.is_cause,
            str(result.min_distance),
            [[sorted(w.strategy.choice.items()), w.winning] for w in result.witnesses],
        ]
    return [result, budget.used]


def sweep():
    """[(call kind, record)] over the seeded games."""
    records = []
    for seed in range(GAMES):
        rng = random.Random(seed)
        cyclic = seed % 2 == 1
        game = cyclic_game(rng, 10) if cyclic else acyclic_game(rng, 12)
        for player in ("reach", "safe"):
            if not game.owned_by(player):
                continue
            sigma = random_strategy(rng, game, player)
            seen = naive_reachable(id_adjacency(game, sigma), game.initial)
            pool = sorted(seen - game.effect - {game.initial})
            for _ in range(2 if pool else 0):
                cause = frozenset(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
                for metric in (METRIC_HAMM_S, METRIC_DSTAR):
                    query = GameCauseQuery(game, player, sigma, cause, metric)
                    records.append(
                        (f"check_cause_game {metric}", outcome(check_cause_game, query))
                    )
            try:
                explanation = extract_explanation(game, sigma).vertex_set
            except CausekitError:
                explanation = None
            for metric in (METRIC_HAMM_S, METRIC_DSTAR):
                records.append((
                    f"min_winning_distance {metric}",
                    outcome(min_winning_distance, game, sigma, metric),
                ))
                records.append((
                    f"min_winning_distance {metric} threshold=1",
                    outcome(min_winning_distance, game, sigma, metric, threshold=1),
                ))
                if explanation is not None:
                    records.append((
                        f"is_minimal_explanation {metric}",
                        outcome(
                            is_minimal_explanation, game, sigma, explanation, metric
                        ),
                    ))
    return records


def test_search_results_and_budget_use_are_pinned():
    pinned = json.loads(PINS.read_text())
    records = json.loads(json.dumps([record for _kind, record in sweep()]))
    assert len(records) == len(pinned)
    for i, (got, want) in enumerate(zip(records, pinned)):
        assert got == want, i


def moves(swept, pinned):
    """({call kind: [records whose result changed, whose budget rose, whose
    budget fell, budget used in the pins, budget used in the sweep]},
    {call kind: [the indices of the records that changed in any of these
    ways]}, [(index, call kind, result) of each record that ran out of
    budget in the pins and answers in the sweep]) between a sweep and the
    pins."""
    counts, keys, answered = {}, {}, []
    for i, ((kind, (result, used)), (old_result, old_used)) in enumerate(zip(swept, pinned)):
        row = counts.setdefault(kind, [0, 0, 0, 0, 0])
        row[0] += result != old_result
        row[1] += used > old_used
        row[2] += used < old_used
        row[3] += old_used
        row[4] += used
        if [result, used] != [old_result, old_used]:
            keys.setdefault(kind, []).append(i)
        if old_result == "BudgetExceeded" != result:
            answered.append((i, kind, result))
    return counts, keys, answered


if __name__ == "__main__":
    swept = json.loads(json.dumps(sweep()))
    pinned = json.loads(PINS.read_text()) if PINS.exists() else []
    if len(pinned) == len(swept):
        counts, keys, answered = moves(swept, pinned)
        for kind, (changed, rose, fell, before, after) in counts.items():
            print(
                f"{kind}: results changed {changed}, budget rose {rose}, fell {fell},"
                f" used {before} -> {after}"
            )
            if kind in keys:
                print("  records " + " ".join(map(str, keys[kind])))
        for i, kind, result in answered:
            print(f"record {i} ({kind}) exceeded the budget and now answers {json.dumps(result)}")
    else:
        print(f"{len(swept)} records against {len(pinned)} pinned")
    records = [record for _kind, record in swept]
    PINS.write_text(json.dumps(records, separators=(",", ":")) + "\n")
