"""The one-pass loader against the per-item reference loader.

`model_from_json` and the model constructors check each array with one
test and fill the successor map in any order, skipping the sort and the
duplicate scan on input in writer order; `helpers.naive_model_from_json`
and `helpers.naive_ts` / `naive_game` check item by item over sorted
transitions and edges.  On the same input both must build equal models, with equal
numbered lists, or fail with the same exception and message.  The one
intended difference: a missing field is an InvalidModel naming it, where
the reference raises a bare KeyError.
"""

import copy
import hashlib
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from causekit import cli
from causekit.cli import generate_json
from causekit.errors import InvalidModel
from causekit.fixtures import fixture_text
from causekit.generators import FAMILIES, GeneratorSpec, generate
from causekit.model import (
    EFFECT,
    REACH,
    SAFE,
    ReachabilityGame,
    TransitionSystem,
    dumps_canonical,
    load_model,
    model_from_json,
    model_to_json,
    read_json,
)

from helpers import naive_game, naive_model_from_json, naive_ts, successor_map

MODEL_FAMILIES = ("layered-ts", "acyclic-ts", "acyclic-game", "cyclic-game")


def outcome(load, data):
    """The loaded model, or the exception's type and message."""
    try:
        return load(data)
    except Exception as exc:  # the comparison is over every exception type
        return type(exc), str(exc)


def numbered(reference):
    """The numbered lists a model keeps, read off the reference's id views."""
    game = isinstance(reference, ReachabilityGame)
    ids = reference.vertices if game else tuple(sorted(set(reference.states)))
    index = {v: i for i, v in enumerate(ids)}
    lists = {
        "ids": ids,
        "index": index,
        "_succ": [tuple(index[u] for u in reference._id_succ[v]) for v in ids],
        "_pred": [[index[u] for u in reference.naive_pred[v]] for v in ids],
        "_init": index[reference.initial],
    }
    if game:
        parts = {REACH: reference.reach_owned, SAFE: reference.safe_owned,
                 EFFECT: reference.effect}
        lists["_owns"] = {p: bytes(v in part for v in ids) for p, part in parts.items()}
    else:
        lists["_labels"] = [reference.labeling[s] for s in ids]
    return lists


def assert_same_model(model, reference):
    assert model == reference
    assert successor_map(model) == successor_map(reference)
    assert getattr(model, "vertices", None) == getattr(reference, "vertices", None)
    want = numbered(reference)
    assert {name: getattr(model, name) for name in want} == want


def assert_same_outcome(load, reference, data):
    got, want = outcome(load, copy.deepcopy(data)), outcome(reference, copy.deepcopy(data))
    if isinstance(want, tuple) and want[0] is KeyError:
        # The reference fails with a bare KeyError; the loader names the field.
        assert got[0] is InvalidModel
        assert got[1].endswith(f"missing field {want[1]}")
    elif isinstance(want, tuple):
        assert got == want
    else:
        assert_same_model(got, want)


def generated_json(family, seed):
    spec = GeneratorSpec(family, seed, states=9, layers=5, width=3, alphabet=3)
    return model_to_json(generate(spec))


def shuffled(data, rng):
    """The same model with its arrays shuffled and some pairs duplicated."""
    data = copy.deepcopy(data)
    key = "transitions" if data["kind"] == "ts" else "edges"
    pairs = data[key]
    pairs.extend(rng.sample(pairs, rng.randint(0, len(pairs))))
    for array in (pairs, data.get("states") or data["vertices"], data.get("alphabet", [])):
        rng.shuffle(array)
    return data


# Defect kinds in the order they are applied, each at most once: the last two
# remove what the others edit.
DEFECTS = (
    "duplicate-id", "unknown-source", "unknown-target", "int-endpoint", "triple",
    "list-id", "bad-initial", "label", "owner", "edge-out-of-effect", "dead-end",
    "no-records", "missing-field",
)


def damage(data, rng, kind):
    """Apply one defect of the kinds the loader must name."""
    ts = data["kind"] == "ts"
    records = data["states"] if ts else data["vertices"]
    pairs = data["transitions"] if ts else data["edges"]
    ids = [r["id"] for r in records]
    if kind == "duplicate-id":
        records.insert(rng.randrange(len(records) + 1), dict(rng.choice(records)))
    elif kind in ("unknown-source", "unknown-target"):
        pair = [rng.choice(ids), rng.choice(ids)]
        pair[kind == "unknown-target"] = rng.choice(("zz", "a0", "~"))
        pairs.insert(rng.randrange(len(pairs) + 1), pair)
    elif kind == "int-endpoint" and pairs:
        rng.choice(pairs)[rng.randrange(2)] = rng.randrange(3)
    elif kind == "triple" and pairs:
        rng.choice(pairs).append(rng.choice(ids))
    elif kind == "list-id":
        rng.choice(records)["id"] = [rng.choice(ids)]
    elif kind == "missing-field":
        target = data if not records or rng.random() < 0.5 else rng.choice(records)
        del target[rng.choice(sorted(target))]
    elif kind == "bad-initial":
        data["initial"] = rng.choice(("zz", 5, ids[-1]))
    elif kind == "label" and ts:
        rng.choice(records)["label"] = rng.choice(("z", 7, ["a"]))
    elif kind == "owner" and not ts:
        rng.choice(records)["owner"] = rng.choice(("boss", ["reach"], {"x": 1}, 3, None))
    elif kind == "edge-out-of-effect" and not ts:
        effect = [r["id"] for r in records if r["owner"] == "effect"]
        for source in rng.sample(effect, min(len(effect), rng.randint(1, 3))):
            pairs.append([source, rng.choice(ids)])
    elif kind == "dead-end":
        if ts:
            records.append({"id": "zz", "label": data["alphabet"][0]})
        else:
            records.append({"id": "zz", "owner": rng.choice(("reach", "safe"))})
            victim = rng.choice(ids)
            pairs[:] = [p for p in pairs if p[0] != victim]
    elif kind == "no-records":
        records.clear()


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(MODEL_FAMILIES),
    seed=st.integers(0, 10_000),
    order=st.integers(0, 2**32),
)
def test_loader_matches_the_reference_on_reordered_documents(family, seed, order):
    data = shuffled(generated_json(family, seed), random.Random(order))
    model = model_from_json(data)
    assert_same_model(model, naive_model_from_json(data))
    assert model_from_json(model_to_json(model)) == model


@settings(max_examples=600, deadline=None)
@given(
    family=st.sampled_from(MODEL_FAMILIES),
    seed=st.integers(0, 10_000),
    draws=st.integers(0, 2**32),
    defects=st.lists(st.sampled_from(DEFECTS), min_size=1, max_size=3, unique=True),
)
def test_loader_matches_the_reference_on_damaged_documents(family, seed, draws, defects):
    rng = random.Random(draws)
    data = shuffled(generated_json(family, seed), rng)
    for kind in sorted(defects, key=DEFECTS.index):
        damage(data, rng, kind)
    assert_same_outcome(model_from_json, naive_model_from_json, data)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000), draws=st.integers(0, 2**32))
def test_constructors_match_the_reference(seed, draws):
    """Field sets no JSON document produces: missing and unhashable labels,
    labels outside a shortened alphabet, unknown targets, overlapping
    partitions and dead ends."""
    rng = random.Random(draws)
    ts = generate(GeneratorSpec("acyclic-ts", seed, states=8, alphabet=3))
    game = generate(GeneratorSpec("cyclic-game", seed, states=8))
    labeling = dict(ts.labeling)
    for s in rng.sample(ts.states, rng.randint(0, 2)):
        if rng.random() < 0.5:
            del labeling[s]
        else:
            labeling[s] = rng.choice(("z", ["a"]))
    transitions = set(ts.transitions)
    if rng.random() < 0.3:
        transitions.add((rng.choice(ts.states), rng.choice(("zz", "s99"))))
    ts_fields = dict(
        states=ts.states, initial=ts.initial, transitions=frozenset(transitions),
        labeling=labeling, alphabet=ts.alphabet[: rng.randint(1, len(ts.alphabet))],
    )
    reach, safe = set(game.reach_owned), set(game.safe_owned)
    if rng.random() < 0.2:
        reach.add(rng.choice(sorted(game.effect)))
    edges = set(game.edges)
    for _ in range(rng.randint(0, 2)):
        edges.discard(rng.choice(sorted(edges)))
    game_fields = dict(
        reach_owned=frozenset(reach), safe_owned=frozenset(safe), effect=game.effect,
        initial=game.initial, edges=frozenset(edges),
    )
    assert_same_outcome(lambda f: TransitionSystem(**f), lambda f: naive_ts(**f), ts_fields)
    assert_same_outcome(lambda f: ReachabilityGame(**f), lambda f: naive_game(**f), game_fields)


@pytest.mark.parametrize(
    "edges, message",
    [
        ({("v0", "e1"), ("e3", "v0"), ("e2", "v0"), ("e1", "v0")},
         "effect vertex 'e1' has an outgoing edge"),
        ({("v0", "e1"), ("v0", "v3"), ("v0", "v2")}, "non-effect vertex 'v2' is a dead end"),
        ({("v0", "e1"), ("v3", "zz"), ("v2", "zy"), ("v2", "e9")},
         "edge ('v2', 'e9') leaves the vertex set"),
    ],
    ids=["effect-out-edges", "dead-ends", "dangling-edges"],
)
def test_constructor_names_the_least_offender(edges, message):
    fields = dict(
        reach_owned=frozenset({"v0", "v3"}), safe_owned=frozenset({"v2"}),
        effect=frozenset({"e1", "e2", "e3"}), initial="v0", edges=frozenset(edges),
    )
    for build in (ReachabilityGame, naive_game):
        with pytest.raises(InvalidModel) as caught:
            build(**fields)
        assert str(caught.value) == message


# One way each to break the writer order that `model_to_json` keeps: ids
# strictly increasing, pairs strictly increasing.
PERTURBATIONS = (
    "repeat-pair", "swap-within-source", "swap-across-sources", "shuffle-records",
    "shuffle-pairs", "duplicate-id",
)


def perturb(data, rng, kind):
    """Apply the perturbation `kind` to a document in writer order; False if
    the document has no two pairs it can apply to."""
    ts = data["kind"] == "ts"
    records = data["states"] if ts else data["vertices"]
    pairs = data["transitions"] if ts else data["edges"]
    if kind == "repeat-pair":
        i = rng.randrange(len(pairs))
        pairs.insert(i + 1, list(pairs[i]))
    elif kind.startswith("swap"):
        within = kind == "swap-within-source"
        candidates = [
            (i, j) for i in range(len(pairs)) for j in range(i + 1, len(pairs))
            if (pairs[i][0] == pairs[j][0]) == within
        ]
        if not candidates:
            return False
        i, j = rng.choice(candidates)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    elif kind.startswith("shuffle"):
        array = records if kind == "shuffle-records" else pairs
        if len(array) < 2:
            return False
        original = list(array)
        while array == original:
            rng.shuffle(array)
    elif kind == "duplicate-id":
        i = rng.randrange(len(records))
        records.insert(i + 1, dict(records[i]))
    return True


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(MODEL_FAMILIES),
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(PERTURBATIONS),
    draws=st.integers(0, 2**32),
)
def test_loader_matches_the_reference_off_writer_order(family, seed, kind, draws):
    data = generated_json(family, seed)
    assume(perturb(data, random.Random(draws), kind))
    assert_same_outcome(model_from_json, naive_model_from_json, data)


def test_gen_writes_models_in_writer_order():
    """`causekit gen` writes sorted ids and strictly increasing pairs, the
    order in which the loader neither sorts nor deduplicates."""
    written = set()
    for family in FAMILIES:
        for seed in range(20):
            spec = GeneratorSpec(family, seed, states=12, layers=6, width=4, alphabet=3)
            doc = generate_json(spec)
            if doc["kind"] == "sem":
                continue
            written.add(family)
            ts = doc["kind"] == "ts"
            ids = [r["id"] for r in (doc["states"] if ts else doc["vertices"])]
            pairs = doc["transitions"] if ts else doc["edges"]
            assert all(a < b for a, b in zip(ids, ids[1:]))
            assert all(a < b for a, b in zip(pairs, pairs[1:]))
    assert written == set(MODEL_FAMILIES)


def test_a_state_given_twice_is_written_once():
    ts = TransitionSystem(
        states=("b", "a", "b"), initial="a", transitions=frozenset({("a", "b")}),
        labeling={"a": "x", "b": "y"}, alphabet=("x", "y"),
    )
    doc = model_to_json(ts)
    assert doc["states"] == [{"id": "a", "label": "x"}, {"id": "b", "label": "y"}]
    assert successor_map(model_from_json(doc)) == successor_map(ts)


@pytest.mark.parametrize("family", MODEL_FAMILIES)
def test_successors_are_sorted_whatever_the_fill_order(family):
    rng = random.Random(family)
    for seed in range(30):
        built = generate(GeneratorSpec(family, seed, states=12, layers=6, width=4))
        loaded = model_from_json(shuffled(model_to_json(built), rng))
        pairs = built.transitions if isinstance(built, TransitionSystem) else built.edges
        for model in (built, loaded):
            for v, succ in successor_map(model).items():
                assert succ == tuple(sorted(dst for src, dst in pairs if src == v))


# sha256 prefixes of `causekit gen` output for seeds 0-39 of each family, as
# written when the constructors still filled successors over sorted pairs.
GEN_DIGESTS = {
    "layered-ts": "4f91b0905f7515aa",
    "acyclic-ts": "5e541e2488d42713",
    "acyclic-game": "c08420a1928bc7fb",
    "cyclic-game": "e2b6c8b353395fa5",
}


@pytest.mark.parametrize("family", MODEL_FAMILIES)
def test_gen_output_is_unchanged(family):
    digest = hashlib.sha256()
    for seed in range(40):
        spec = GeneratorSpec(family, seed, states=12, layers=6, width=4, alphabet=3)
        digest.update(dumps_canonical(generate_json(spec)).encode())
    assert digest.hexdigest()[:16] == GEN_DIGESTS[family]


# ---------------------------------------------------------------------------
# reading files: `read_json` decodes bytes, and must read what a text-mode
# read would


def text_mode_error(path):
    """The message of the error a text-mode UTF-8 read of the file raises."""
    try:
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{path} decodes")


def solve(path, capsys):
    """(exit code, stderr) of `causekit solve` on the model file."""
    code = cli.main(["solve", "--model", str(path)])
    out, err = capsys.readouterr()
    return code, err


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_a_model_with_other_line_ends_loads_equal_to_its_lf_twin(tmp_path, newline):
    text = fixture_text("loop_game.json")
    assert "\n" in text and "\r" not in text
    lf, other = tmp_path / "lf.json", tmp_path / "other.json"
    lf.write_bytes(text.encode())
    other.write_bytes(text.replace("\n", newline).encode())
    assert read_json(other) == read_json(lf)
    assert load_model(other) == load_model(lf)


@pytest.mark.parametrize(
    "data",
    [
        b"\xef\xbb\xbf" + fixture_text("loop_game.json").encode(),  # a byte order mark
        b'{"kind": "game",\n "vertices": ["v\xff"]}',  # not UTF-8
        fixture_text("loop_game.json").encode("utf-16"),
    ],
    ids=["bom", "invalid-utf-8", "utf-16"],
)
def test_a_file_that_is_not_plain_utf_8_exits_2(tmp_path, capsys, data):
    path = tmp_path / "model.json"
    path.write_bytes(data)
    assert solve(path, capsys) == (2, f"causekit: {text_mode_error(path)}\n")


def test_a_crlf_syntax_error_keeps_its_message(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_bytes(b'{\r\n  "kind": "game",\r\n\r  "vertices": [,]\r\n}\r\n')
    message = text_mode_error(path)
    assert message == "Expecting value: line 4 column 16 (char 36)"
    assert solve(path, capsys) == (2, f"causekit: {message}\n")
