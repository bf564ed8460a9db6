"""Pinned CLI bytes of the benchmark's queries.

`cli_corpus.json` holds one record per query of the seed-1 lists of the three
benchmark workloads and of the small-instances lists of seeds 2 and 3, keyed
`workload/seed/index`: [exit code, `budgetUsed`, 16-hex sha256 of stdout].
The instances come from `perfbench/instances.build` and the queries run in
process through `perfbench/workload.run_query`, as the benchmark runs them.
Before hashing, the work directory becomes `<work>` and the `budgetUsed`
value is blanked, so a change of the budget alone shows apart from a change
of the bytes.

Regenerate the file only for an intended change of those results:
`PYTHONPATH=src python tests/test_cli_corpus.py`.  Before writing, it prints
per query kind how many records changed their digest or exit code, and on
how many the budget rose or fell, and lists the keys of the changed records.
"""

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

import causekit
from causekit import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import instances  # noqa: E402
import workload  # noqa: E402

CORPUS = Path(__file__).with_name("cli_corpus.json")
LISTS = (("ts-large", 1), ("game-large", 1), ("small-instances", 1),
         ("small-instances", 2), ("small-instances", 3))
BUDGET_USED = re.compile(r'"budgetUsed": (\d+)')


def record(code, text, work):
    """[exit code, budgetUsed or None, digest of the normalized stdout]."""
    used = BUDGET_USED.search(text)
    text = BUDGET_USED.sub('"budgetUsed": _', text.replace(work, "<work>"))
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return [code, used and int(used.group(1)), digest]


def sweep(root):
    """({key: record}, {key: query kind}) over the lists, built under `root`."""
    records, kinds = {}, {}
    for name, seed in LISTS:
        work = str(Path(root) / f"{name}-{seed}")
        for q in instances.build(name, seed, work):
            key = f"{name}/{seed}/{q['id']}"
            records[key] = record(*workload.run_query(q, cli, causekit), work)
            kinds[key] = q["kind"]
    return records, kinds


def test_cli_bytes_and_budgets_are_pinned(tmp_path):
    records, _kinds = sweep(tmp_path)
    pinned = json.loads(CORPUS.read_text())
    assert list(records) == list(pinned)
    for key, got in records.items():
        assert got == pinned[key], key


def moves(swept, kinds, pinned):
    """({query kind: [records whose digest or exit changed, whose budget
    rose, whose budget fell]}, {query kind: [the keys of the records that
    changed in any of these ways]}) between a sweep and the corpus."""
    counts, keys = {}, {}
    for key, (code, used, digest) in swept.items():
        old_code, old_used, old_digest = pinned[key]
        row = counts.setdefault(kinds[key], [0, 0, 0])
        row[0] += (code, digest) != (old_code, old_digest)
        row[1] += (used or 0) > (old_used or 0)
        row[2] += (used or 0) < (old_used or 0)
        if [code, used, digest] != [old_code, old_used, old_digest]:
            keys.setdefault(kinds[key], []).append(key)
    return counts, keys


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        swept, kinds = sweep(root)
    pinned = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    if list(pinned) == list(swept):
        counts, keys = moves(swept, kinds, pinned)
        for kind, (changed, rose, fell) in sorted(counts.items()):
            print(f"{kind}: bytes or exit changed {changed}, budget rose {rose}, fell {fell}")
            if kind in keys:
                print("  " + " ".join(keys[kind]))
    else:
        print(f"{len(swept)} records against {len(pinned)} pinned")
    lines = [f"{json.dumps(key)}:{json.dumps(rec, separators=(',', ':'))}"
             for key, rec in swept.items()]
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
