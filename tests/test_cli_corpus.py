"""Replay of the committed CLI output corpus, tests/data/cli_corpus.jsonl.

The corpus and its generator are described in tests/cli_corpus.py.  A change
that alters an answer on purpose regenerates the file
(`PYTHONPATH=src python tests/cli_corpus.py`) and lists each changed line.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import exactgroups
from exactgroups import cli
from tests import cli_corpus


def _lines():
    return cli_corpus.CORPUS.read_text(encoding="utf-8").splitlines()


def test_corpus_covers_every_command():
    exits = {}
    for line in _lines():
        record = json.loads(line)
        exits.setdefault(tuple(record["argv"][:2]), set()).add(record["exit"])
    for command in cli.COMMANDS:
        assert {0, 2} <= exits[command], command


def test_corpus_replays_byte_identically():
    changed = []
    for line in _lines():
        record = json.loads(line)
        replayed = cli_corpus.dumps(cli_corpus.answer(record["argv"], record["stdin"]))
        if replayed != line:
            changed.append((line, replayed))
    assert not changed, f"{len(changed)} answers changed; first: {changed[0]}"


def test_replay_independent_of_hash_seed():
    # Every fifth request, answered in two interpreters with different string
    # hash seeds, must give the corpus lines.
    env = dict(os.environ)
    package_root = str(Path(exactgroups.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    outputs = []
    for seed in ("0", "31337"):
        proc = subprocess.run([sys.executable, cli_corpus.__file__, "--replay", "5"],
                              capture_output=True, text=True, timeout=120,
                              env=dict(env, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines() == _lines()[::5]
