"""Every bundled fixture under every subcommand, with and without
``--verify``, gives the same report as when its digest was pinned.

A digest is the sha256 of the exit code, standard output and standard
error of one in-process CLI run, joined by newlines; ``report_digests.json``
maps "<fixture> <group> <action>[ --verify]" to it.  Most pairs exit 1 (the
fixture lacks a field the subcommand needs), and those messages are pinned
too.  A change that alters any report on purpose re-pins its digest and
says why.

``corpus run`` reads the bundled fixtures and never its input, so it runs
once per ``--verify`` mode, and the pin of every fixture in that mode is
compared with that one digest.
"""

import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from semitoric import cli

FIXTURES = resources.files("semitoric") / "fixtures"
PINNED = json.loads((Path(__file__).resolve().parent / "report_digests.json").read_text())


def runs():
    names = sorted(p.name for p in FIXTURES.iterdir() if p.name.endswith(".json"))
    return [f"{name} {group} {action}{flag}" for name in names
            for group, action in cli.HANDLERS for flag in ("", " --verify")]


def test_every_fixture_and_subcommand_is_pinned():
    assert sorted(PINNED) == sorted(runs())


def report_digest(name, group, action, flag, capsys):
    with resources.as_file(FIXTURES / name) as path:
        code = cli.main([group, action, "--input", str(path), *flag])
    out, err = capsys.readouterr()
    return hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus_digests():
    return {}  # --verify mode -> digest of the one corpus run in that mode


@pytest.mark.parametrize("run", runs())
def test_report_matches_its_pinned_digest(run, capsys, corpus_digests):
    name, group, action, *flag = run.split()
    if (group, action) != ("corpus", "run"):
        assert report_digest(name, group, action, flag, capsys) == PINNED[run]
        return
    mode = tuple(flag)
    if mode not in corpus_digests:
        corpus_digests[mode] = report_digest(name, group, action, flag, capsys)
    assert corpus_digests[mode] == PINNED[run]
