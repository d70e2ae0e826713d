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


# The pins of the four Gram reports while every cell was listed.
DENSE_PINS = {
    "fermat_quintic.json threefold h3":
        "086f97649533460175edfeaa22834981ea9a8fedcc936a2a9eb9d5105e587797",
    "fermat_quintic.json threefold h3 --verify":
        "ba297abe352f657c74578b7f4bd1e2dcd8ae4bd14c20e92b160929bae4e55aab",
    "p11222_crepant.json threefold h3":
        "b63ce525ae091a66b7f31cb511b08efc332323e02e9eee0ab0108d96d5176955",
    "p11222_crepant.json threefold h3 --verify":
        "aed7670c21534dd9a46a18766ec993b1861ed55ea60b0054415862915af751d6",
}


def densify(gram, blocks):
    """The dense form of a sparse Gram block: every unlisted cell is a zero,
    of (2 pi i)^2 between two link blocks and (2 pi i)^4 otherwise."""
    def kinds(level):
        return [b["kind"] for b in blocks[str(level)] for _ in range(b["dim"])]

    row_kinds, col_kinds = kinds(gram["level_a"]), kinds(gram["level_b"])
    assert gram.pop("columns") == len(col_kinds)
    dense = []
    for row_kind, row in zip(row_kinds, gram["entries"], strict=True):
        cells = [{"rational": "0", "two_pi_i_exponent": 2 if row_kind == kind == "link" else 4}
                 for kind in col_kinds]
        for entry in row:
            cells[entry.pop("col")] = entry
        dense.append(cells)
    gram["entries"] = dense


@pytest.mark.parametrize("run", sorted(DENSE_PINS))
def test_sparse_gram_report_densifies_to_the_dense_pin(run, capsys):
    """Filling the unlisted cells with zeros and dropping `columns` rebuilds,
    byte for byte, the report that listed every cell."""
    name, group, action, *flag = run.split()
    with resources.as_file(FIXTURES / name) as path:
        code = cli.main([group, action, "--input", str(path), *flag])
    out, err = capsys.readouterr()
    report = json.loads(out)
    for gram in report["gram"]:
        densify(gram, report["blocks"])
    text = json.dumps(report, sort_keys=True, indent=2, separators=(",", ": "))
    assert hashlib.sha256(f"{code}\n{text}\n\n{err}".encode()).hexdigest() == DENSE_PINS[run]
