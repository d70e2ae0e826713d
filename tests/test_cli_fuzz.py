"""Mutation fuzz of the CLI input.

A bundled fixture, with one field at any depth replaced by a value of the
wrong shape or an extreme one, or with one list shortened by its last
element, goes to any subcommand but ``corpus run`` (which never reads its
input).  ``cli.main`` must return 0, 1 or 2 and raise nothing, within
``EXAMPLE_SECONDS``: an input that runs on with no bound fails the test
instead of stalling the suite.
"""

import contextlib
import copy
import io
import json
import signal
import tempfile
from importlib import resources
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from semitoric import cli  # noqa: E402

FIXTURES = resources.files("semitoric") / "fixtures"
DOCS = {p.name: json.loads(p.read_text()) for p in FIXTURES.iterdir() if p.name.endswith(".json")}
COMMANDS = [command for command in cli.HANDLERS if command != ("corpus", "run")]
VALUES = [None, [], {}, "x", -1, 0, 10**6, [[]], [1.5], True]
DROP_LAST = "drop the last element"
EXAMPLE_SECONDS = 60


def field_paths(doc, path=()):
    """The key path of every field at any depth: dict values and list elements."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


PATHS = {name: list(field_paths(doc)) for name, doc in DOCS.items()}


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutations(draw):
    """(fixture name, key path of a field, its new value or DROP_LAST)."""
    name = draw(st.sampled_from(sorted(DOCS)))
    path = draw(st.sampled_from(PATHS[name]))
    field = lookup(DOCS[name], path)
    shortenable = isinstance(field, list) and field
    return name, path, draw(st.sampled_from(VALUES + [DROP_LAST] if shortenable else VALUES))


def mutated(name, path, choice):
    doc = copy.deepcopy(DOCS[name])
    *parents, key = path
    container = lookup(doc, parents)
    if choice == DROP_LAST:
        container[key].pop()
    else:
        container[key] = copy.deepcopy(choice)
    return doc


def on_alarm(signum, frame):
    # an exception raised in a garbage-collector callback or a finalizer is
    # swallowed, so the alarm rings again until one lands in the example
    signal.alarm(1)
    raise AssertionError(f"the example ran past {EXAMPLE_SECONDS} s")


# each of these asked for 10**12 or more lattice points and ran with no end
@example(("fermat_quartic.json", ("degrees", 0, 3), 10**6), ("ring", "dims"))
@example(("fermat_quintic.json", ("degrees", 1, 4), 10**6), ("ring", "dims"))
@example(("blowup_pullback.json", ("coeffs", 0), 10**6), ("divisor", "analyze"))
@example(("blowup_pullback.json", ("coeffs", 1), 10**6), ("divisor", "analyze"))
@example(("blowup_pullback.json", ("coeffs", 2), 10**6), ("divisor", "analyze"))
@settings(max_examples=400)
@given(mutations(), st.sampled_from(COMMANDS))
def test_mutated_fixture_exits_0_1_or_2(mutation, command):
    doc = mutated(*mutation)
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(EXAMPLE_SECONDS)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*command, "--input", str(path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
