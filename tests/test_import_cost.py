"""What ``import semitoric`` loads: no module it does not use.

A fresh interpreter started with ``-I -S`` (no site packages, so no ``.pth``
file preloads anything) imports the package and its CLI.  The test checks
module names, not timings, so it does not depend on the speed of the host.
"""

import json
import subprocess
import sys
from pathlib import Path

import semitoric

SRC = Path(semitoric.__file__).resolve().parent.parent
# each costs milliseconds at import and has no use in the package
NOT_LOADED = ("dataclasses", "inspect", "typing", "importlib.resources")

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import semitoric, semitoric.cli
print(" ".join(m for m in sys.argv[2:] if m in sys.modules))
import json
print(json.dumps(semitoric.cli._fixture("projective_plane.json")))
"""


def test_import_loads_no_heavy_module_and_fixtures_still_load():
    out = subprocess.run([sys.executable, "-I", "-S", "-c", PROBE, str(SRC), *NOT_LOADED],
                         capture_output=True, text=True, check=True)
    loaded, fixture = out.stdout.splitlines()
    assert loaded == ""
    path = SRC / "semitoric" / "fixtures" / "projective_plane.json"
    assert json.loads(fixture) == json.loads(path.read_text())
