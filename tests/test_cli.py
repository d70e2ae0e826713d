import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib import metadata, resources
from pathlib import Path

import pytest

import semitoric
from semitoric import catalog
from semitoric.cli import main
from semitoric.polytope import LatticePolytope
from semitoric.residue import CupProduct, PairingValue
from semitoric.threefold import GramBlock, ThreefoldAnalysis

FIXTURES = resources.files("semitoric") / "fixtures"
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name):
    return json.loads((FIXTURES / name).read_text())


def package_env():
    """Environment for a fresh interpreter that imports this semitoric package."""
    src = str(Path(semitoric.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + os.pathsep + inherited if inherited else src)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BLOWUP_PULLBACK = {
    "fan": {"rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
            "max_cones": [[0, 3], [3, 1], [1, 2], [2, 0]]},
    "coeffs": [0, 0, 1, 0],
}


def test_fan_check(tmp_path, capsys):
    path = write(tmp_path, "fan.json", {"fan": BLOWUP_PULLBACK["fan"]})
    code, out, _ = run(capsys, "fan", "check", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["complete"] and doc["simplicial"] and doc["issues"] == []


def test_fan_check_lower_dimensional_square_cone(tmp_path, capsys):
    """A non-simplicial cone that is not full-dimensional meets a 2-cone in a
    common ray: the only issues are incompleteness and non-simpliciality."""
    fan = {"rays": [[1, 1, 1, 0], [1, -1, 1, 0], [-1, -1, 1, 0], [-1, 1, 1, 0],
                    [0, 0, 0, 1]],
           "max_cones": [[0, 1, 2, 3], [0, 4]]}
    path = write(tmp_path, "fan.json", {"fan": fan})
    code, out, _ = run(capsys, "fan", "check", "--input", path)
    assert code == 0
    assert json.loads(out)["issues"] == ["fan is not complete", "fan is not simplicial"]


def test_divisor_sigma_d(tmp_path, capsys):
    path = write(tmp_path, "div.json", BLOWUP_PULLBACK)
    code, out, _ = run(capsys, "divisor", "sigma-d", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert sorted(map(tuple, doc["fan"]["rays"])) == [(-1, -1), (0, 1), (1, 0)]


def test_divisor_nakai(tmp_path, capsys):
    path = write(tmp_path, "div.json", BLOWUP_PULLBACK)
    code, out, _ = run(capsys, "divisor", "nakai", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["globally_generated"] and not doc["ample"]
    assert "0" in {c["value"] for c in doc["curve_numbers"]}


def test_divisor_nakai_verify(tmp_path, capsys, monkeypatch):
    """--verify checks the Nakai flags against convexity and, for a globally
    generated divisor, every curve number against its slice volume; the rest
    of the report is unchanged.  A wrong wall table fails the slice check."""
    from semitoric.divisor import TorusInvariantDivisor

    path = write(tmp_path, "div.json", BLOWUP_PULLBACK)
    code, plain, _ = run(capsys, "divisor", "nakai", "--input", path)
    assert code == 0
    code, out, _ = run(capsys, "divisor", "nakai", "--input", path, "--verify")
    assert code == 0
    report = json.loads(out)
    assert report.pop("verification") == {"nakai_globally_generated_matches": True,
                                          "nakai_ample_matches": True,
                                          "slice_volumes_match": True}
    assert report == json.loads(plain)
    code, out, _ = run(capsys, "divisor", "analyze", "--input", path, "--verify")
    assert sorted(json.loads(out)["verification"]) == ["nakai_ample_matches",
                                                       "nakai_globally_generated_matches"]

    not_gg = write(tmp_path, "minus.json", dict(BLOWUP_PULLBACK, coeffs=[0, 0, -1, 0]))
    code, out, _ = run(capsys, "divisor", "nakai", "--input", not_gg, "--verify")
    assert code == 0
    assert json.loads(out)["verification"] == {"nakai_globally_generated_matches": True,
                                               "nakai_ample_matches": True}

    true_table = TorusInvariantDivisor.curve_numbers
    monkeypatch.setattr(TorusInvariantDivisor, "curve_numbers",
                        lambda self: {tau: v + 1 for tau, v in true_table(self).items()})
    code, out, _ = run(capsys, "divisor", "nakai", "--input", path, "--verify")
    assert code == 0
    assert json.loads(out)["verification"]["slice_volumes_match"] is False


def test_divisor_stratify(tmp_path, capsys):
    path = write(tmp_path, "div.json", BLOWUP_PULLBACK)
    code, out, _ = run(capsys, "divisor", "stratify", "--input", path)
    assert code == 0
    doc = json.loads(out)
    strata = {tuple(s["cone"]): s for s in doc["strata"]}
    assert strata[(3,)]["torus_factor_dim"] == 1


def test_malformed_rays_exit_1(tmp_path, capsys):
    path = write(tmp_path, "bad.json",
                 {"fan": {"rays": [[1, 0], ["x", 1]], "max_cones": [[0, 1]]}})
    code, out, err = run(capsys, "fan", "check", "--input", path)
    assert code == 1
    assert "rays[1]" in err


def test_missing_field_exit_1(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"fan": {"rays": [[1, 0]]}})
    code, _, err = run(capsys, "fan", "check", "--input", path)
    assert code == 1
    assert "max_cones" in err


def test_unreadable_input_exit_1(capsys):
    code, _, err = run(capsys, "fan", "check", "--input", "/nonexistent.json")
    assert code == 1


RAGGED_RAYS = {"rays": [[1, 0], [0, 1, 0], [-1, -1]],
               "max_cones": [[0, 1], [1, 2], [2, 0]]}
RAGGED_NORMALS = {"polytope": {"inequalities": [
    {"normal": [1, 0, 5], "rhs": -1},
    {"normal": [0, 1], "rhs": -1},
    {"normal": [-1, -1], "rhs": -1}]}}


@pytest.mark.parametrize("command, doc, named", [
    (("fan", "check"), {"fan": RAGGED_RAYS}, "ray 1"),
    (("divisor", "analyze"), {"fan": RAGGED_RAYS, "coeffs": [1, 1, 1]}, "ray 1"),
    (("hodge", "h21"), RAGGED_NORMALS, "normal 1"),
    (("hodge", "h21"), {"polytope": {"inequalities": []}}, "polytope.inequalities"),
    (("hodge", "h21"), {"polytope": {"vertices": 5}}, "polytope.vertices"),
    (("ring", "dims"), dict(fixture("fermat_quintic.json"),
                            degrees=[[0, 0, 0, 0, 5], [0, 0, 5]]), "input.degrees[1]"),
    (("ring", "dims"), dict(fixture("fermat_quintic.json"),
                            degrees=[[0, 0, 0, 0, 0, 5]]), "input.degrees[0]"),
])
def test_ragged_vectors_exit_1(tmp_path, command, doc, named):
    """Vectors of the wrong length, or none at all, are an input error, not
    a crash."""
    path = write(tmp_path, "ragged.json", doc)
    out = subprocess.run([sys.executable, "-m", "semitoric.cli", *command,
                          "--input", path], capture_output=True, text=True,
                         env=package_env())
    assert out.returncode == 1
    assert "input error" in out.stderr and named in out.stderr
    assert "Traceback" not in out.stderr


def quintic_with(**changes):
    doc = fixture("fermat_quintic.json")
    doc.update(changes)
    return doc


def quintic_with_den(den):
    doc = fixture("fermat_quintic.json")
    doc["polynomial"]["terms"][2]["den"] = den
    return doc


@pytest.mark.parametrize("command, doc, named", [
    (("threefold", "h3"), quintic_with(gram="no"), "input.gram: expected bool"),
    (("threefold", "h3"), quintic_with(gram=0), "input.gram: expected bool"),
    (("threefold", "h3"), quintic_with_den(True),
     "polynomial.terms[2].den: expected a nonzero integer"),
    (("ring", "dims"), quintic_with_den(False),
     "polynomial.terms[2].den: expected a nonzero integer"),
    (("fan", "check"), {"fan": {"rays": [[1, 0], [0, 1], [-1, -1]],
                                "max_cones": [[0, 1], [1, 2], [2, 3]]}},
     "max cone 2 [2, 3] refers to ray index 3, out of range 0..2"),
    (("fan", "check"), {"fan": {"rays": [[1, 0], [0, 1], [-1, -1], [0, 1]],
                                "max_cones": [[0, 1], [1, 2], [2, 0]]}},
     "rays 1 and 3 are equal: [0, 1]"),
])
def test_malformed_fields_exit_1(tmp_path, capsys, command, doc, named):
    """A wrongly typed flag or denominator, a ray index out of range and a
    repeated ray are input errors that name the field, not reports."""
    path = write(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, *command, "--input", path)
    assert code == 1
    assert out == ""
    assert "input error" in err and named in err


PENTAGRAM = {"rays": [[1, 0], [1, 2], [-1, 1], [-1, -1], [1, -2]],
             "max_cones": [[k, (k + 2) % 5] for k in range(5)]}
DOUBLE_TRIANGLE = {"rays": [[1, 0], [0, 1], [-1, -1], [2, 1], [-1, 0], [0, -1]],
                   "max_cones": [[k, (k + 1) % 6] for k in range(6)]}


@pytest.mark.parametrize("command", [("fan", "check"), ("divisor", "analyze"),
                                     ("divisor", "nakai")])
@pytest.mark.parametrize("fan, named", [(PENTAGRAM, "[[0, 2], [1, 3]]"),
                                        (DOUBLE_TRIANGLE, "[[0, 1], [3, 4]]")])
def test_non_fan_exit_1(tmp_path, capsys, command, fan, named):
    """Cones that close up along their facets but cover the plane twice are
    an input error that names the cones, not a report."""
    path = write(tmp_path, "cover.json", {"fan": fan, "coeffs": [1] * len(fan["rays"])})
    code, out, err = run(capsys, *command, "--input", path)
    assert code == 1
    assert out == ""
    assert "input error" in err and named in err
    assert "Traceback" not in err


def test_precondition_failure_exit_2(tmp_path, capsys):
    doc = {"fan": {"rays": [[1, 0], [0, 1], [-1, -1]],
                   "max_cones": [[0, 1], [0, 2], [1, 2]]},
           "coeffs": [0, 0, 0]}  # trivial divisor: not semiample
    path = write(tmp_path, "div.json", doc)
    code, _, err = run(capsys, "divisor", "sigma-d", "--input", path)
    assert code == 2
    assert "semiample" in err


def test_ring_dims(tmp_path, capsys):
    doc = {
        "fan": {"rays": [[1, 0], [0, 1], [-1, -1]],
                "max_cones": [[0, 1], [0, 2], [1, 2]]},
        "polynomial": {"terms": [{"exps": [3, 0, 0], "num": 1},
                                 {"exps": [0, 3, 0], "num": 1},
                                 {"exps": [0, 0, 3], "num": 1}]},
        "degrees": [[0, 0, 0], [0, 0, 3]],
    }
    path = write(tmp_path, "ring.json", doc)
    code, out, _ = run(capsys, "ring", "dims", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert [e["r1_dim"] for e in doc["entries"]] == [1, 1]
    assert [e["s_dim"] for e in doc["entries"]] == [1, 10]


def test_residue_eval(tmp_path, capsys):
    doc = {
        "fan": {"rays": [[1], [-1]], "max_cones": [[0], [1]]},
        "sections": [{"terms": [{"exps": [2, 0], "num": 1}]},
                     {"terms": [{"exps": [0, 2], "num": 1}]}],
        "argument": {"terms": [{"exps": [1, 1], "num": 1}]},
    }
    path = write(tmp_path, "res.json", doc)
    code, out, _ = run(capsys, "residue", "eval", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["residue"] == "-1"
    assert doc["jacobian_residue"] == "2"


def test_cup_pair(tmp_path, capsys):
    doc = fixture("fermat_cubic.json")
    path = write(tmp_path, "cup.json", doc)
    code, out, _ = run(capsys, "cup", "pair", "--input", path)
    assert code == 0
    assert json.loads(out)["pairing"] == {"rational": "1/9", "two_pi_i_exponent": 2}


def test_cup_pair_verify(tmp_path, capsys, monkeypatch):
    """--verify adds the swap-sign and monomial-route checks and changes
    nothing else, in both level orders and on polynomials of several terms;
    a wrong eta on monomials shows as a failed monomial-route check."""
    cubic = fixture("fermat_cubic.json")
    several = dict(cubic, a=1, b=0)
    several["A"] = {"terms": [{"exps": [1, 1, 1], "num": 1}, {"exps": [3, 0, 0], "num": 2},
                              {"exps": [0, 2, 1], "num": -1, "den": 2}]}
    several["B"] = {"terms": [{"exps": [0, 0, 0], "num": 3}]}
    for name, doc in (("cubic.json", cubic), ("several.json", several)):
        path = write(tmp_path, name, doc)
        code, plain, _ = run(capsys, "cup", "pair", "--input", path)
        assert code == 0
        code, out, _ = run(capsys, "cup", "pair", "--input", path, "--verify")
        assert code == 0
        report = json.loads(out)
        assert report.pop("verification") == {"pairing_swap_sign": True,
                                              "pairing_matches_monomial_route": True}
        assert report == json.loads(plain)
        assert report["pairing"]["rational"] != "0"

    monkeypatch.setattr(CupProduct, "eta_monomial", lambda self, exps: Fraction(1, 7))
    code, out, _ = run(capsys, "cup", "pair", "--input", path, "--verify")
    assert code == 0
    assert json.loads(out)["verification"] == {"pairing_swap_sign": True,
                                               "pairing_matches_monomial_route": False}


def test_ring_dims_and_threefold_h3_never_build_j1(tmp_path, capsys, monkeypatch):
    """R_1 pieces echelonize J_1 on first access only, and neither report
    reads it: on the quintic fixture every graded subspace built in the
    degree of an R_1 piece is an ideal piece.  Reading `j1` builds one."""
    import semitoric.coxring as coxring

    r1_degrees, built, ideal = set(), [], []
    true_r1, true_subspace, true_piece = (coxring.R1Piece.__init__,
                                          coxring.GradedSubspace.__init__,
                                          coxring.ideal_graded_piece)

    def r1_init(self, f, gamma, _j0=None):
        r1_degrees.add(gamma)
        true_r1(self, f, gamma, _j0=_j0)

    def subspace_init(self, ring, degree):
        built.append(self)
        true_subspace(self, ring, degree)

    def piece(generators, gamma):
        ideal.append(true_piece(generators, gamma))
        return ideal[-1]

    def j1_builds():
        ideal_ids = {id(s) for s in ideal}
        return [s for s in built if s.degree in r1_degrees and id(s) not in ideal_ids]

    monkeypatch.setattr(coxring.R1Piece, "__init__", r1_init)
    monkeypatch.setattr(coxring.GradedSubspace, "__init__", subspace_init)
    monkeypatch.setattr(coxring, "ideal_graded_piece", piece)
    path = write(tmp_path, "q.json", fixture("fermat_quintic.json"))
    for command in (("ring", "dims"), ("threefold", "h3")):
        code, _, _ = run(capsys, *command, "--input", path)
        assert code == 0
    assert len({gamma.rep for gamma in r1_degrees}) == 4 and not j1_builds()

    ring = coxring.CoxRing(catalog.projective_plane())
    cubic = ring.polynomial({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    r1 = coxring.R1Piece(cubic, ring.beta0)
    assert not j1_builds()
    assert r1.j1 is r1.j1 and j1_builds() == [r1.j1]


def test_hodge_h21(tmp_path, capsys):
    doc = fixture("quintic_simplex.json")
    path = write(tmp_path, "h21.json", doc)
    code, out, _ = run(capsys, "hodge", "h21", "--input", path)
    assert code == 0
    assert json.loads(out)["value"] == 101


def test_hodge_h_p2(tmp_path, capsys):
    doc = fixture("sec6_polytope.json")
    doc["p"] = 3
    doc["refinement"] = "mpcp"
    path = write(tmp_path, "hp2.json", doc)
    code, out, _ = run(capsys, "hodge", "h-p2", "--input", path)
    assert code == 0
    assert json.loads(out)["value"] == 0


def test_ring_dims_builds_each_piece_once(tmp_path, capsys, monkeypatch):
    """J_0 in degree gamma + beta_0 serves R_1 there and R_0 of the next listed
    degree: one build of each ideal piece per distinct degree."""
    import semitoric.coxring as coxring

    builds = []
    build = coxring.ideal_graded_piece

    def counting(generators, gamma):
        builds.append((tuple(tuple(sorted(g.terms.items())) for g in generators), gamma.rep))
        return build(generators, gamma)

    monkeypatch.setattr(coxring, "ideal_graded_piece", counting)
    path = write(tmp_path, "q.json", fixture("fermat_quintic.json"))
    code, out, _ = run(capsys, "ring", "dims", "--input", path)
    assert code == 0
    assert [e["r1_dim"] for e in json.loads(out)["entries"]] == [1, 101, 101, 1]
    assert len(builds) == len(set(builds)) == 9  # J in 4 degrees, J_0 in 5


@pytest.mark.parametrize("command, name", [(("hodge", "h21"), "quintic_simplex.json"),
                                           (("mirror", "check"), "sec6_polytope.json")])
def test_face_counts_verify(tmp_path, capsys, monkeypatch, command, name):
    """--verify recounts the labelled table face by face and changes nothing
    else; a wrong table shows as a failed check."""
    path = write(tmp_path, name, fixture(name))
    code, plain, _ = run(capsys, *command, "--input", path)
    assert code == 0
    code, out, _ = run(capsys, *command, "--input", path, "--verify")
    assert code == 0
    report = json.loads(out)
    assert report.pop("verification") == {"face_counts_match_per_face_enumeration": True}
    assert report == json.loads(plain)

    labelled = LatticePolytope.labelled_points

    def dropping(self, k=1):
        table = dict(labelled(self, k))
        label = max(table, key=lambda facets: (len(table[facets]), sorted(facets)))
        table[label] = table[label][1:]
        return table

    monkeypatch.setattr(LatticePolytope, "labelled_points", dropping)
    code, out, _ = run(capsys, *command, "--input", path, "--verify")
    assert code == 0
    assert json.loads(out)["verification"] == {"face_counts_match_per_face_enumeration": False}


def test_output_to_file_and_determinism(tmp_path, capsys):
    path = write(tmp_path, "div.json", BLOWUP_PULLBACK)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["divisor", "analyze", "--input", path, "--output", str(out1)]) == 0
    assert main(["divisor", "analyze", "--input", path, "--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_threefold_h3_quintic_no_gram(tmp_path, capsys):
    doc = fixture("fermat_quintic.json")
    doc["gram"] = False
    path = write(tmp_path, "t.json", doc)
    code, out, _ = run(capsys, "threefold", "h3", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["hodge_numbers"] == {"h30": 1, "h21": 101, "h12": 101, "h03": 1}


def test_threefold_h3_verify(tmp_path, capsys, monkeypatch):
    """--verify adds the four Gram cross-checks, computing the Gram blocks
    even when the report leaves them out, and changes nothing else; a
    disagreeing polynomial route or sparse rank shows as a failed check."""
    doc = fixture("fermat_quintic.json")
    doc["gram"] = False
    path = write(tmp_path, "t.json", doc)
    code, plain, _ = run(capsys, "threefold", "h3", "--input", path)
    assert code == 0
    code, out, _ = run(capsys, "threefold", "h3", "--input", path, "--verify")
    assert code == 0
    report = json.loads(out)
    assert report.pop("verification") == {
        "gram_skew_between_levels": True,
        "gram_rank_equals_block_size": True,
        "gram_rank_matches_dense_elimination": True,
        "gram_sample_matches_polynomial_route": True,
    }
    assert report == json.loads(plain)

    def disagreeing(self, a, i, j):
        return PairingValue(Fraction(1), 4)

    monkeypatch.setattr(ThreefoldAnalysis, "entry_by_polynomials", disagreeing)
    code, out, _ = run(capsys, "threefold", "h3", "--input", path, "--verify")
    assert code == 0
    checks = json.loads(out)["verification"]
    assert checks["gram_sample_matches_polynomial_route"] is False
    assert checks["gram_skew_between_levels"] is True

    monkeypatch.setattr(GramBlock, "rank", lambda self: len(self.entries) - 1)
    code, out, _ = run(capsys, "threefold", "h3", "--input", path, "--verify")
    assert code == 0
    checks = json.loads(out)["verification"]
    assert checks["gram_rank_matches_dense_elimination"] is False


def declared_script(name):
    """The target of `name` in the [project.scripts] table of pyproject.toml."""
    text = PYPROJECT.read_text()
    if sys.version_info >= (3, 11):
        import tomllib
        return tomllib.loads(text)["project"]["scripts"][name]
    # Python 3.10 has no tomllib: read the one-line `key = "value"` entry.
    table = re.search(r"^\[project\.scripts\]\s*$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    entry = re.search(rf"^{re.escape(name)}\s*=\s*[\"'](.*?)[\"']\s*$", table.group(1), re.M)
    return entry.group(1)


@pytest.fixture
def plane_json():
    with resources.as_file(FIXTURES / "projective_plane.json") as path:
        yield str(path)


def assert_fan_check_ok(command, input_path, env=None):
    out = subprocess.run([*command, "fan", "check", "--input", input_path],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["complete"]


def test_console_entry_point(plane_json):
    target = declared_script("semitoric")
    assert target == "semitoric.cli:main"
    for installed in metadata.entry_points(group="console_scripts", name="semitoric"):
        assert installed.value == target

    module_name, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))

    # Call the target in a fresh interpreter the way pip's console-script
    # wrapper does, importing the same semitoric package as this process.
    wrapper = f"import sys; from {module_name} import {attr}; sys.exit({attr}())"
    assert_fan_check_ok([sys.executable, "-c", wrapper], plane_json, package_env())


@pytest.mark.skipif(shutil.which("semitoric") is None,
                    reason="no `semitoric` script on PATH; it exists after pip install")
def test_installed_console_script(plane_json):
    assert_fan_check_ok([shutil.which("semitoric")], plane_json)
