import ast
import importlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata, resources
from itertools import product
from pathlib import Path

import pytest

import semitoric
from semitoric import catalog, cli, linalg, polytope, residue
from semitoric.cli import main
from semitoric.divisor import TorusInvariantDivisor
from semitoric.errors import InconsistencyError
from semitoric.polytope import LatticePolytope, RunTable
from semitoric.residue import CupProduct, PairingValue, ResidueMap, admissible_index_sets
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


P1_RESIDUE = {
    "fan": {"rays": [[1], [-1]], "max_cones": [[0], [1]]},
    "sections": [{"terms": [{"exps": [2, 0], "num": 1}]},
                 {"terms": [{"exps": [0, 2], "num": 1}]}],
    "argument": {"terms": [{"exps": [1, 1], "num": 1}]},
}
# x0 y0, x1 y1, x0 y1 + x1 y0 on P^1 x P^1: no common zero, four admissible index sets
P1XP1_RESIDUE = {
    "fan": {"rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
            "max_cones": [[0, 2], [2, 1], [1, 3], [3, 0]]},
    "sections": [{"terms": [{"exps": [1, 0, 1, 0], "num": 1}]},
                 {"terms": [{"exps": [0, 1, 0, 1], "num": 1}]},
                 {"terms": [{"exps": [1, 0, 0, 1], "num": 1}, {"exps": [0, 1, 1, 0], "num": 1}]}],
    "argument": {"terms": [{"exps": [1, 0, 0, 1], "num": 3}, {"exps": [0, 1, 0, 1], "num": -2}]},
}


def test_fan_check(tmp_path, capsys):
    path = write(tmp_path, "fan.json", {"fan": BLOWUP_PULLBACK["fan"]})
    code, out, _ = run(capsys, "fan", "check", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["complete"] and doc["simplicial"] and doc["issues"] == []


@pytest.mark.parametrize("fan", [catalog.blowup_p2(), catalog.projective_space(4),
                                 catalog.p11222_crepant_fan(), catalog.projective_space(5),
                                 catalog.projective_space(14)])
def test_fan_check_verify(tmp_path, capsys, fan):
    """--verify locates every point of a grid in a complete fan ({-2..2}^d
    up to d = 4, {-1, 0, 1}^d up to d = 7, a fixed sample of 3^7 of its
    points past that) and changes nothing else."""
    path = write(tmp_path, "fan.json", {"fan": cli.fan_to_json(fan)})
    code, plain, _ = run(capsys, "fan", "check", "--input", path)
    assert code == 0
    code, out, _ = run(capsys, "fan", "check", "--input", path, "--verify")
    assert code == 0
    report = json.loads(out)
    assert report.pop("verification") == {"locate_covers_grid": True}
    assert report == json.loads(plain)


def test_verify_grid_is_the_full_grid_up_to_rank_7_and_a_fixed_sample_past_it():
    assert list(cli._grid(2)) == list(product(range(-2, 3), repeat=2))
    assert list(cli._grid(7)) == list(product(range(-1, 2), repeat=7))
    sample = [tuple(x) for x in cli._grid(14)]
    assert len(sample) == 3 ** 7 and sample == [tuple(x) for x in cli._grid(14)]
    assert {len(x) for x in sample} == {14} and {v for x in sample for v in x} == {-1, 0, 1}


def test_fan_check_of_projective_16_space_is_not_exponential(tmp_path, capsys):
    """One face test is one closure, not the 2^d faces of a simplicial cone:
    `fan check` on P^16 (17 rays) finishes in well under 3 s (about 29 s
    when every face lattice was listed)."""
    path = write(tmp_path, "fan.json", {"fan": cli.fan_to_json(catalog.projective_space(16))})
    start = time.perf_counter()
    code, out, _ = run(capsys, "fan", "check", "--input", path)
    assert time.perf_counter() - start < 3
    assert code == 0 and json.loads(out)["issues"] == []


def test_fan_check_verify_sees_a_missing_cone(tmp_path, capsys, monkeypatch):
    """A fan of P2 without one of its cones, taken for complete, leaves grid
    points unlocated; an incomplete fan lists no check."""
    fan = {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2]]}
    path = write(tmp_path, "fan.json", {"fan": fan})
    code, out, _ = run(capsys, "fan", "check", "--input", path, "--verify")
    assert code == 0 and "verification" not in json.loads(out)
    monkeypatch.setattr(cli.Fan, "is_complete", property(lambda self: True))
    code, out, _ = run(capsys, "fan", "check", "--input", path, "--verify")
    assert code == 0
    assert json.loads(out)["verification"] == {"locate_covers_grid": False}


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


def test_divisor_sigma_d_verify(tmp_path, capsys, monkeypatch):
    """--verify lists both gluing routes over the fine fan against the normal
    fan and changes nothing else.  A route that builds another fan, or that
    finds itself inconsistent, is listed as false, and the run exits 0."""
    path = write(tmp_path, "div.json", BLOWUP_PULLBACK)
    code, plain, _ = run(capsys, "divisor", "sigma-d", "--input", path)
    assert code == 0
    code, out, _ = run(capsys, "divisor", "sigma-d", "--input", path, "--verify")
    assert code == 0
    report = json.loads(out)
    assert report.pop("verification") == {"gluing_by_linear_parts_matches": True,
                                          "gluing_across_zero_walls_matches": True}
    assert report == json.loads(plain)

    def inconsistent(self):
        raise InconsistencyError("zero-facet gluing merged cones with different linear parts")

    monkeypatch.setattr(TorusInvariantDivisor, "_sigma_d_by_gluing", lambda self: self.fan)
    monkeypatch.setattr(TorusInvariantDivisor, "_sigma_d_by_zero_facets", inconsistent)
    code, out, _ = run(capsys, "divisor", "sigma-d", "--input", path, "--verify")
    assert code == 0
    assert json.loads(out)["verification"] == {"gluing_by_linear_parts_matches": False,
                                               "gluing_across_zero_walls_matches": False}


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


def test_divisor_stratify_verify(tmp_path, capsys, monkeypatch):
    """--verify checks each torus factor against the slice volume
    (D^(d-k) . V(sigma)); the rest of the report is unchanged.  Containers
    that are maximal rather than smallest fail the check."""
    from semitoric.polytope import LatticePolytope

    path = write(tmp_path, "div.json", BLOWUP_PULLBACK)
    code, plain, _ = run(capsys, "divisor", "stratify", "--input", path)
    code, out, _ = run(capsys, "divisor", "stratify", "--input", path, "--verify")
    assert code == 0
    report = json.loads(out)
    assert report.pop("verification") == {"slice_volumes_match_torus_factors": True}
    assert report == json.loads(plain)

    face_at_direction = LatticePolytope.face_at_direction
    monkeypatch.setattr(LatticePolytope, "face_at_direction", lambda self, n: next(
        v for v in self.faces(0) if v.vertex_indices <= face_at_direction(self, n).vertex_indices))
    code, out, _ = run(capsys, "divisor", "stratify", "--input", path, "--verify")
    assert code == 0
    assert json.loads(out)["verification"] == {"slice_volumes_match_torus_factors": False}


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


@pytest.mark.parametrize("data, message", [
    (b'\xff\xfe{"fan":1}', "input is not valid JSON: 'utf-8' codec"),  # not UTF-8
    (b"[" * 200000, "input is not valid JSON: maximum recursion depth"),  # too deep
    # past the digit limit of int(), where the Python version has one
    (b'{"fan": [' + b"9" * 5000 + b"]}", ""),
])
def test_undecodable_input_exit_1(tmp_path, capsys, data, message):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "fan", "check", "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("input error: " + message)


def test_unwritable_output_exit_1(tmp_path, capsys):
    path = write(tmp_path, "div.json", BLOWUP_PULLBACK)
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "divisor", "analyze", "--input", path, "--output", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("output error: cannot write report:") and str(target) in err
    assert not target.parent.exists()


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
    (("residue", "eval"), dict(P1XP1_RESIDUE, sections=[]), "0 sections, expected 3"),
    (("residue", "eval"), dict(P1XP1_RESIDUE, sections=P1XP1_RESIDUE["sections"][:2] + [
        {"terms": [{"exps": [2, 0, 0, 0], "num": 1}, {"exps": [0, 2, 0, 0], "num": 1}]}]),
     "sections of mixed degrees"),
])
def test_malformed_fields_exit_1(tmp_path, capsys, command, doc, named):
    """A wrongly typed flag or denominator, a ray index out of range, a
    repeated ray, and residues of too few sections or of sections of mixed
    degrees are input errors that name the field, not reports."""
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


def with_field(name, path, value):
    """A bundled fixture with the field at a key path set to value."""
    doc = fixture(name)
    *parents, key = path
    container = doc
    for k in parents:
        container = container[k]
    container[key] = value
    return doc


@pytest.mark.parametrize("name, command, path", [
    ("fermat_quartic.json", ("ring", "dims"), ("degrees", 0, 3)),
    ("fermat_quintic.json", ("ring", "dims"), ("degrees", 3, 0)),
    ("blowup_pullback.json", ("divisor", "analyze"), ("coeffs", 0)),
    ("blowup_pullback.json", ("divisor", "analyze"), ("coeffs", 2)),
])
def test_too_many_lattice_points_exit_2(tmp_path, capsys, name, command, path):
    """A degree or a coefficient of 10**6 asks for a polytope with 10**12 or
    more lattice points: the scan refuses it before listing any."""
    doc = with_field(name, path, 10**6)
    code, _, err = run(capsys, *command, "--input", write(tmp_path, name, doc))
    assert code == 2
    assert "too large to enumerate" in err


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
    path = write(tmp_path, "res.json", P1_RESIDUE)
    code, out, _ = run(capsys, "residue", "eval", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["residue"] == "-1"
    assert doc["jacobian_residue"] == "2"


def test_residue_eval_refuses_a_degree_that_is_not_semiample(tmp_path, capsys, monkeypatch):
    """Sections pulled back from one factor of P^1 x P^1 are refused on
    their degree, before any certificate (a span in the critical degree)
    is built."""
    def forbidden(ring, F):
        raise AssertionError("a certificate was built for a degree that is not semiample")

    monkeypatch.setattr(cli, "NondegeneracyCertificate", forbidden)
    x0, x1 = {"exps": [1, 0, 0, 0], "num": 1}, {"exps": [0, 1, 0, 0], "num": 1}
    doc = dict(P1XP1_RESIDUE, sections=[{"terms": [x0]}, {"terms": [x1]}, {"terms": [x0, x1]}])
    path = write(tmp_path, "segment.json", doc)
    code, _, err = run(capsys, "residue", "eval", "--input", path)
    assert code == 2
    assert "the residue map is defined for semiample degrees" in err


def test_residue_eval_verify(tmp_path, capsys, monkeypatch):
    """--verify checks the residue against the sum of `residue_of_monomial`
    over the terms of the argument, and the toric Jacobian against a second
    admissible index set where there is one (P^1 has one only); it changes
    nothing else.  Wrong routes are listed as false, and the run exits 0."""
    for name, doc, checks in (
            ("p1.json", P1_RESIDUE, {"residue_matches_monomial_sum": True}),
            ("p1xp1.json", P1XP1_RESIDUE, {"residue_matches_monomial_sum": True,
                                           "jacobian_matches_second_index_set": True})):
        path = write(tmp_path, name, doc)
        code, plain, _ = run(capsys, "residue", "eval", "--input", path)
        assert code == 0
        code, out, _ = run(capsys, "residue", "eval", "--input", path, "--verify")
        assert code == 0
        report = json.loads(out)
        assert report.pop("verification") == checks
        assert report == json.loads(plain)
    assert json.loads(plain)["residue"] == "3"

    monkeypatch.setattr(ResidueMap, "residue_of_monomial", lambda self, code: Fraction(1, 7))
    monkeypatch.setattr(cli, "toric_jacobian",
                        lambda ring, F, I: 2 * residue.toric_jacobian(ring, F, I))
    code, out, _ = run(capsys, "residue", "eval", "--input", path, "--verify")
    assert code == 0
    assert json.loads(out)["verification"] == {"residue_matches_monomial_sum": False,
                                               "jacobian_matches_second_index_set": False}


def test_second_routes_run_only_under_verify(tmp_path, capsys, monkeypatch):
    """Without --verify, no subcommand builds Sigma_D by a gluing route or
    takes the toric Jacobian on an index set other than the first: the
    corpus (divisor sigma-d, cup pair, ring dims, mirror check, threefold
    h3), divisor stratify and residue eval all pass with the gluing routes
    made to raise.  Under --verify, residue eval takes a second index set."""
    def forbidden(self):
        raise AssertionError("a gluing route of Sigma_D ran without --verify")

    monkeypatch.setattr(TorusInvariantDivisor, "_sigma_d_by_gluing", forbidden)
    monkeypatch.setattr(TorusInvariantDivisor, "_sigma_d_by_zero_facets", forbidden)
    first_only = []
    original = residue._c_and_jacobian

    def recorded(ring, F, beta, I):   # every toric Jacobian is taken here
        first_only.append(tuple(I) == next(admissible_index_sets(ring, beta)))
        return original(ring, F, beta, I)

    monkeypatch.setattr(residue, "_c_and_jacobian", recorded)
    code, out, _ = run(capsys, "corpus", "run")
    assert code == 0 and json.loads(out)["all_passed"]
    for command, doc in ((("divisor", "stratify"), BLOWUP_PULLBACK),
                         (("residue", "eval"), P1XP1_RESIDUE)):
        code, _, err = run(capsys, *command, "--input", write(tmp_path, "in.json", doc))
        assert code == 0, err
    assert first_only and all(first_only)
    code, _, _ = run(capsys, "residue", "eval", "--input", str(tmp_path / "in.json"), "--verify")
    assert code == 0 and not all(first_only)


def test_every_handler_reads_verify():
    """A handler that never reads its `verify` argument makes --verify a
    silent no-op."""
    for command, handler in cli.HANDLERS.items():
        tree = ast.parse(inspect.getsource(handler))
        reads = any(isinstance(node, ast.Name) and node.id == "verify"
                    and isinstance(node.ctx, ast.Load) for node in ast.walk(tree))
        assert reads, f"{' '.join(command)} ignores --verify"


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
    else; a table missing a point shows as a failed check."""
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
        table = labelled(self, k)
        segments = dict(table.segments)
        # the most points, then the fewest facets
        label = max(segments, key=lambda facets: (table.count([facets]), -len(facets)))
        (values, lo, hi), *rest = segments[label]
        segments[label] = [(values, lo + 1, hi)] + rest   # one point fewer
        return RunTable(segments, table.last)

    monkeypatch.setattr(LatticePolytope, "labelled_points", dropping)
    code, out, _ = run(capsys, *command, "--input", path, "--verify")
    assert code == 0
    assert json.loads(out)["verification"] == {"face_counts_match_per_face_enumeration": False}


RING_DIMS_CHECKS = ("j0_rank_matches_unskipped_rebuild", "j_rank_matches_unskipped_rebuild",
                    "s_dim_matches_section_polytope")


@pytest.mark.parametrize("doc", [
    fixture("fermat_quartic.json"),
    {"fan": fixture("fermat_cubic.json")["fan"],
     "polynomial": {"terms": [{"exps": e, "num": c} for e, c in (
         ([3, 0, 0], 1), ([0, 3, 0], 2), ([0, 0, 3], -1), ([1, 2, 0], 3), ([1, 1, 1], -2),
         ([0, 1, 2], 5), ([2, 0, 1], 1))]},
     "degrees": [[0, 0, -1], [0, 0, 0], [0, 0, 2], [0, 0, 3], [0, 0, 4], [0, 0, 6]]},
], ids=["fermat-quartic", "dense-cubic"])
def test_ring_dims_verify(tmp_path, capsys, monkeypatch, doc):
    """--verify recounts S_gamma from the section polytope and rebuilds J
    and J_0 without the Koszul skip; the rest of the report is unchanged,
    and a wrong J piece shows as a failed check."""
    path = write(tmp_path, "dims.json", doc)
    code, plain, _ = run(capsys, "ring", "dims", "--input", path)
    assert code == 0
    code, out, _ = run(capsys, "ring", "dims", "--input", path, "--verify")
    assert code == 0
    report = json.loads(out)
    assert report.pop("verification") == dict.fromkeys(RING_DIMS_CHECKS, True)
    assert report == json.loads(plain)

    monkeypatch.setattr(cli, "jacobian_piece", cli.j0_piece)
    code, out, _ = run(capsys, "ring", "dims", "--input", path, "--verify")
    assert code == 0
    assert json.loads(out)["verification"] == dict(
        dict.fromkeys(RING_DIMS_CHECKS, True), j_rank_matches_unskipped_rebuild=False)


def test_h_p2_verify(tmp_path, capsys, monkeypatch):
    """--verify recounts the tables of the section polytope that h-p2 read;
    a table with an extra point shows as a failed check, and so does one
    whose counts are off by one while its lists are right."""
    doc = fixture("sec6_polytope.json")
    doc["p"] = 3
    doc["refinement"] = "mpcp"
    path = write(tmp_path, "hp2.json", doc)
    code, plain, _ = run(capsys, "hodge", "h-p2", "--input", path)
    assert code == 0
    code, out, _ = run(capsys, "hodge", "h-p2", "--input", path, "--verify")
    assert code == 0
    report = json.loads(out)
    assert report.pop("verification") == {"face_counts_match_per_face_enumeration": True}
    assert report == json.loads(plain)

    labelled = LatticePolytope.labelled_points

    def adding(self, k=1):
        table = labelled(self, k)
        segments = dict(table.segments)
        label = min(segments, key=lambda facets: (table.count([facets]), sorted(facets)))
        segments[label] = segments[label] + [((0,) * self.ambient_dim, 0, 0)]   # the origin
        return RunTable(segments, table.last)

    monkeypatch.setattr(LatticePolytope, "labelled_points", adding)
    code, out, _ = run(capsys, "hodge", "h-p2", "--input", path, "--verify")
    assert code == 0
    assert json.loads(out)["verification"] == {"face_counts_match_per_face_enumeration": False}

    monkeypatch.undo()
    count = RunTable.count
    monkeypatch.setattr(RunTable, "count", lambda self, labels: count(self, labels) + 1)
    code, out, _ = run(capsys, "hodge", "h-p2", "--input", path, "--verify")
    assert code == 0
    assert json.loads(out)["verification"] == {"face_counts_match_per_face_enumeration": False}


def test_divisor_reports_count_lattice_points_without_listing_them(monkeypatch):
    """Work guard: `divisor analyze --verify`, and `divisor sigma-d` on the
    semiample ones, over the divisors of criterion 2 make 21 scans, each
    with no form: a count adds up run lengths, with no labelled table."""
    from .test_acceptance import criterion_2_divisors

    calls = []
    scan = polytope._integer_runs
    monkeypatch.setattr(polytope, "_integer_runs",
                        lambda *args: calls.append(args[3]) or scan(*args))
    for div in criterion_2_divisors():
        doc = {"fan": {"rays": [list(r) for r in div.fan.rays],
                       "max_cones": [sorted(c) for c in div.fan.max_cones]},
               "coeffs": list(div.coeffs)}
        if cli.cmd_divisor_analyze(doc, True).get("semiample"):
            cli.cmd_divisor_sigma_d(doc, False)
    assert len(calls) == 21 and all(forms == [] for forms in calls)


def test_output_to_file_and_determinism(tmp_path, capsys):
    path = write(tmp_path, "div.json", BLOWUP_PULLBACK)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["divisor", "analyze", "--input", path, "--output", str(out1)]) == 0
    assert main(["divisor", "analyze", "--input", path, "--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_threefold_h3_quintic_echelon_counts(capsys, monkeypatch):
    """On the quintic fixture every J/J_0 row is adopted at a lead that is no
    pivot yet and kept by reference, unread until a reduction meets it, and
    the R_1 monomials that a lead term of J_0 divides take no reduction:
    15,005 rows kept, none handed on to `insert`, at most 420 of them read,
    1,034 `reduce` calls (5,414 without the R_1 skip) and at most 408
    `insert` calls in all."""
    import semitoric.coxring as coxring

    adopted, read, calls = [], set(), {"insert": 0, "reduce": 0, "by_reference": 0}
    true_insert, true_adopt = linalg.SparseEchelon.insert, linalg.SparseEchelon.adopt
    true_reduce, true_items = linalg.SparseEchelon.reduce, coxring._ShiftedRow.items

    def counting_insert(self, row):
        calls["insert"] += 1
        return true_insert(self, row)

    def counting_reduce(self, row):
        calls["reduce"] += 1
        return true_reduce(self, row)

    def counting_adopt(self, lead, row):
        adopted.append(row)   # kept alive, so their ids stay distinct
        got = true_adopt(self, lead, row)
        calls["by_reference"] += self.pivots[lead] is row and got == (lead, row)
        return got

    def counting_items(self):
        read.add(id(self))
        return true_items(self)

    monkeypatch.setattr(linalg.SparseEchelon, "insert", counting_insert)
    monkeypatch.setattr(linalg.SparseEchelon, "reduce", counting_reduce)
    monkeypatch.setattr(linalg.SparseEchelon, "adopt", counting_adopt)
    monkeypatch.setattr(coxring._ShiftedRow, "items", counting_items)
    with resources.as_file(FIXTURES / "fermat_quintic.json") as path:
        code, _, _ = run(capsys, "threefold", "h3", "--input", str(path))
    assert code == 0
    assert len(adopted) == calls["by_reference"] == 15005
    assert len(read & {id(row) for row in adopted}) <= 420
    assert calls["reduce"] == 1034 and calls["insert"] <= 408


def test_threefold_h3_quintic_no_gram(tmp_path, capsys):
    doc = fixture("fermat_quintic.json")
    doc["gram"] = False
    path = write(tmp_path, "t.json", doc)
    code, out, _ = run(capsys, "threefold", "h3", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["hodge_numbers"] == {"h30": 1, "h21": 101, "h12": 101, "h03": 1}


def test_threefold_h3_lists_only_nonzero_gram_cells(capsys):
    """On the Fermat quintic each middle Gram block pairs the 101 basis
    monomials by a permutation that is not the diagonal: one listed entry in
    each row and each column.  The 1 x 1 end blocks list their one entry."""
    with resources.as_file(FIXTURES / "fermat_quintic.json") as path:
        code, out, _ = run(capsys, "threefold", "h3", "--input", str(path))
    assert code == 0
    assert len(out.encode()) < 64 * 1024
    grams = json.loads(out)["gram"]
    assert [g["columns"] for g in grams] == [1, 101, 101, 1]
    for g in grams:
        rows = g["entries"]
        assert len(rows) == g["columns"] == g["rank"]
        assert all(len(row) == 1 for row in rows)
        cols = [row[0]["col"] for row in rows]
        assert sorted(cols) == list(range(len(rows)))
        assert all(row[0]["rational"] != "0" and row[0]["two_pi_i_exponent"] == 4
                   for row in rows)
        if len(rows) > 1:
            assert cols != list(range(len(rows)))


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

    monkeypatch.setattr(GramBlock, "rank", lambda self: len(self.rows) - 1)
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


def test_python_m_semitoric(plane_json):
    """``python -m semitoric`` is the CLI, started cold in a fresh interpreter."""
    assert_fan_check_ok([sys.executable, "-m", "semitoric"], plane_json, package_env())


@pytest.mark.skipif(shutil.which("semitoric") is None,
                    reason="no `semitoric` script on PATH; it exists after pip install")
def test_installed_console_script(plane_json):
    assert_fan_check_ok([shutil.which("semitoric")], plane_json)


def test_q_str_prints_ints_and_fractions_without_building_fractions(fraction_count):
    values = [0, -7, 10**30, Fraction(3, 2), Fraction(-5, 7), Fraction(4, 2)]
    fraction_count[0] = 0
    assert [cli.q_str(x) for x in values] == ["0", "-7", str(10**30), "3/2", "-5/7", "2"]
    assert fraction_count[0] == 0
    assert cli.q_str(True) == "1"
