import ast
import importlib
import inspect
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
from semitoric import catalog, cli, linalg, residue
from semitoric.cli import main
from semitoric.divisor import TorusInvariantDivisor
from semitoric.errors import InconsistencyError
from semitoric.polytope import LatticePolytope
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
                                 catalog.p11222_crepant_fan(), catalog.projective_space(5)])
def test_fan_check_verify(tmp_path, capsys, fan):
    """--verify locates every point of a grid in a complete fan ({-2..2}^d
    up to d = 4, {-1, 0, 1}^d past it) and changes nothing else."""
    path = write(tmp_path, "fan.json", {"fan": cli.fan_to_json(fan)})
    code, plain, _ = run(capsys, "fan", "check", "--input", path)
    assert code == 0
    code, out, _ = run(capsys, "fan", "check", "--input", path, "--verify")
    assert code == 0
    report = json.loads(out)
    assert report.pop("verification") == {"locate_covers_grid": True}
    assert report == json.loads(plain)


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
    from semitoric.fan import Fan

    path = write(tmp_path, "div.json", BLOWUP_PULLBACK)
    code, plain, _ = run(capsys, "divisor", "stratify", "--input", path)
    code, out, _ = run(capsys, "divisor", "stratify", "--input", path, "--verify")
    assert code == 0
    report = json.loads(out)
    assert report.pop("verification") == {"slice_volumes_match_torus_factors": True}
    assert report == json.loads(plain)

    monkeypatch.setattr(Fan, "smallest_containing_cone", lambda self, cone: self.cone_ref(
        self.max_cones[self.max_cone_index(cone.relint_point())]))
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
    original = residue.toric_jacobian

    def recorded(ring, F, I=None):
        first = admissible_index_sets(ring, F[0].degree)[0]
        first_only.append(I is None or tuple(I) == first)
        return original(ring, F, I)

    monkeypatch.setattr(residue, "toric_jacobian", recorded)
    monkeypatch.setattr(cli, "toric_jacobian", recorded)
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
    a wrong table shows as a failed check."""
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
        table = dict(labelled(self, k))
        label = min(table, key=lambda facets: (len(table[facets]), sorted(facets)))
        table[label] += ((0,) * self.ambient_dim,)
        return table

    monkeypatch.setattr(LatticePolytope, "labelled_points", adding)
    code, out, _ = run(capsys, "hodge", "h-p2", "--input", path, "--verify")
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


def test_threefold_h3_quintic_echelon_counts(capsys, monkeypatch):
    """On the quintic fixture every J/J_0 row is adopted at its known lead
    without a reduction, and R_1 shifts that reduce to zero inside J_0 take
    no tracker step: 15,005 rows adopted, none handed on to `insert`, and at
    most 408 `insert` calls in all."""
    calls = {"adopt": 0, "fallback": 0, "insert": 0}
    true_insert, true_adopt = linalg.SparseEchelon.insert, linalg.SparseEchelon.adopt

    def counting_insert(self, row):
        calls["insert"] += 1
        return true_insert(self, row)

    def counting_adopt(self, lead, row):
        calls["adopt"] += 1
        calls["fallback"] += not self.pivots.keys().isdisjoint(row)
        return true_adopt(self, lead, row)

    monkeypatch.setattr(linalg.SparseEchelon, "insert", counting_insert)
    monkeypatch.setattr(linalg.SparseEchelon, "adopt", counting_adopt)
    with resources.as_file(FIXTURES / "fermat_quintic.json") as path:
        code, _, _ = run(capsys, "threefold", "h3", "--input", str(path))
    assert code == 0
    assert calls["adopt"] == 15005 and calls["fallback"] == 0
    assert calls["insert"] <= 408


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
