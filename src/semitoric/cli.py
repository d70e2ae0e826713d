"""Batch JSON front end.

Subcommands parse a JSON input document, dispatch to the library, and emit a
deterministic JSON report (sorted keys, rationals as exact "p/q" strings).
Exit codes: 0 success, 1 malformed input, 2 violated mathematical
precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import islice, product
from operator import add

from . import lattice
from .coxring import CoxRing, GradedPolynomial, R1Piece, j0_piece, jacobian_piece
from .divisor import TorusInvariantDivisor
from .errors import InconsistencyError, SemitoricError, ValidationError
from .fan import Fan
from .hodge import h21_batyrev, h_p2, mirror_check, triangulation_helper
from .linalg import SparseEchelon
from .polytope import HPolytope, LatticePolytope, vertices_from_inequalities
from .residue import (
    CupProduct,
    NondegeneracyCertificate,
    ResidueMap,
    _semiample_divisor,
    admissible_index_sets,
    cup_constant,
    toric_jacobian,
)
from .threefold import ThreefoldAnalysis, gram_skew_between_levels


# -- schema helpers -----------------------------------------------------------


def _need(doc, key, kind, path):
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError(f"{path}: missing field '{key}'")
    val = doc[key]
    if kind is int and isinstance(val, bool) or not isinstance(val, kind):
        raise ValidationError(f"{path}.{key}: expected {kind.__name__}")
    return val


def _int_list(val, path):
    if not isinstance(val, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in val):
        raise ValidationError(f"{path}: expected a list of integers")
    return val


def _degree(ring: CoxRing, val, path):
    try:
        return ring.degree_class(_int_list(val, path))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def parse_fan(doc, path="fan") -> Fan:
    rays = _need(doc, "rays", list, path)
    cones = _need(doc, "max_cones", list, path)
    rays = [_int_list(r, f"{path}.rays[{i}]") for i, r in enumerate(rays)]
    cones = [_int_list(c, f"{path}.max_cones[{i}]") for i, c in enumerate(cones)]
    return Fan(rays, cones)


def parse_polytope(doc, path="polytope") -> LatticePolytope:
    if "vertices" in doc:
        verts = [_int_list(v, f"{path}.vertices[{i}]")
                 for i, v in enumerate(_need(doc, "vertices", list, path))]
        return LatticePolytope(verts)
    if "inequalities" in doc:
        rows = _need(doc, "inequalities", list, path)
        if not rows:
            raise ValidationError(f"{path}.inequalities: an empty system has no ambient rank")
        ineqs = []
        for i, row in enumerate(rows):
            n = _int_list(_need(row, "normal", list, f"{path}.inequalities[{i}]"),
                          f"{path}.inequalities[{i}].normal")
            r = _need(row, "rhs", int, f"{path}.inequalities[{i}]")
            ineqs.append((n, r))
        return vertices_from_inequalities(HPolytope(ineqs))
    raise ValidationError(f"{path}: need 'vertices' or 'inequalities'")


def parse_polynomial(doc, ring: CoxRing, path="polynomial") -> GradedPolynomial:
    terms = {}
    for i, t in enumerate(_need(doc, "terms", list, path)):
        exps = tuple(_int_list(_need(t, "exps", list, f"{path}.terms[{i}]"),
                               f"{path}.terms[{i}].exps"))
        num = _need(t, "num", int, f"{path}.terms[{i}]")
        den = t.get("den", 1)
        if isinstance(den, bool) or not isinstance(den, int) or den == 0:
            raise ValidationError(f"{path}.terms[{i}].den: expected a nonzero integer")
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(num, den)
    degree = None
    if "degree_rep" in doc:
        degree = _degree(ring, doc["degree_rep"], f"{path}.degree_rep")
    return ring.polynomial(terms, degree)


def fan_to_json(fan: Fan):
    return {"rays": [list(r) for r in fan.rays],
            "max_cones": [sorted(c) for c in fan.max_cones]}


def q_str(x) -> str:
    """An exact number as "p" or "p/q"; ints and Fractions print as they are."""
    return str(x if type(x) is int or type(x) is Fraction else Fraction(x))


# -- subcommand handlers ---------------------------------------------------------


def cmd_fan_check(doc, verify):
    fan = parse_fan(_need(doc, "fan", dict, "input"))
    issues = fan.validate()
    out = {
        "criterion": "fan axioms: strong convexity, common faces, completeness",
        "complete": fan.is_complete,
        "simplicial": fan.is_simplicial,
        "issues": issues,
        "n_rays": len(fan.rays),
        "n_max_cones": len(fan.max_cones),
    }
    if verify and out["complete"]:  # a complete fan locates every point of a grid
        out["verification"] = {"locate_covers_grid": all(
            fan.locate(x) is not None for x in _grid(fan.dim))}
    return out


def _grid(dim):
    """The points `fan check --verify` locates: {-2..2}^d up to d = 4 and
    {-1, 0, 1}^d up to d = 7; past that 3^7 of them, drawn by a generator
    seeded with d."""
    if dim > 7:
        from random import Random   # used past d = 7 only
        rng = Random(dim)
        return (rng.choices((-1, 0, 1), k=dim) for _ in range(3 ** 7))
    return product(range(-2, 3) if dim <= 4 else range(-1, 2), repeat=dim)


def _parse_divisor(doc):
    fan = parse_fan(_need(doc, "fan", dict, "input"))
    coeffs = _int_list(_need(doc, "coeffs", list, "input"), "input.coeffs")
    return TorusInvariantDivisor(fan, coeffs)


def cmd_divisor_analyze(doc, verify):
    div = _parse_divisor(doc)
    out = {"criterion": "support-function convexity classification of a divisor",
           "cartier": div.is_cartier()}
    if not out["cartier"]:
        return out
    out["globally_generated"] = div.is_globally_generated()
    out["ample"] = div.is_strictly_convex()
    out["semiample"] = div.is_semiample()
    poly = div.section_polytope()
    out["section_polytope"] = {
        "dim": poly.dim,
        "vertices": sorted([q_str(x) for x in v] for v in poly.vertices),
        "lattice_points": poly.count_lattice_points(),
    }
    if out["globally_generated"]:
        out["top_self_intersection"] = q_str(div.degree())
    if verify:
        out["verification"] = _nakai_verification(div)
    return out


def cmd_divisor_sigma_d(doc, verify):
    div = _parse_divisor(doc)
    coarse = div.sigma_d()
    out = {
        "criterion": "coarsened fan of a semiample divisor: normal fan of its section polytope",
        "fan": fan_to_json(coarse),
        "pushforward_coeffs": list(div.pushforward(coarse).coeffs),
    }
    if verify:  # both gluing routes over the fine fan against the normal fan
        out["verification"] = {
            "gluing_by_linear_parts_matches": _agrees(div._sigma_d_by_gluing, coarse),
            "gluing_across_zero_walls_matches": _agrees(div._sigma_d_by_zero_facets, coarse)}
    return out


def _agrees(route, value) -> bool:
    """Whether a second route gives the value; one that finds itself inconsistent does not."""
    try:
        return route() == value
    except InconsistencyError:
        return False


def _nakai_verification(div):
    """The Nakai flags of a Cartier divisor against convexity of its support function."""
    return {"nakai_globally_generated_matches":
            div.nakai_globally_generated() == div.is_globally_generated(),
            "nakai_ample_matches": div.nakai_ample() == div.is_strictly_convex()}


def cmd_divisor_nakai(doc, verify):
    div = _parse_divisor(doc)
    walls = div.fan.cones(div.fan.dim - 1)
    out = {
        "criterion": "intersection-number criterion for global generation and ampleness",
        "globally_generated": div.nakai_globally_generated(),
        "ample": div.nakai_ample(),
        "curve_numbers": [{"cone": sorted(tau.ray_indices),
                           "value": q_str(div.curve_intersection(tau))} for tau in walls],
    }
    if verify:
        out["verification"] = checks = _nakai_verification(div)
        if div.is_globally_generated():  # slice volumes need a globally generated D
            checks["slice_volumes_match"] = all(
                div.intersection_number(1, tau) == div.curve_intersection(tau) for tau in walls)
    return out


def cmd_divisor_stratify(doc, verify):
    div = _parse_divisor(doc)
    records = div.stratify()
    strata = []
    for rec in records:
        strata.append({
            "cone": sorted(rec.cone.ray_indices),
            "container_rays": sorted(list(r) for r in rec.container.generators()),
            "torus_factor_dim": rec.torus_factor_dim,
        })
    out = {"criterion": "orbit stratification of a regular semiample hypersurface",
           "strata": strata}
    if verify:  # the slice volume (D^(d-k) . V(sigma)) > 0 exactly without a torus factor
        d = div.fan.dim
        out["verification"] = {"slice_volumes_match_torus_factors": all(
            (div.intersection_number(d - r.cone.dim, r.cone) > 0) == (r.torus_factor_dim == 0)
            for r in records)}
    return out


def cmd_ring_dims(doc, verify):
    fan = parse_fan(_need(doc, "fan", dict, "input"))
    ring = CoxRing(fan)
    f = parse_polynomial(_need(doc, "polynomial", dict, "input"), ring)
    j0 = {}  # degree -> J_0(f) piece, shared by R_0 and the shifted R_1 degree

    def j0_at(degree):
        if degree not in j0:
            j0[degree] = j0_piece(f, degree)
        return j0[degree]

    entries = []
    checks = {}
    for i, rep in enumerate(_need(doc, "degrees", list, "input")):
        gamma = _degree(ring, rep, f"input.degrees[{i}]")
        s_dim = ring.piece_dim(gamma)
        r_dim = s_dim - jacobian_piece(f, gamma).dim
        r0_dim = s_dim - j0_at(gamma).dim
        r1_dim_ = R1Piece(f, gamma, _j0=j0_at(gamma + ring.beta0)).dim
        entries.append({"degree_rep": list(gamma.rep), "s_dim": s_dim,
                        "r_dim": r_dim, "r0_dim": r0_dim, "r1_dim": r1_dim_})
        if verify:
            for name, ok in _ring_dims_verification(f, gamma, entries[-1]).items():
                checks[name] = checks.get(name, True) and ok
    out = {"criterion": "graded dimensions of the Jacobian-type quotients",
           "entries": entries}
    if verify:
        out["verification"] = checks
    return out


def _ring_dims_verification(f, gamma, entry):
    """S_gamma against the lattice points of the section polytope; the
    ranks of J and J_0 against a rebuild from every row m * g, generators in
    reverse order and none skipped, on the tuple index of the basis."""
    ring = f.ring
    poly = TorusInvariantDivisor(ring.fan, gamma.rep).section_polytope()
    index = ring.monomial_basis(gamma).index

    def rank(generators):
        echelon = SparseEchelon()
        for g in reversed(generators):
            for mono in ring.monomial_basis(gamma - g.degree).exponents:
                echelon.insert({index[tuple(map(add, e, mono))]: c for e, c in g.terms.items()})
        return echelon.rank

    s_dim = entry["s_dim"]
    return {
        "s_dim_matches_section_polytope":
            s_dim == poly.count_lattice_points(),
        "j_rank_matches_unskipped_rebuild":
            s_dim - entry["r_dim"] == rank([f.partial(i) for i in range(ring.n)]),
        "j0_rank_matches_unskipped_rebuild":
            s_dim - entry["r0_dim"] == rank(ring.weighted_partials(f)),
    }


def cmd_residue_eval(doc, verify):
    fan = parse_fan(_need(doc, "fan", dict, "input"))
    ring = CoxRing(fan)
    sections = [parse_polynomial(s, ring, f"input.sections[{i}]")
                for i, s in enumerate(_need(doc, "sections", list, "input"))]
    argument = parse_polynomial(_need(doc, "argument", dict, "input"), ring)
    _semiample_divisor(ring, sections)  # a degree that is not semiample: refused before any span
    res = ResidueMap(NondegeneracyCertificate(ring, sections))
    value = res.residue(argument)
    out = {"criterion": "toric residue normalized to the section-polytope volume",
           "residue": q_str(value),
           "jacobian_residue": q_str(res.volume)}
    if verify:  # the toric Jacobian is taken on the first admissible index set
        out["verification"] = checks = {"residue_matches_monomial_sum": value == sum(
            c * res.residue_of_monomial(ring.code(e)) for e, c in argument.terms.items())}
        picks = list(islice(admissible_index_sets(ring, res.certificate.beta), 2))
        if len(picks) > 1:
            checks["jacobian_matches_second_index_set"] = _agrees(
                lambda: toric_jacobian(ring, sections, picks[1]), res.certificate.jacobian)
    return out


def cmd_cup_pair(doc, verify):
    fan = parse_fan(_need(doc, "fan", dict, "input"))
    ring = CoxRing(fan)
    f = parse_polynomial(_need(doc, "f", dict, "input"), ring, "input.f")
    A = parse_polynomial(_need(doc, "A", dict, "input"), ring, "input.A")
    B = parse_polynomial(_need(doc, "B", dict, "input"), ring, "input.B")
    a = _need(doc, "a", int, "input")
    b = _need(doc, "b", int, "input")
    cp = CupProduct(ring, f)
    val = cp.pair(A, B, a, b)
    out = {"criterion": "cup-product pairing through the Jacobian-ring trace",
           "pairing": val.to_json()}
    if verify:
        d = ring.d
        swapped = cp.pair(B, A, b, a)
        by_monomials = sum(ca * cb * cp.eta_monomial(tuple(map(add, ea, eb)))
                           for ea, ca in A.terms.items() for eb, cb in B.terms.items())
        out["verification"] = {
            "pairing_swap_sign": swapped == (-1) ** abs(a - b) * val,
            "pairing_matches_monomial_route":
                val.rational == (-1) ** d * cup_constant(a, b, d) * by_monomials,
        }
    return out


def cmd_threefold_h3(doc, verify):
    fan = parse_fan(_need(doc, "fan", dict, "input"))
    ring = CoxRing(fan)
    f = parse_polynomial(_need(doc, "polynomial", dict, "input"), ring)
    with_gram = _need(doc, "gram", bool, "input") if "gram" in doc else True
    analysis = ThreefoldAnalysis(f)
    blocks = {}
    hodge = {}
    for a in range(4):
        blocks[str(a)] = [{
            "kind": b.kind, "dim": b.dim,
            "sigma": list(b.sigma) if b.sigma else None,
            "interior_ray": b.interior_ray,
        } for b in analysis.blocks(a)]
        hodge[f"h{3 - a}{a}"] = analysis.hodge_number(a)
    out = {
        "criterion": "middle-cohomology decomposition and cup product, rank 4",
        "hodge_numbers": hodge,
        "blocks": blocks,
    }
    if not (with_gram or verify):
        return out
    grams = [analysis.gram(a, 3 - a) for a in range(4)]
    ranks = [g.rank() for g in grams]
    if with_gram:
        out["gram"] = [g.to_json(rank) for g, rank in zip(grams, ranks)]
    if verify:
        out["verification"] = {
            "gram_skew_between_levels": gram_skew_between_levels(grams),
            "gram_rank_equals_block_size": all(
                rank == len(g.rows) for g, rank in zip(grams, ranks)),
            "gram_rank_matches_dense_elimination": all(
                rank == lattice.matrix_rank([[g.entry(i, j).rational for j in range(g.columns)]
                                             for i in range(len(g.rows))])
                for g, rank in zip(grams, ranks)),
            "gram_sample_matches_polynomial_route": all(
                analysis.entry_by_polynomials(g.level_a, i, j) == g.entry(i, j)
                for g in grams for i, j in g.sample_positions()),
        }
    return out


def cmd_hodge_h_p2(doc, verify):
    delta = parse_polytope(_need(doc, "polytope", dict, "input"))
    p = _need(doc, "p", int, "input")
    refinement = doc.get("refinement", "none")
    if refinement == "mpcp":
        fine = triangulation_helper(delta.dual_polytope())
    elif refinement == "none":
        fine = delta.normal_fan()
    else:
        raise ValidationError("input.refinement: expected 'none' or 'mpcp'")
    out = {"criterion": "subdivision-count formula for h^{d-1-p,2}",
           "p": p, "value": h_p2(delta, fine, p)}
    if verify:  # every face count h_p2 read comes from the tables of delta
        out["verification"] = _face_counts_verification(delta)
    return out


def _face_counts_verification(*polys):
    """Recount and relist the interior points of every face of each labelled
    table the polytopes built, one face at a time as its own (dilated) polytope."""
    return {"face_counts_match_per_face_enumeration": all(
        (face.count_interior_points(k), face.interior_points(k)) == (len(pts), pts)
        for poly in polys for k in sorted(poly.labelled_dilations())
        for face in poly.all_faces()
        for pts in [face.as_polytope().dilate(k).relative_interior_points()])}


def cmd_hodge_h21(doc, verify):
    delta = parse_polytope(_need(doc, "polytope", dict, "input"))
    out = {"criterion": "lattice-point formula for h^{2,1} of a crepant "
                        "Calabi-Yau threefold hypersurface",
           "value": h21_batyrev(delta)}
    if verify:
        out["verification"] = _face_counts_verification(delta, delta.dual_polytope())
    return out


def cmd_mirror_check(doc, verify):
    delta = parse_polytope(_need(doc, "polytope", dict, "input"))
    rep = mirror_check(delta)
    out = {
        "criterion": "Hodge-number comparison across a 7-dimensional mirror pair",
        "h32": rep.side.value,
        "h32_dual": rep.mirror_side.value,
        "symmetric": rep.symmetric,
        "witnesses": rep.mirror_side.witnesses,
    }
    if verify:
        out["verification"] = _face_counts_verification(delta, delta.dual_polytope())
    return out


def _fixture(name):
    from importlib import resources   # slow to import, and used only here

    ref = resources.files("semitoric") / "fixtures" / name
    return json.loads(ref.read_text())


def cmd_corpus_run(doc, verify):
    results = []

    blowup = _fixture("blowup_pullback.json")
    report = cmd_divisor_sigma_d(blowup, verify)
    p2 = parse_fan(_fixture("projective_plane.json")["fan"])
    results.append({
        "name": "blowdown of the pulled-back hyperplane class",
        "passed": parse_fan(report["fan"]) == p2
        and all(report.get("verification", {}).values()),
    })

    cubic = _fixture("fermat_cubic.json")
    pair = cmd_cup_pair(cubic, verify)
    results.append({
        "name": "elliptic-curve pairing of the Fermat cubic",
        "passed": pair["pairing"] == {"rational": "1/9", "two_pi_i_exponent": 2}
        and all(pair.get("verification", {}).values()),
    })

    quintic = _fixture("fermat_quintic.json")
    dims = cmd_ring_dims(quintic, verify)
    results.append({
        "name": "Fermat quintic graded dimensions",
        "passed": [e["r1_dim"] for e in dims["entries"]] == [1, 101, 101, 1]
        and all(dims.get("verification", {}).values()),
    })

    sec6 = _fixture("sec6_polytope.json")
    mirror = cmd_mirror_check(sec6, verify)
    results.append({
        "name": "7-dimensional mirror-pair comparison",
        "passed": mirror["h32"] == 0 and mirror["h32_dual"] >= 1
        and not mirror["symmetric"] and all(mirror.get("verification", {}).values()),
    })

    crepant = _fixture("p11222_crepant.json")
    crepant.setdefault("gram", False)
    h3 = cmd_threefold_h3(crepant, verify)
    results.append({
        "name": "crepant weighted-projective threefold decomposition",
        "passed": h3["hodge_numbers"] == {"h30": 1, "h21": 86, "h12": 86, "h03": 1}
        and all(h3.get("verification", {}).values()),
    })

    return {"criterion": "bundled regression corpus",
            "all_passed": all(r["passed"] for r in results),
            "results": results}


HANDLERS = {
    ("fan", "check"): cmd_fan_check,
    ("divisor", "analyze"): cmd_divisor_analyze,
    ("divisor", "sigma-d"): cmd_divisor_sigma_d,
    ("divisor", "nakai"): cmd_divisor_nakai,
    ("divisor", "stratify"): cmd_divisor_stratify,
    ("ring", "dims"): cmd_ring_dims,
    ("residue", "eval"): cmd_residue_eval,
    ("cup", "pair"): cmd_cup_pair,
    ("threefold", "h3"): cmd_threefold_h3,
    ("hodge", "h-p2"): cmd_hodge_h_p2,
    ("hodge", "h21"): cmd_hodge_h21,
    ("mirror", "check"): cmd_mirror_check,
    ("corpus", "run"): cmd_corpus_run,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="semitoric",
        description="Exact computations with semiample divisors and "
                    "hypersurfaces in complete toric varieties.")
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for (group, action) in HANDLERS:
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(
                dest="action", required=True)
        leaf = groups[group].add_parser(action)
        leaf.add_argument("--input", help="path to the JSON input document")
        leaf.add_argument("--output", default="stdout",
                          help="path for the JSON report, or 'stdout'")
        leaf.add_argument("--verify", action="store_true",
                          help="run redundant cross-algorithm checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = HANDLERS[(args.group, args.action)]
    try:
        if args.input is None:
            doc = {} if (args.group, args.action) == ("corpus", "run") else None
            if doc is None:
                raise ValidationError("--input is required for this subcommand")
        else:
            try:
                with open(args.input, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except OSError as exc:
                raise ValidationError(f"cannot read input: {exc}") from exc
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
                raise ValidationError(f"input is not valid JSON: {exc}") from exc
        report = handler(doc, args.verify)
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except SemitoricError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, sort_keys=True, indent=2, separators=(",", ": "))
    if args.output == "stdout":
        print(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"output error: cannot write report: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
