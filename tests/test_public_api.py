"""The names of the package: one name per operation, and no stale import.

``semitoric.__all__`` lists exactly what ``__init__.py`` imports, each an
object the package defines.  The aliases, restating wrappers and unset
parameters that were folded into the code behind them are named nowhere
under ``src/``, and no module imports a name it never reads.  Those two
checks read the source with ``ast``.
"""

import ast
import inspect
from pathlib import Path

import semitoric

PACKAGE = Path(semitoric.__file__).resolve().parent

# Each was a second name for one operation; what replaces it follows it.
REMOVED = (
    "pairing_q",            # lattice.pairing
    "degree_of_monomial",   # CoxRing.degree_class
    "degrees_equal",        # two CoxRing.degree_class values compared
    "insert_row",           # GradedSubspace.echelon.insert
    "j1_graded_piece",      # R1Piece(f, gamma).j1
    "r1_dim",               # R1Piece(f, gamma).dim
    "reduce_modulo",        # GradedSubspace.reduce
    "toric_residue",        # ResidueMap(certificate).residue(H)
    "face_polynomial",      # ThreefoldAnalysis(f).surface(sigma).polynomial
    "decomposition",        # ThreefoldAnalysis.blocks(a)
    "_face_of_cone",        # LatticePolytope.face_at_direction
    "_read_face",           # Face.as_polytope sets the points
    "hrep",                 # vertices_from_inequalities sets ambient_dim
    "_ample",               # find_ample keeps no memo on the fan
    "smallest_containing_cone",  # StratumRecord.container, read off Delta_D's faces
    "SubdivisionCounts",    # subdivision_counts returns {(k, ray set): a_k}
    "HodgeReport",          # MirrorReport holds one HodgeValue per side
    "_same_cone_in",        # a 2-face of Delta_D names its 2-cone of Sigma_D
    "same_cone",            # TwoConeChart.face; ThreefoldAnalysis.surface(face)
    "_points",              # LatticePolytope._run_table; relative_interior_points scans
    "_enumerate_integer_points",  # _expand over the runs of _integer_runs
    "_scan_box",            # LatticePolytope._scan
    "CERTIFIED_NONDEGENERATE",  # NondegeneracyCertificate.certified
    "INCONCLUSIVE",         # not NondegeneracyCertificate.certified
    "verdict",              # NondegeneracyCertificate.certified
    "jacobian_in_span",     # NondegeneracyCertificate.reduced_jacobian is empty
    "_jacobian",            # ResidueMap(certificate) reads the certificate's Jacobian
    "star_fan",             # SurfaceSlice reads V(sigma) off its face of Delta_D
    "star_projection",      # SurfaceSlice: the span basis of the face of Delta_D
    "quotient_projection",  # lattice.frame; the face's span basis in SurfaceSlice
    "j1",                   # R1Piece keeps its coset basis only; J_1 is a test oracle
    "_kernel_rows",         # R1Piece.coset_codes
    "reduced_row_basis",    # the rref of the tests' ReferenceEchelon
    "rref_rows",            # the rref of the tests' ReferenceEchelon
)


def modules():
    return sorted(PACKAGE.glob("*.py"))


def names_in(tree):
    """Every identifier the tree defines, binds, reads or passes by keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.split(".")[-1]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg


def test_all_lists_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names]
    assert len(imported) == len(set(imported))
    assert sorted(semitoric.__all__) == sorted(imported)


def test_every_exported_name_is_defined_in_the_package():
    for name in semitoric.__all__:
        obj = getattr(semitoric, name)
        assert inspect.isfunction(obj) or inspect.isclass(obj), name
        assert obj.__module__.startswith("semitoric."), name


def test_no_removed_name_is_defined_or_referenced():
    found = [(path.name, name) for path in modules()
             for name in names_in(ast.parse(path.read_text())) if name in REMOVED]
    assert found == []


def test_no_module_imports_a_name_it_never_reads():
    """`__init__.py` imports to export.  A name read only in an annotation
    counts as read: annotations parse as code."""
    unused = []
    for path in modules():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                unused += [(path.name, name) for name in bound if name not in read]
    assert unused == []


def test_sparse_echelon_is_built_with_no_argument():
    """`SparseEchelon` has no tag columns, so no column count to pass: every
    call of it under `src/` passes no argument."""
    calls = [(path.name, node) for path in modules()
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and "SparseEchelon" in (
                 getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert len(calls) >= 4
    assert [(name, node.lineno) for name, node in calls if node.args or node.keywords] == []


def test_coxring_imports_nothing_from_residue():
    """The ring layer sits below the residue layer: J_0 is built in
    `coxring`, and the certificate and the residue map on it in `residue`."""
    tree = ast.parse((PACKAGE / "coxring.py").read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "residue" not in modules
