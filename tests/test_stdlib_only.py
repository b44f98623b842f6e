"""Rules of the engine, read off its source with ast: every module under
src/symgen imports nothing but the standard library and symgen itself, none
reaches into ``deformed``'s private names, none calls ``det_gauss``, only
``DegreeMatrix.det`` and ``det_polynomial`` call ``det_bareiss``, only
``exactalg`` calls a ring constructor, only ``exactalg`` names
``poly_gcd``, neither ``deformed`` nor ``oracle`` names a long division,
and ``oracle`` takes one element route."""

import ast
import sys
from pathlib import Path

import symgen

PACKAGE = Path(symgen.__file__).parent


def _trees():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in modules]


def _imported_roots(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_engine_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"symgen"}
    foreign = {
        (name, root)
        for name, tree in _trees()
        for root in _imported_roots(tree)
        if root not in allowed
    }
    assert foreign == set()


def test_no_module_imports_private_names_from_deformed():
    # the closed-form format (binomials, key counts) stays behind deformed
    private = {
        (name, alias.name)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "deformed"), (0, "symgen.deformed"))
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == set()


def test_no_module_calls_det_gauss():
    # det_gauss is the tests' reference elimination (and a traced name);
    # the engine eliminates with det_bareiss on every ring
    calls = {
        name
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "det_gauss" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert calls == set()


def _functions(tree: ast.Module):
    """(function name, node) for every function, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node


def test_det_bareiss_has_two_callers():
    # one integer elimination: a classical matrix goes to it directly
    # (``DegreeMatrix.det``), every other field through its polynomial lift
    callers = {
        (name, function)
        for name, tree in _trees()
        for function, node in _functions(tree)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and "det_bareiss" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
    }
    assert callers == {("oracle.py", "det"), ("oracle.py", "det_polynomial")}


def test_only_exactalg_lifts_rationals_into_a_ring():
    # an int or Fraction adds to and multiplies every ring value directly
    # (exactalg decides how), text entering a ring included: no other module
    # calls a ring constructor
    lifts = {
        (name, function)
        for name, tree in _trees()
        if name != "exactalg.py"
        for function, node in _functions(tree)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and getattr(call.func, "attr", None) in ("from_fraction", "from_int")
    }
    assert lifts == set()


def test_only_exactalg_names_poly_gcd():
    # every denominator deformed and oracle build is a key count, divided out
    # fibre by fibre (``deformed._divide_keys``); the gcd stays behind
    # exactalg's general RatFunc arithmetic
    names = {
        name
        for name, tree in _trees()
        if name != "exactalg.py"
        for node in ast.walk(tree)
        if "poly_gcd" in (
            getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
        )
    }
    assert names == set()


def test_deformed_and_oracle_take_no_long_division():
    # a key divides along its fibres (``deformed._divide_keys``): neither
    # module reaches exactalg's sparse long division
    names = {
        (name, found)
        for name, tree in _trees()
        if name in ("deformed.py", "oracle.py")
        for node in ast.walk(tree)
        for found in (
            getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
        )
        if found in ("try_exact_div", "poly_exact_div")
    }
    assert names == set()


def test_oracle_takes_one_element_route():
    # every deformed family, specialized or not, reaches the oracle as its
    # polynomial p-coordinates (a specialization evaluates them), and p -> m
    # is read off the counted columns: no reduced element, no coefficient-wise
    # specialization, no dense p -> m matrix
    tree = dict(_trees())["oracle.py"]
    named = {
        name
        for node in ast.walk(tree)
        for name in (
            getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
        )
    } & {"reduced", "specialize_coeffs", "_basis_matrix_inverse"}
    assert named == set()


def test_oracle_reads_classical_elements_off_their_class_values():
    # a classical element's coordinates are its integer class values times
    # k!/z_nu: no rational p-expansion enters the oracle
    tree = dict(_trees())["oracle.py"]
    named = {
        name
        for node in ast.walk(tree)
        for name in (
            getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
        )
    } & {"p_expansion", "_basis_to_p"}
    assert named == set()
