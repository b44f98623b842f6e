"""The normal form every exact value gets once, from the arithmetic that
makes it.

``Poly.__init__`` only drops zero coefficients and stores an integral
``Fraction`` as an ``int``: it trusts its producers for non-negative int
exponents.  These tests wrap the constructor with the full check and run the
engine's producers through it: every family element and closed form (degree
6, degree 4 over Q(q,t)), the golden commands, and one oracle job per
deformed spec.  A producer that made a negative exponent (say, an exact
division that went on past a failed leading-term division) fails here.
"""

import sys
from fractions import Fraction

import pytest

from symgen.cli import run
from symgen.criteria import FAMILIES, RINGS, FamilySpec
from symgen.deformed import reduced
from symgen.exactalg import Poly, Specialization, ZeroDenominator
from symgen.oracle import conjecture_probe, verdict
from symgen.partitions import EMPTY, Partition, partitions_of

from test_golden import CASES as GOLDEN_CASES
from test_golden import GOLDEN

# the specializations the benchmark's workloads use
ONE_PARAMETER_POINTS = (Specialization.at_root(3), Specialization.at_value(Fraction(1, 2)))
PAIR_POINTS = (Specialization.at_pair(2, 3),)


def _clear_caches():
    """Empty every symgen memo cache, so cached values are rebuilt."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "symgen":
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == name:
                value.cache_clear()


def _check_terms(poly):
    for term, c in poly.terms.items():
        assert type(term) is tuple and len(term) == 2, term
        dq, dt = term
        assert type(dq) is int and type(dt) is int, term
        assert dq >= 0 and dt >= 0, term
        assert c != 0, term
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


@pytest.fixture
def checked_poly(monkeypatch):
    """Every Poly built during the test is checked against the normal form,
    caches emptied first so that no cached Poly escapes the check."""
    original = Poly.__init__

    def init(self, terms=None):
        original(self, terms)
        _check_terms(self)

    _clear_caches()
    monkeypatch.setattr(Poly, "__init__", init)


def _shapes(fam, n):
    """(lam, mu) entries of degree n: every lam |- n, and for a skew family
    every mu with |mu| <= 2 under every lam |- n + |mu|."""
    inners = [mu for m in range(3) for mu in partitions_of(m)] if fam.skew else [EMPTY]
    return [(lam, mu) for mu in inners for lam in partitions_of(n + mu.size)]


def _points(fam):
    if not fam.deformation:
        return ()
    return PAIR_POINTS if fam.deformation == "qt" else ONE_PARAMETER_POINTS


def test_checked_constructor_rejects_what_the_constructor_trusts(checked_poly):
    with pytest.raises(AssertionError):
        Poly({(-1, 0): 1})
    assert Poly({(0, 1): Fraction(4, 2), (1, 0): 0}).terms == {(0, 1): 2}


def test_family_elements_and_closed_forms_are_in_normal_form(checked_poly):
    for fam in FAMILIES.values():
        top = 4 if fam.deformation == "qt" else 6
        for n in range(1, top + 1):
            for lam, mu in _shapes(fam, n):
                element = fam.element(lam, mu)
                keys = fam.pairing(lam, mu, n)
                if not fam.deformation:
                    continue
                reduced(element, RINGS[fam.rings[0]])
                keys.expand()
                for point in _points(fam):
                    try:
                        point.apply(keys)
                    except ZeroDenominator:
                        pass


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_commands_build_normal_polys(name, checked_poly, capsys):
    expected_code, argv = GOLDEN_CASES[name]
    assert run(argv) == expected_code
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def _deformed_specs():
    for fam in FAMILIES.values():
        if fam.deformation:
            yield FamilySpec(fam.name, fam.rings[0])
            for point in _points(fam):
                yield FamilySpec(fam.name, "Q", point)


def _spec_id(spec):
    point = spec.specialization
    return f"{spec.family}-{spec.ring}" + (f"-{point.kind}" if point else "")


@pytest.mark.parametrize("spec", list(_deformed_specs()), ids=_spec_id)
def test_oracle_jobs_build_normal_polys(spec, checked_poly):
    degree = 3 if spec.definition.deformation == "qt" else 4
    seq = [(Partition((n,)), None) for n in range(1, degree + 1)]
    assert len(verdict(spec, seq, degree)) == degree


def test_probe_builds_normal_polys(checked_poly):
    seq = [((2,), (1,)), ((2, 1), (1,)), ((3, 1), (1,)), ((3, 2), (1,))]
    assert len(conjecture_probe(seq, 4)) == 4
