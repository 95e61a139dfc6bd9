from dataclasses import replace
from fractions import Fraction

import pytest

from wfomc.counting import wmc_bruteforce
from wfomc.frontends import _Parser, parse_theory
from wfomc.logic import Constant, Domain, Not, fold_and


def formula(text: str):
    """Parse a single formula (possibly with free variables)."""
    p = _Parser(text)
    f = p.formula()
    assert p.at("EOF"), f"trailing input in {text!r}"
    return f


def theory(text: str):
    t, _ = parse_theory(text)
    return t


def domain(*names: str) -> Domain:
    return Domain(tuple(Constant(n) for n in names))


def count_with(g, evidence) -> Fraction:
    """Brute-force count of the ground problem ``g`` with the evidence, a
    mapping from ground atoms to truth values, as one more sentence."""
    literals = [a if value else Not(a) for a, value in evidence.items()]
    return wmc_bruteforce(replace(g, sentences=g.sentences + (fold_and(literals),)))


@pytest.fixture
def fr():
    return Fraction
