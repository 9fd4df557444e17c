import itertools
import math

import numpy as np
import pytest

from sgfem.orthopoly import hermite_family, legendre_family

FAMILIES = [legendre_family(), hermite_family()]


def quad_oracle_legendre(a, b, c):
    """Independent oracle: explicit Legendre polynomials + high-order Gauss."""
    x, w = np.polynomial.legendre.leggauss(40)
    w = w / 2.0
    def psi(n):
        coef = [0.0] * n + [1.0]
        return math.sqrt(2 * n + 1) * np.polynomial.legendre.legval(x, coef)
    return float(np.dot(w, psi(a) * psi(b) * psi(c)))


def quad_oracle_hermite(a, b, c):
    """Independent oracle: probabilists' Hermite + Gauss-Hermite quadrature."""
    x, w = np.polynomial.hermite_e.hermegauss(60)
    w = w / math.sqrt(2.0 * math.pi)
    def psi(n):
        coef = [0.0] * n + [1.0]
        return np.polynomial.hermite_e.hermeval(x, coef) / math.sqrt(math.factorial(n))
    return float(np.dot(w, psi(a) * psi(b) * psi(c)))


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_orthonormality(family):
    x, w = family.gauss_rule(25)
    vals = family.evaluate(8, x)
    gram = np.einsum("ik,jk,k->ij", vals, vals, w)
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_psi0_is_one(family):
    x = np.linspace(-2, 2, 7)
    assert np.all(family.evaluate(0, x)[0] == 1.0)


def test_legendre_trivial_values():
    fam = legendre_family()
    assert fam.triple_product(0, 0, 0) == 1.0
    assert fam.triple_product(1, 1, 0) == pytest.approx(1.0, abs=1e-14)


def test_legendre_against_quadrature_oracle():
    fam = legendre_family()
    for (a, b, c) in [(1, 1, 2), (2, 2, 2), (1, 2, 3), (4, 4, 4), (0, 3, 3), (2, 4, 6)]:
        assert fam.triple_product(a, b, c) == pytest.approx(
            quad_oracle_legendre(a, b, c), abs=1e-12)
    # frozen value: E[psi_1 psi_1 psi_2] = 2/sqrt(5)
    assert fam.triple_product(1, 1, 2) == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-13)


def test_hermite_against_quadrature_oracle():
    fam = hermite_family()
    for a in range(6):
        for b in range(5):
            for c in range(5):
                assert fam.triple_product(a, b, c) == pytest.approx(
                    quad_oracle_hermite(a, b, c), abs=1e-10)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_selection_rules_exact_zero(family):
    # odd total degree
    assert family.triple_product(1, 1, 1) == 0.0
    assert family.triple_product(0, 2, 3) == 0.0
    # triangle inequality violated
    assert family.triple_product(1, 1, 4) == 0.0
    assert family.triple_product(0, 1, 3) == 0.0


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_permutation_symmetry(family):
    # both closed forms round only integers that are symmetric in a, b, c,
    # so every permutation gives the same bits
    for (a, b, c) in itertools.combinations_with_replacement(range(9), 3):
        vals = {family.triple_product(*p) for p in itertools.permutations((a, b, c))}
        assert len(vals) == 1, (a, b, c, vals)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_mean_coupling_is_exactly_one(family):
    # c_0kk = E[psi_k^2] = 1 with no rounding: C_0 is the identity
    for k in range(17):
        assert family.triple_product(0, k, k) == 1.0, k
        assert family.triple_product(k, 0, k) == family.triple_product(k, k, 0) == 1.0, k


def test_legendre_closed_form_matches_gauss_legendre_quadrature():
    # the family's own evaluate and gauss_rule, with s + 1 points, exact
    # for the degree-2s integrand up to rounding
    fam = legendre_family()
    worst = 0.0
    for a in range(17):
        for b in range(9):
            for c in range(9):
                n = (a + b + c) // 2 + 1
                x, w = fam.gauss_rule(n)
                vals = fam.evaluate(max(a, b, c), x)
                quad = float(np.dot(w, vals[a] * vals[b] * vals[c]))
                exact = fam.triple_product(a, b, c)
                if exact == 0.0:
                    assert abs(quad) < 1e-13, (a, b, c)
                else:
                    worst = max(worst, abs(exact - quad) / abs(exact))
    assert worst <= 2e-14


def test_hermite_values_are_the_factorial_formula_bit_for_bit():
    fam = hermite_family()
    f = math.factorial
    for (a, b, c) in itertools.product(range(9), repeat=3):
        s = (a + b + c) // 2
        if (a + b + c) % 2 or max(a, b, c) > s:
            expect = 0.0
        else:
            expect = math.sqrt(f(a) * f(b) * f(c)) / (f(s - a) * f(s - b) * f(s - c))
        assert fam.triple_product(a, b, c) == expect, (a, b, c)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_variable_coefficient(family):
    # x expands as variable_coeff * psi_1(x) in each family
    x, w = family.gauss_rule(10)
    psi1 = family.evaluate(1, x)[1]
    assert float(np.dot(w, x * psi1)) == pytest.approx(family.variable_coeff, abs=1e-14)


def test_degree_range_check():
    with pytest.raises(ValueError):
        legendre_family().triple_product(-1, 0, 0)
