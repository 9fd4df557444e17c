"""Orthonormal polynomial families and their one-dimensional triple products.

Two families are supported:

* ``legendre``: Legendre polynomials on [-1, 1], orthonormal with respect to
  the uniform probability measure dx/2.  The random variables of the uniform
  model are taken uniform on [-1, 1] (variance 1/3), so the first-degree
  basis function is psi_1(x) = sqrt(3) x and a linear term c*x in a random
  field expansion carries the basis coefficient c/sqrt(3).
* ``hermite``: probabilists' Hermite polynomials, orthonormal with respect to
  the standard Gaussian measure; psi_1(x) = x.

Triple products E[psi_a psi_b psi_c] vanish unless a+b+c is even and a, b, c
satisfy the triangle inequality; those structural zeros are returned exactly.
Nonzero Legendre values use the Adams-Neumann formula in exact integers
(J. C. Adams, Proc. R. Soc. Lond. 27, 1878); Hermite values use the
classical factorial formula.  Both give E[psi_0 psi_k psi_k] = 1 exactly,
so the mean coupling C_0 is the identity, as the Galerkin operator requires.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class PolynomialFamily:
    """Orthonormal univariate polynomial family under a probability measure."""

    kind: str                 # "legendre" | "hermite"
    variable_coeff: float     # coefficient of psi_1 in the expansion of x

    def evaluate(self, max_degree: int, x) -> np.ndarray:
        """Values of psi_0..psi_max_degree at x, shape (max_degree+1,) + x.shape."""
        x = np.asarray(x, dtype=float)
        out = np.zeros((max_degree + 1,) + x.shape)
        if self.kind == "legendre":
            out[0] = 1.0
            if max_degree >= 1:
                out[1] = x
            for n in range(1, max_degree):
                out[n + 1] = ((2 * n + 1) * x * out[n] - n * out[n - 1]) / (n + 1)
            for n in range(max_degree + 1):
                out[n] *= math.sqrt(2 * n + 1)
        elif self.kind == "hermite":
            out[0] = 1.0
            if max_degree >= 1:
                out[1] = x
            # monic recurrence He_{n+1} = x He_n - n He_{n-1}, normalized after
            for n in range(1, max_degree):
                out[n + 1] = x * out[n] * math.sqrt(1.0 / (n + 1)) - out[n - 1] * math.sqrt(n / (n + 1.0))
        else:
            raise ValueError(f"unknown family {self.kind!r}")
        return out

    def gauss_rule(self, n_points: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss nodes and weights of the family's probability measure."""
        if self.kind == "legendre":
            x, w = np.polynomial.legendre.leggauss(n_points)
            return x, w / 2.0
        if self.kind == "hermite":
            x, w = np.polynomial.hermite_e.hermegauss(n_points)
            return x, w / math.sqrt(2.0 * math.pi)
        raise ValueError(f"unknown family {self.kind!r}")

    def triple_product(self, a: int, b: int, c: int) -> float:
        """E[psi_a psi_b psi_c]; exact zero under the selection rules."""
        if min(a, b, c) < 0:
            raise ValueError("degrees must be non-negative")
        if (a + b + c) % 2 == 1:
            return 0.0
        s = (a + b + c) // 2
        if s < a or s < b or s < c:
            return 0.0
        if self.kind == "hermite":
            return (math.sqrt(math.factorial(a) * math.factorial(b) * math.factorial(c))
                    / (math.factorial(s - a) * math.factorial(s - b) * math.factorial(s - c)))
        return _legendre_triple(a, b, c)

    def triple_product_table(self, max_first: int, max_other: int) -> np.ndarray:
        """Table T[a, b, c] = E[psi_a psi_b psi_c], a <= max_first, b,c <= max_other."""
        T = np.zeros((max_first + 1, max_other + 1, max_other + 1))
        for a in range(max_first + 1):
            for b in range(max_other + 1):
                for c in range(max_other + 1):
                    T[a, b, c] = self.triple_product(a, b, c)
        return T


@lru_cache(maxsize=None)
def _legendre_triple(a: int, b: int, c: int) -> float:
    """Adams-Neumann with s = (a+b+c)/2, m(n) = C(2n, n): E[P_a P_b P_c] =
    m(s-a) m(s-b) m(s-c) / (m(s) (2s+1)), the leading coefficients' powers
    of 2 cancelling; psi_a psi_b psi_c is the square root of one exact
    quotient of integers, correctly rounded, so any order gives one value."""
    s = (a + b + c) // 2
    m = lambda n: math.comb(2 * n, n)
    num, den = m(s - a) * m(s - b) * m(s - c), m(s) * (2 * s + 1)
    return math.sqrt(num * num * (2 * a + 1) * (2 * b + 1) * (2 * c + 1) / (den * den))


def legendre_family() -> PolynomialFamily:
    """Orthonormal Legendre family; variables uniform on [-1, 1]."""
    return PolynomialFamily("legendre", 1.0 / math.sqrt(3.0))


def hermite_family() -> PolynomialFamily:
    """Orthonormal probabilists' Hermite family; standard normal variables."""
    return PolynomialFamily("hermite", 1.0)

