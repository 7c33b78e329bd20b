"""Independent floating-point verification of the symbolic layer.

Everything here is computed numerically from definitions, never from the
symbolic algebra, so that agreement between the two layers is meaningful.

Log-sine integrals are nested integrals of products t^l * A(t)^p over the
ordered simplex in (0, pi/3), with A(t) = log|2 sin(t/2)| logarithmically
singular at t -> 0.  The quadrature substitutes t = exp(-x), turning the
singular endpoint into smooth exponential decay on x in [-log(pi/3), 128],
and represents each integrand level by piecewise Chebyshev interpolants on a
fixed panel decomposition.  The integral of the interpolant from each node to
its panel's end is linear in the node values: one precomputed 48x48 kernel,
so a matrix product and a cumulative sum across panels give the running inner
integral at every node, and levels simply compose.  The kernel comes from
closed forms: T_j(u_i) = cos(j theta_i) at the Lobatto points u_i = cos(theta_i)
and the antiderivatives F_0 = T_1, F_1 = T_2/4 and
F_j = T_{j+1}/(2(j+1)) - T_{j-1}/(2(j-1)), so that it is (F(1) - F(u)) T^-1,
the Chebyshev integration behind Clenshaw-Curtis.  With degree-48 panels of
width at most 8 the per-level truncation error sits far below 1e-12.  Node
arrays are memoized per prefix of the exponent pair vector (ks, ls), so
integrals that share their first levels compute them once.

Zeta values of depth d are computed outside-in: with R_{d+1} = 1 define

    R_u(j) = sum_{i > j} i^(-k_u) * R_{u+1}(i),

so the zeta value is R_1(0).  Each level sums R_u(j) exactly for j <= n, the
cutoff, and adds the tail beyond n from its asymptotic expansion in 1/j: if
R_{u+1}(i) ~ sum_m c_m i^(-m), then R_u(j) ~ sum_m c_m S_{m+k_u}(j), with
S_p(j) = sum_{i > j} i^(-p) expanded by Euler-Maclaurin.  The coefficients
pass from level to level; at n = 64 the absolute error is about 1e-15.  Each
level is memoized per suffix of the index, so indices ending alike share it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import LsiExpr, LsiMonomial
from .indices import Index

SIGMA = math.pi / 3.0


def eval_A(theta: float) -> float:
    """A(theta) = log(2 sin(theta/2)) for 0 < theta < 2*pi."""
    if not 0.0 < theta < 2.0 * math.pi:
        raise ValueError("theta outside (0, 2*pi)")
    return math.log(2.0 * math.sin(theta / 2.0))


# ---------------------------------------------------------------------------
# panelized Chebyshev quadrature in the variable x = -log t

_N_CHEB = 48  # points per panel


@lru_cache(maxsize=1)
def _panel_machine():
    edges = np.concatenate([[-math.log(SIGMA), 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0],
                            np.arange(8.0, 129.0, 8.0)])
    n, j = _N_CHEB, np.arange(2, _N_CHEB)
    # Chebyshev points of the second kind, ascending in [-1, 1], T_j and F_j there
    u = -np.cos(np.pi * np.arange(n) / (n - 1))
    cheb = np.cos(np.outer(np.arccos(u), np.arange(n + 1)))    # T_j(u_i), j <= n
    anti = np.column_stack([cheb[:, 1], cheb[:, 2] / 4,
                            cheb[:, 3:] / (2 * j + 2) - cheb[:, 1:-2] / (2 * j - 2)])
    # F(1) - F(u_i): from node i to the right end u_{n-1} = 1 of its panel
    kernel = (anti[-1] - anti) @ np.linalg.inv(cheb[:, :n])
    a, b = edges[:-1, None], edges[1:, None]
    x = a + (b - a) * (u[None, :] + 1.0) / 2.0                  # (P, n) nodes
    t = np.exp(-x)
    with np.errstate(divide="ignore"):
        a_vals = np.log(2.0 * np.sin(t / 2.0))                  # A at the nodes
    return t, a_vals, kernel.T, (b - a) / 2.0


def _suffix_integrals(h_vals: np.ndarray):
    """Per-node reverse cumulative integral of a panel-sampled integrand.

    Input: values of h on the (P, n) node grid (as a function of x).  Output:
    (F, total) with F[p, i] = integral of h from x[p, i] to the right end of
    the last panel, and total the full integral."""
    _, _, kernel_t, half_width = _panel_machine()
    within = (h_vals @ kernel_t) * half_width                   # node -> panel end
    panel_totals = within[:, 0]
    after = np.concatenate([np.cumsum(panel_totals[::-1])[::-1][1:], [0.0]])
    return within + after[:, None], float(panel_totals.sum())


@lru_cache(maxsize=None)
def _nested_ls_integral(ks, ls):
    """(F, total): the integral of prod t_u^{l_u} A(t_u)^{k_u-1-l_u} over
    0 < t_1 < ... < t_d < s, at each node s (F) and at s = pi/3 (total)."""
    t, a_vals, *_ = _panel_machine()
    if not ks:
        return np.ones_like(t), 1.0
    g = _nested_ls_integral(ks[:-1], ls[:-1])[0] * t**ls[-1] * a_vals**(ks[-1] - 1 - ls[-1])
    return _suffix_integrals(g * t)                             # dt = -t dx


def eval_ls(m: LsiMonomial) -> float:
    """Numerical value of a log-sine monomial at pi/3."""
    return (-1.0) ** m.depth * _nested_ls_integral(m.ks, m.ls)[1] * math.pi ** m.pi_pow


def eval_expr(e: LsiExpr) -> complex:
    """Numerical value of an expression (coefficients become complex)."""
    total = 0j
    for m, n in e.numerators():
        c = n / e.den  # correctly rounded, as float(Fraction(n, den)) is
        total += (complex(0, c) if e.is_imag(m) else complex(c)) * eval_ls(m)
    return total


def integrate_to_sigma(f) -> float:
    """Integral of a vectorized f(t) over (0, pi/3); f may blow up like log t."""
    t = _panel_machine()[0]
    return _suffix_integrals(f(t) * t)[1]


# ---------------------------------------------------------------------------
# zeta values by outside-in tail summation

_TAIL_ORDER = 20  # powers 1/j .. 1/j^20 kept in each tail expansion
_CUTOFF = 64      # terms summed exactly at each level before the tail


@lru_cache(maxsize=1)
def _tail_table() -> np.ndarray:
    """E[p, q]: coefficient of j^(-q) in S_p(j) = sum_{i > j} i^(-p), for p >= 2.

    Euler-Maclaurin, with B_1 = -1/2:  S_p(j) = j^(1-p)/(p-1)
        + sum_{s >= 1} B_s/s! * p (p+1) ... (p+s-2) * j^(1-p-s).
    """
    m = _TAIL_ORDER
    b_over_fact = [float(bernoulli_number(s) / math.factorial(s)) for s in range(m)]
    table = np.zeros((m + 2, m + 1))
    for p in range(2, m + 2):
        table[p, p - 1] = 1.0 / (p - 1)
        for s in range(1, m + 2 - p):
            table[p, p - 1 + s] = b_over_fact[s] * math.perm(p + s - 2, s - 1)
    return table


@lru_cache(maxsize=None)
def _series(parts):
    """(R, c): R_1(j) for j = 0..n of the nested series over ``parts``, and
    the coefficients c_q of its expansion R_1(j) ~ sum_q c_q j^(-q)."""
    if not parts:
        return np.ones(_CUTOFF + 1), np.eye(_TAIL_ORDER + 1)[0]
    r_next, coeffs = _series(parts[1:])
    inv = 1.0 / np.arange(1, _CUTOFF + 1, dtype=np.float64)
    # i^(-k_1) R_2(i) ~ sum_q coeffs[q] i^(-q-k_1), summed term by term
    rows = _tail_table()[parts[0]:]
    coeffs = coeffs[:len(rows)] @ rows
    term = inv**parts[0] * r_next[1:]
    tail = coeffs @ inv[-1] ** np.arange(_TAIL_ORDER + 1)
    return np.concatenate([np.cumsum(term[::-1])[::-1], [0.0]]) + tail, coeffs


def eval_mzv(k: Index) -> float:
    """Nested zeta series of an admissible index, absolute error about 1e-15."""
    if not k.admissible:
        raise ValueError(f"zeta series requires an admissible index, got {k}")
    return float(_series(k.parts)[0][0])


# ---------------------------------------------------------------------------
# Bernoulli numbers and the even-zeta closed form

@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """B_n (B_1 = -1/2) from sum_{j<=n} C(n+1, j) B_j = 0."""
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


def euler_even_zeta(k: int) -> float:
    """zeta(2k) = (-1)^(k+1) (2 pi)^(2k) B_{2k} / (2 (2k)!)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    b = bernoulli_number(2 * k)
    return (-1) ** (k + 1) * (2 * math.pi) ** (2 * k) * float(b) / (2 * math.factorial(2 * k))


# ---------------------------------------------------------------------------
# numeric checks

def eval_relation(coeffs) -> float:
    """Residual of sum(c * zeta(k)) for (index, coefficient) pairs."""
    return float(sum(float(c) * eval_mzv(k) for k, c in coeffs))


def check_ccs_identity(m: int) -> float:
    """Classical depth-one integral identity tying the moments of A on
    (0, pi/3) to odd zeta values.

    Verifies numerically, for m >= 0,

        (-1)^m * integral_0^{pi/3} (t - pi/3)^(2m+1) A(t) dt
          = -(1/2) (2m+1)! (1 - 2^(-2m-2)) (1 - 3^(-2m-2)) zeta(2m+3)
            + (2m+1)! sum_{k=0}^{m} (-1)^k (pi/3)^(2k) zeta(2m+3-2k) / (2k)!

    Returns the absolute residual.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    lhs = (-1.0) ** m * integrate_to_sigma(
        lambda t: (t - SIGMA) ** (2 * m + 1) * np.log(2.0 * np.sin(t / 2.0)))
    fac = math.factorial(2 * m + 1)
    rhs = -0.5 * fac * (1 - 2.0 ** (-2 * m - 2)) * (1 - 3.0 ** (-2 * m - 2)) \
        * eval_mzv(Index((2 * m + 3,)))
    rhs += fac * sum((-1.0) ** k * (math.pi / 3) ** (2 * k)
                     * eval_mzv(Index((2 * m + 3 - 2 * k,)))
                     / math.factorial(2 * k)
                     for k in range(m + 1))
    return abs(lhs - rhs)
