"""Reference implementations the tests compare piq against.

Each one computes by a route the program does not take: theta and eta
series from their closed forms (triangular numbers, the pentagonal-number
theorem) rather than from the eta-quotient kernel, Euler's phi by trial
division, and cusp equivalence by the classical Gamma_0(N) criterion rather
than from the canonical cusp list.
"""

from __future__ import annotations

import math
from fractions import Fraction

from piq.etaq import Cusp
from piq.series import ScaledSeries


def psi_expansion(terms: int) -> ScaledSeries:
    """Ramanujan theta psi(q) = sum q^(n(n+1)/2), known modulo O(q^terms)."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    acc = {}
    n = 0
    while n * (n + 1) // 2 < terms:
        acc[n * (n + 1) // 2] = 1
        n += 1
    return ScaledSeries.from_terms(acc, terms)


def eta_expansion(delta: int, terms: int) -> ScaledSeries:
    """Expansion of eta(delta*z): q^(delta/24) times the pentagonal-number series.

    The product part prod(1 - q^(delta*n)) is generated sparsely from the
    pentagonal-number theorem, never by multiplying the factors one by one.
    The result is known modulo O(q^(delta/24 + delta*terms)).
    """
    delta = int(delta)
    if delta < 1 or terms < 1:
        raise ValueError("delta and terms must be >= 1")
    pent = {0: 1}
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 >= terms and g2 >= terms:
            break
        sign = -1 if k % 2 else 1
        if g1 < terms:
            pent[g1] = sign
        if g2 < terms:
            pent[g2] = sign
        k += 1
    pref = Fraction(delta, 24)
    return ScaledSeries.from_terms(
        {pref + delta * g: c for g, c in pent.items()}, pref + delta * terms
    )


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def cusps_equivalent(level: int, c1: Cusp, c2: Cusp) -> bool:
    """Standard Gamma_0(N) equivalence test on cusps a/c written in lowest terms."""

    def complete(a, c):
        # Extend (a, c) with gcd 1 to a matrix [[a, b], [c, d]] of determinant 1.
        g, x, y = _xgcd(a, c)
        assert g == 1
        return x, y  # d, -b with a*d - b*c = 1 -> a*x + c*y = 1

    d1, _ = complete(c1.r, c1.s)
    d2, _ = complete(c2.r, c2.s)
    # a1/c1 ~ a2/c2 iff c2*d1 == c1*d2 (mod gcd(c1*c2, N)) with d_i from the
    # completed matrices; robust for all lowest-term representatives.
    g = math.gcd(c1.s * c2.s, level)
    return (c2.s * d1 - c1.s * d2) % g == 0


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
