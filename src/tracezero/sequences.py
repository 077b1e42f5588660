"""Families of plus/minus-one sequences built from Legendre symbols.

For an odd prime p and an irreducible f over F_p from the family

    Omega_{p,n} = { x**n + a_2 x**(n-2) + a_3 x**(n-3) + ... + a_{n-2} x**2
                    + a_n : a_2, a_3 != 0 }

(note the missing x**(n-1) and x terms) the row for i = 1..p-1 is the
Legendre-symbol trace of f_i(X) = i**n f(X/i) over j = 1..p-1.  Because f
has no roots in F_p, no entry is ever zero.  This module builds those
families, measures them (f-complexity, cross-correlation of a given
order), and counts how many distinct families the construction yields,
which must stay strictly below the number of degree-n irreducibles with
vanishing x**(n-1) and x coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from . import gf
from .errors import BudgetExceededError, InvariantError, ZeroEvaluationError
from .numtheory import is_prime


def legendre_symbol(a: int, p: int) -> int:
    """(a/p) in {-1, 0, 1}, by Euler's criterion with exact arithmetic."""
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


@dataclass(frozen=True)
class SeqFamily:
    """(p-1) rows of plus/minus-one values, each of length p-1."""

    p: int
    n: int
    source: tuple[int, ...]  # the generating polynomial, constant first
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if any(e not in (-1, 1) for e in row):
                raise ValueError("family entries must be +-1")

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def length(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def canonical(self) -> tuple:
        """Content-only form: the sorted multiset of rows."""
        return tuple(sorted(self.rows))


def omega_members(
    p: int, n: int, max_elements: int | None = gf.DEFAULT_MAX_ELEMENTS
) -> list[tuple[int, ...]]:
    """All polynomials of the constrained shape that are irreducible.

    Free data: a_2, a_3 nonzero, a_4..a_{n-2} arbitrary, constant a_n
    arbitrary; the x**(n-1) and x coefficients are pinned to zero.
    Requires an odd prime p and n >= 5.
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if n < 5:
        raise ValueError("the family shape needs degree n >= 5")
    if gf.over_cap((p - 1) ** 2 * p ** (n - 4), max_elements):
        raise BudgetExceededError(
            f"{p - 1}**2 * {p}**{n - 4} candidates exceed the cap {max_elements}"
        )
    field = gf.make_field(p, 1)
    # a_2 and a_3 are units; a zero constant term means the root 0
    return [
        f
        for f in gf.monic_polys(field, n, zero={1, n - 1})
        if f[n - 2] and f[n - 3] and f[0] and gf.is_irreducible(f, field)
    ]


def _poly_eval(f: tuple[int, ...], x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def build_family(f: tuple[int, ...], p: int) -> SeqFamily:
    """Rows i = 1..p-1 of Legendre symbols of f_i(j) = i**n f(j/i)."""
    f = tuple(c % p for c in f)
    n = len(f) - 1
    if n < 2:
        raise ValueError("the construction needs degree >= 2")
    rows = []
    for i in range(1, p):
        i_inv = pow(i, p - 2, p)
        scale = pow(i, n, p)
        row = []
        for j in range(1, p):
            v = scale * _poly_eval(f, j * i_inv % p, p) % p
            s = legendre_symbol(v, p)
            if s == 0:
                raise ZeroEvaluationError(
                    f"f_{i}({j}) = 0 mod {p}; the source polynomial has a root"
                )
            row.append(s)
        rows.append(tuple(row))
    return SeqFamily(p, n, f, tuple(rows))


def dual_family(fam: SeqFamily) -> SeqFamily:
    """The transpose: sequence j reads entry i of the original rows.

    The dual construction is stated abstractly upstream; transposition is
    the one interpretation used here, and it is isolated behind this
    single operation.
    """
    rows = tuple(zip(*fam.rows))
    return SeqFamily(fam.p, fam.n, fam.source, tuple(tuple(r) for r in rows))


def cross_correlation(fam: SeqFamily, ell: int, max_tuples: int = 1 << 26) -> int:
    """Cross-correlation measure of order ell, by exhaustive maximisation.

    Maximises |sum_{k=1..M} e_{i_1,k+d_1} * ... * e_{i_ell,k+d_ell}| over
    window lengths M, nondecreasing shift tuples D with M + d_ell <= N,
    and row index tuples I; equal rows must take distinct shifts.  Cost
    grows fast in ell, so a tuple budget is enforced up front.
    """
    if ell < 1:
        raise ValueError("order must be positive")
    rows = fam.rows
    N = fam.length
    F = fam.row_count
    n_shift_tuples = comb(N + ell - 1, ell)
    if n_shift_tuples * F**ell * N > max_tuples:
        raise BudgetExceededError("cross-correlation search space over budget")
    best = 0
    same = [[rows[a] == rows[b] for b in range(F)] for a in range(F)]
    for D in itertools.combinations_with_replacement(range(N), ell):
        m_max = N - D[-1]
        for I in itertools.product(range(F), repeat=ell):
            ok = True
            for s in range(ell):
                for t in range(s + 1, ell):
                    if D[s] == D[t] and same[I[s]][I[t]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            acc = 0
            for k in range(m_max):
                term = 1
                for s in range(ell):
                    term *= rows[I[s]][k + D[s]]
                acc += term
                if abs(acc) > best:
                    best = abs(acc)
    return best


def family_complexity(fam: SeqFamily, max_patterns: int = 1 << 22) -> int:
    """Largest j such that every sign pattern on every j positions occurs.

    Computed exactly, increasing j with early exit on the first miss; the
    doubly exponential pattern space keeps this to short rows, which the
    budget enforces.
    """
    rows = fam.rows
    N = fam.length
    total = 0
    for j in range(1, N + 1):
        total += comb(N, j) * 2**j
        if total > max_patterns:
            raise BudgetExceededError("f-complexity pattern space over budget")
    for j in range(1, N + 1):
        if 2**j > len(rows):
            return j - 1  # pigeonhole: not enough rows for all patterns
        for positions in itertools.combinations(range(N), j):
            seen = {tuple(row[t] for t in positions) for row in rows}
            if len(seen) < 2**j:
                return j - 1
    return N


@dataclass(frozen=True)
class FamilyBoundReport:
    p: int
    n: int
    omega_size: int
    distinct_families: int
    bound: int

    @property
    def margin(self) -> int:
        return self.bound - self.distinct_families


def distinct_family_count(
    p: int,
    n: int,
    max_elements: int | None = gf.DEFAULT_MAX_ELEMENTS,
    engine=None,
) -> FamilyBoundReport:
    """Count distinct families over Omega_{p,n} and compare with the bound.

    Families are compared as multisets of rows (the construction carries
    no canonical row order).  The bound is the count of all degree-n
    irreducibles over F_p with vanishing x**(n-1) and x coefficients; a
    strict inequality is asserted, as stated.
    """
    members = omega_members(p, n, max_elements)
    canon = {build_family(f, p).canonical() for f in members}
    if engine is None:
        from .counting import CountEngine

        engine = CountEngine(gf.make_field(p, 1), max_elements=max_elements)
    bound = engine.i_count(n)
    report = FamilyBoundReport(p, n, len(members), len(canon), bound)
    if not report.distinct_families < report.bound:
        raise InvariantError(
            f"distinct family count {report.distinct_families} is not "
            f"strictly below the bound {report.bound}"
        )
    return report
