"""Families of plus/minus-one sequences built from Legendre symbols.

For an odd prime p and an irreducible f over F_p from the family

    Omega_{p,n} = { x**n + a_2 x**(n-2) + a_3 x**(n-3) + ... + a_{n-2} x**2
                    + a_n : a_2, a_3 != 0 }

(note the missing x**(n-1) and x terms) the row for i = 1..p-1 is the
Legendre-symbol trace of f_i(X) = i**n f(X/i) over j = 1..p-1.  Because f
has no roots in F_p, no entry is ever zero.  Omega_{p,n} is scanned once
per call, in blocks of candidates through gf.irreducibles, and
distinct_family_count hands its members on.  This module builds those
families, measures them (f-complexity, cross-correlation of a given
order), and counts how many distinct families the construction yields,
which must stay strictly below the number of degree-n irreducibles with
vanishing x**(n-1) and x coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import gf
from .counting import CountEngine
from .errors import BudgetExceededError, InvariantError, ZeroEvaluationError
from .numtheory import is_prime

_CHUNK = 1 << 17  # products held by one block of the cross-correlation search


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
        if len({len(row) for row in self.rows}) > 1:
            raise ValueError("family rows must all have the same length")
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
    # a_2 and a_3 are units; a zero constant term means the root 0
    return list(gf.irreducibles(gf.make_field(p, 1), n, zero={1, n - 1}, unit={0, n - 2, n - 3}))


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
    grows fast in ell, so a tuple budget is enforced up front, before
    anything is allocated.

    Every (D, I) is still evaluated, in numpy blocks: the rows are read
    through zero-padded windows W[k, i, d] = e_{i,k+d} (zero for
    k + d >= N, which leaves every prefix sum past the cap M <= N - d_ell
    unchanged), the windows picked by a block of shift tuples and a range
    of row tuples are multiplied over s, and the largest |prefix sum|
    along k is kept unless some s < t has d_s = d_t on equal rows.  A
    block holds at most _CHUNK products (for N <= _CHUNK, which the
    default budget implies), so apart from int8 copies of the rows the
    working set is a fixed multiple of _CHUNK whatever the family's shape.
    """
    if ell < 1:
        raise ValueError("order must be positive")
    rows = fam.rows
    N = fam.length
    F = fam.row_count
    n_shift_tuples = comb(N + ell - 1, ell)
    if n_shift_tuples * F**ell * N > max_tuples:
        raise BudgetExceededError(
            f"{n_shift_tuples} * {F}**{ell} * {N} tuples exceed the cap {max_tuples}"
        )
    if N == 0:  # no rows, or empty ones
        return 0
    padded = np.zeros((F, 2 * N - 1), dtype=np.int8)
    padded[:, :N] = rows
    windows = sliding_window_view(padded, N, axis=1).transpose(2, 0, 1)
    first_seen = {}
    row_class = np.array([first_seen.setdefault(r, len(first_seen)) for r in rows])
    pairs = list(itertools.combinations(range(ell), 2))
    n_row_tuples = F**ell
    per_block = min(n_row_tuples, max(1, _CHUNK // N))
    shifts_per_block = max(1, _CHUNK // (per_block * N))
    best = 0
    for lo in range(0, n_row_tuples, per_block):
        flat = np.arange(lo, min(lo + per_block, n_row_tuples))
        I = np.unravel_index(flat, (F,) * ell)
        same_row = {(s, t): row_class[I[s]] == row_class[I[t]] for s, t in pairs}
        shifts = itertools.combinations_with_replacement(range(N), ell)
        while block := list(itertools.islice(shifts, shifts_per_block)):
            D = np.array(block).T
            # walk[k, j, b]: term k of row tuple j under shift tuple b
            walk = windows[:, :, D[0]].take(I[0], axis=1).astype(np.int32)
            for s in range(1, ell):
                walk *= windows[:, :, D[s]].take(I[s], axis=1)
            for k in range(1, N):  # prefix sums; faster than cumsum on axis 0
                walk[k] += walk[k - 1]
            peak = np.maximum(walk.max(axis=0), -walk.min(axis=0))
            for s, t in pairs:
                peak[same_row[s, t][:, None] & (D[s] == D[t])] = 0
            best = max(best, int(peak.max()))
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
            raise BudgetExceededError(
                f"{total} patterns on up to {j} of {N} positions exceed the cap {max_patterns}"
            )
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
    members: tuple[tuple[int, ...], ...]  # Omega_{p,n}, in canonical order
    distinct_families: int
    bound: int

    @property
    def omega_size(self) -> int:
        return len(self.members)

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
        engine = CountEngine(gf.make_field(p, 1), max_elements=max_elements)
    bound = engine.i_count(n)
    report = FamilyBoundReport(p, n, tuple(members), len(canon), bound)
    if not report.distinct_families < report.bound:
        raise InvariantError(
            f"distinct family count {report.distinct_families} is not "
            f"strictly below the bound {report.bound}"
        )
    return report
