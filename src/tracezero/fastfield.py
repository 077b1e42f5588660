"""Vectorised whole-field enumeration tables.

A FieldTable enumerates the unit group of one tower field F_{q^n} in
generator order: entry k of its arrays is the base-p code of F_p-linear
functionals (the trace, or the digits) at gamma**k.  Inverses come for free
because (gamma**k)**-1 = gamma**(N-k).

The values come from a grid.  With k = a*B + b, B near sqrt(length), a
functional f has f(gamma**(aB) * gamma**b) = c_a . G_f . y_b, c_a and y_b
the digit vectors of gamma**(aB) and gamma**b and G_f[i][l] = f(e_i e_l)
the bilinear form of f on the basis.  So all values are one matrix product
C . W mod p, W = G . Y mod p, of two short chains, in float32 BLAS while
its entries stay below 2**22 and in float64 below 2**50: exact F_p
arithmetic on floating point, as in Dumas, Giorgi and Pernet (ACM TOMS
35(3), 2008).  A small walk is one row, f on Y (c_0 = 1, and row 0 of G_f
is f).  The grid runs to two lengths:

* the full walk, all N units (functionals_exp); the trace codes
  (trace_codes_exp), which the oracle's z_count and the q-exponent curve
  count read, are its values on the trace rows (at q = 2, where M = N,
  they are the class walk's codes);
* the class walk, gamma**k for k < M = N / (q - 1), on the trace rows.
  gamma**M lies in F_q*, so it holds one point of every F_q*-coset of the
  units; its trace codes (class_trace_codes) are read by the class counts
  and by the oracle's enumerations, whose conditions hold on whole cosets.

The chains are doubling walks on F_p matrices (_double), as log_tables
walks F_q: a round maps the units it has by A**L, the multiplier's power,
and squares that power, units[L:2L] = A**L * units[0:L] and A**(2L) =
(A**L)**2 mod p, in float64, exact while d * (p - 1)**2 < 2**50.  Y is
the doubling walk of gamma's matrix, which ends with gamma**B's, and C the
doubling walk of that matrix.  A walk's codes are held whole, so one of
2**31 units or more is refused (FieldTable._admit), as are codes past 64
bits, before any array is made.

Every unit the grid forms is checked (see FieldTable._walk): each chain
one step at a time against its multiplier's matrix from the structure
constants, not the powers that doubled it; unit M against lam0 =
gamma**M, the norm of gamma taken on gf's arithmetic, which must lie in
F_q* and generate it; unit M / l, for each prime l | M, outside F_q*;
each form G_f against f on products of the chain's units; and the
product's row 0 and column 0 against f on Y and on C.  That gives gamma
order N, so the full walk meets each unit once and the class walk each
coset once.

The class counts (how many cosets have each product Tr(x) * Tr(1/x))
read only the logs of the class walk's trace codes: scaling x by lam in
F_q* moves (Tr(x), Tr(1/x)) to (lam * Tr(x), lam**-1 * Tr(1/x)).  F_q
itself is held in log coordinates of a generator g (log_tables): exp and
log, the trace and the zero counts n0, q entries each, so that
a * b = g**(log a + log b); no q x q array is built for F_q.

Multiplication comes from the modulus: gf.structure_constants builds the
F_p matrices of multiplication by each basis element, and the chains'
multipliers, the forms and the generator search (the matrices of the
candidates, raised to N / l) read them.  Two checks stay on gf's
definitional arithmetic, so every build still holds the matrices against
gf.mul.  Both read Phi = frobenius_matrix, the matrix of x -> x**q built
from gf's x**q and its gf powers: a tower's trace is the literal sum of
the Frobenius conjugates, composed as linear maps (the trace rows are
those of sum_{j<n} Phi**j), and lam0 = gamma**M is the product of gamma's
n conjugates, by gf's mul along the norm chain of Itoh and Tsujii.  Phi
itself is held to fix F_q and to be multiplicative against the structure
constants, which pins it to the Frobenius.  No closed-form formula under
test enters any table.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import isqrt
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import gf
from .errors import BudgetExceededError, InvariantError
from .gf import (
    ExtensionField,
    FieldSpec,
    code_digits,
    mul_by_matrices,
    structure_constants,
)
from .numtheory import prime_factors

_BLOCK = 1 << 14  # cells per block of a blocked pass: its temporaries stay in L2
_FIRST_CANDIDATES = 4  # the generator search's first block, from code q; generators are common


def _double(A: np.ndarray, length: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(units, A**L): the digit columns A**i * e_0, i < length, as float64,
    and A**L mod p, L the least power of two not below length; e_0 is one.
    A round maps the units it has by the power A**L and squares it.  Exact
    while d * (p - 1)**2 < 2**50, which every caller refuses first."""
    A = A.astype(np.float64)
    units = np.zeros((len(A), length))
    units[0, 0] = 1  # the digits of one
    L = 1
    while L < length:
        units[:, L : 2 * L] = gf._mod(A @ units[:, : min(L, length - L)], p)
        A, L = gf._mod(A @ A, p), 2 * L
    return units, A


def multiplicative_generator(tower: ExtensionField):
    """First element in canonical order that generates the unit group.

    a generates iff a**(N / l) != 1 for every prime l | N.  Candidates are
    tested by code in blocks, each twice the last, from code q in a field
    of degree n >= 2 over F_q (the codes below q are F_q, a proper
    subfield): M_a, the matrix of b -> a * b from the structure constants,
    is raised to N / l by gf's square-and-multiply, and a is rejected when
    the power maps 1 to 1.  Each prime is tried only on the candidates that
    passed the ones before, until none is left.
    """
    N = tower.order - 1
    if N == 1:
        return tower.one
    p, D = tower.p, tower.r
    gf.check_power_bound(D, p)
    T = structure_constants(tower).astype(np.float64)
    exponents = [N // ell for ell in prime_factors(N)]
    one = np.eye(D)[0]  # the digits of 1
    start = tower.q if isinstance(tower, ExtensionField) and tower.n > 1 else 1
    rows = _FIRST_CANDIDATES
    while start <= N:
        codes = np.arange(start, min(start + rows, N + 1), dtype=np.int64)
        M = gf._mod(mul_by_matrices(code_digits(tower, codes).astype(np.float64), T), p)
        for e in exponents:
            fixed = (gf._power(M, e, p)[:, :, 0] == one).all(axis=1)
            codes, M = codes[~fixed], M[~fixed]
            if not codes.size:
                break
        if codes.size:
            return tower.from_code(int(codes[0]))
        start += rows
        rows = min(2 * rows, max(1, gf._CELLS // (D * D)))
    raise InvariantError("unit group has no generator; field data corrupt")


class LogTables(NamedTuple):
    """F_q in log coordinates of a generator g: read-only tables of q entries.

    exp[i] is the code of g**i, i < q - 1, and log[a] the exponent of the
    unit of code a; log[0] = 2(q - 1), so a sum of two logs, which the dtype
    holds, tells how many are of zero.  trace[a] is Tr_{F_q/F_p}(a), and
    n0[e] = #{mu in F_q* : Tr(mu + e / mu) = 0}, a Kloosterman-type zero count.
    """

    exp: np.ndarray
    log: np.ndarray
    trace: np.ndarray
    n0: np.ndarray

    def mul(self, a, b) -> np.ndarray:
        """Codes of a * b, for codes a and b broadcast together."""
        a, b = np.asarray(a), np.asarray(b)
        product = self.exp[(self.log[a] + self.log[b]) % self.exp.size]
        return np.where((a == 0) | (b == 0), 0, product)


@lru_cache(maxsize=8)
def log_tables(field: FieldSpec) -> LogTables:
    """The LogTables of the field F_q, built once per field.

    The digits of g**i, g multiplicative_generator's, come from the doubling
    walk (_double) of G, the matrix of multiplication by g: g**(L + i) is
    G**L times g**i.  The walk is checked to be a bijection onto the units.
    Tr(a) is the trace of the matrix of multiplication by a.  With tau_i = Tr(g**i),
    n0(g**j) = #{i : tau_i = -tau_(j-i)}: row j of the sliding windows of
    -tau, reversed and doubled, is -tau_(j-i) over i, a view, compared
    with tau in blocks of rows, so the q**2 comparisons hold O(q) memory.
    """
    p, r, q = field.p, field.r, field.order
    n = q - 1
    units = _double(gf.mul_matrix(field, multiplicative_generator(field)), n, p)[0]
    exp = (p ** np.arange(r) @ units).astype(np.min_scalar_type(4 * n))
    log = np.full(q, 2 * n, dtype=exp.dtype)
    log[exp] = np.arange(n)
    if log[0] != 2 * n or (log[1:] == 2 * n).any():
        raise InvariantError("generator walk of F_q did not cover its units")
    traces = np.trace(structure_constants(field), axis1=1, axis2=2)
    tau = gf._mod(traces @ units, p).astype(np.int64)  # Tr(g**i)
    trace = np.zeros(q, dtype=np.int64)
    trace[exp] = tau
    narrow = np.min_scalar_type(p - 1)
    minus = (-tau % p)[-np.arange(n)].astype(narrow)  # -tau_(-i)
    tau = tau.astype(narrow)
    turns = sliding_window_view(np.concatenate([minus, minus]), n)[n:0:-1]
    n0 = np.full(q, q // p - 1)  # n0(0) = #{mu : Tr(mu) = 0}
    rows = max(1, _BLOCK // n)
    for a in range(0, n, rows):
        n0[exp[a : a + rows]] = np.count_nonzero(turns[a : a + rows] == tau, axis=1)
    tables = LogTables(exp, log, trace, n0)
    for table in tables:
        table.flags.writeable = False
    return tables


class FieldTable:
    """Enumeration tables for F_{q^n}, indexed by exponent of a generator.
    Nothing is walked at construction: the trace codes of the full walk and
    of the class walk are each built on first read.
    """

    def __init__(self, tower: ExtensionField):
        self.tower = tower
        self.p = tower.base.p
        self.d = tower.r
        self.N = tower.order - 1
        self.M = self.N // (tower.q - 1)  # one walk entry per F_q*-coset of the units

    # -- construction --------------------------------------------------------

    @cached_property
    def _generator(self):
        return multiplicative_generator(self.tower)

    @cached_property
    def _gamma(self) -> np.ndarray:
        """The F_p matrix of the walk's step x -> gamma * x."""
        return gf.mul_matrix(self.tower, self._generator)

    @cached_property
    def _lam0(self) -> int:
        """The code of lam0 = gamma**M, which both walks hold against their
        unit M; raises unless it lies in F_q* and generates it.

        M = (q**n - 1) / (q - 1), so lam0 = prod_{j<n} gamma**(q**j) is the
        norm of gamma, taken by the chain of Itoh and Tsujii (Information
        and Computation 78(3), 1988): beta_k = gamma**((q**k - 1) / (q - 1))
        has beta_2k = beta_k * Phi**k(beta_k) and beta_(k+1) = gamma *
        Phi(beta_k), along the bits of n.  The products are gf's mul and
        the conjugates frobenius_matrix's powers (int64, mod p) on the
        digits, so lam0 stays on gf's definitional arithmetic: no structure
        constant enters it.
        """
        tower, q, p = self.tower, self.tower.q, self.p
        gamma, phi = self._generator, self.frobenius_matrix

        def conjugate(a, power):
            return tower.from_flat_digits((power @ tower.flat_digits(a) % p).tolist())

        lam0, power = gamma, phi  # beta_k and Phi**k, from k = 1
        for bit in bin(tower.n)[3:]:  # the bits after the leading 1
            lam0, power = tower.mul(lam0, conjugate(lam0, power)), power @ power % p
            if bit == "1":
                lam0, power = tower.mul(gamma, conjugate(lam0, phi)), power @ phi % p
        code, base = tower.code(lam0), tower.base
        if not 0 < code < q:
            raise InvariantError("gamma**M does not lie in F_q*")
        if any(base.pow_(lam0[0], (q - 1) // ell) == base.one for ell in prime_factors(q - 1)):
            raise InvariantError("gamma**M does not generate F_q*")
        return code

    def functionals_exp(self, rows) -> np.ndarray:
        """Evaluate F_p-linear functionals on gamma**k for every k < N: the
        full walk.  rows is a (k, d) array-like of digit-space functionals;
        the result holds, per exponent, the base-p code of the k values (row
        j gives digit j), in the least unsigned dtype that holds p**k - 1,
        read-only; k with p**k - 1 past 64 bits is refused."""
        return self._walk(self.N, rows)

    def _width(self, length: int, k: int) -> int:
        """B, the grid's width for k forms: B > length (one row) where the
        one-row chain check, d**2 a unit, stays within 4 * _BLOCK; else the
        power of two nearest sqrt(length / k), balancing Y and W against C."""
        if self.d**2 * length <= 4 * _BLOCK:
            return 1 << length.bit_length()
        return 1 << isqrt(length // (2 * k)).bit_length()

    def _forms(self, rows: np.ndarray) -> np.ndarray:
        """G, (d, k, d): G[i, j, l] = f_j(e_i * e_l), the bilinear form of
        the functional f_j (row j of rows) on the basis, from the structure
        constants."""
        return gf._mod(rows @ structure_constants(self.tower), self.p)

    def _admit(self, length: int):
        """Refuse a walk of length units, M (the class walk) or N (the full
        walk), at 2**31 units and up: its codes are held whole (2 GiB at one
        byte each).  Both walks check this before the trace rows, the
        generator or any array is read or made."""
        if length >= 1 << 31:
            walk = "class" if length == self.M else "full"
            raise BudgetExceededError(
                f"the {walk} walk of {length} units is past 2**31; its codes are held whole"
            )

    def _walk(self, length: int, rows) -> np.ndarray:
        """The codes of the functionals rows on gamma**k, k < length, as
        functionals_exp gives them; length is M (the class walk) or N (the
        full walk).  A walk too long to hold (_admit), codes past 64 bits
        and grid products past 2**50 are refused before any array is made.

        The grid of the module docstring, B = _width(length, k)
        units wide; a grid of one row is f on Y (c_0 = 1, and row 0 of G_f
        is f), and a wider one is filled by _grid.  Raises unless
        y_0 = c_0 = 1 and each unit of Y (of C) is the image of the one
        before under the matrix of gamma (of gamma**B, gamma's image of
        y_(B-1)); unless unit M, c_a * y_b, is lam0; unless, for each prime
        l | M, unit M / l has a digit at or above r, so lies outside F_q*;
        unless f(y_i * y_l) = f(y_(i+l)) for i, l < d, which fixes each form,
        y_0 .. y_(d-1) being a basis; and unless row 0 and column 0 of the
        product are f on Y and on C.  Then gamma has order
        N: for l | q - 1, gamma**(N / l) = lam0**((q - 1) / l) != 1, and
        for l | M, gamma**(N / l) = 1 only if gamma**(M / l) lies in F_q*.
        So the N units of the full walk are the units, each once, the M
        units of the class walk meet each F_q*-coset once, and gamma**-k is
        lam0**-1 * gamma**(M - k).
        """
        p, d, k, M = self.p, self.d, len(rows), self.M
        self._admit(length)
        if p**k > 1 << 64:
            raise BudgetExceededError(f"codes of {k} values mod {p} would pass 64 bits")
        if d * (p - 1) ** 2 >= 1 << 50:
            raise BudgetExceededError(f"grid products of {d} digits mod {p} would pass 2**50")
        rows = np.asarray(rows, dtype=np.float64)
        B = self._width(length, k)
        Y, gamma_B_matrix = _double(self._gamma, B, p)  # y_b, one unit per column
        gamma_B = self._check_chain(Y, self._gamma, 1)
        values = np.empty(length, dtype=np.min_scalar_type(p**k - 1))
        points = [M] + [M // ell for ell in prime_factors(M)]  # unit i is c_(i // B) * y_(i % B)
        if length < B:
            units, P = Y[:, points].T, (rows @ Y).reshape(1, k * B)
            values[:] = self._reduce_codes(P, k, values.dtype)[0, :length]
        else:
            units = self._grid(values, rows, Y, gamma_B, gamma_B_matrix, points)
        if int(units[0] @ p ** np.arange(d)) != self._lam0:
            raise InvariantError("walk unit M is not gamma**M")
        for i, unit in zip(points[1:], units[1:]):
            if not unit[self.tower.base.r :].any():
                raise InvariantError(f"walk unit M/{M // i} = {i} lies in F_q*")
        values.flags.writeable = False
        return values

    def _grid(self, values, rows, Y, gamma_B, gamma_B_matrix, points) -> np.ndarray:
        """Fill values from the grid of more than one row, given y_b, gamma**B
        and the matrix the doubling of Y ended with; returns the digits of
        the units at points."""
        p, d, k, length, B = self.p, self.d, len(rows), len(values), Y.shape[1]
        C = _double(gamma_B_matrix, length // B + 1, p)[0]  # c_a, a <= length / B
        at = np.column_stack([gamma_B, C[:, [i // B for i in points]]]).T
        mats = gf._mod(mul_by_matrices(at, structure_constants(self.tower)), p)  # gamma**B, c_a
        self._check_chain(C, mats[0], B)
        units = gf._mod(mats[1:] @ Y[:, [i % B for i in points]].T[:, :, None], p)[:, :, 0]
        first = Y if B >= 2 * d - 1 else _double(self._gamma, 2 * d - 1, p)[0]  # y_b, b < 2d - 1
        G, basis, on_Y = self._forms(rows).reshape(d * k, d), first[:, :d], gf._mod(rows @ first, p)
        products = gf._mod(basis.T @ gf._mod(G @ basis, p).reshape(d, k * d), p).reshape(d, k, d)
        if (products != on_Y[:, np.arange(d)[:, None] + np.arange(d)].swapaxes(0, 1)).any():
            raise InvariantError("the forms disagree with the functionals on the walk")
        real = np.float32 if d * (p - 1) ** 2 < 1 << 22 else np.float64
        C = np.ascontiguousarray(C[:, : -(-length // B)].T, dtype=real)
        W = gf._mod(G @ Y, p).reshape(d, k * B).astype(real)
        step = max(1, 2 * _BLOCK // (k * B))  # rows of C per block
        for s in range(0, len(C), step):
            block = self._reduce_codes(C[s : s + step] @ W, k, values.dtype)
            values[s * B : (s + step) * B] = block.ravel()[: length - s * B]
        code = np.array([p**j for j in range(k)], dtype=np.uint64)  # exact below 2**64
        column0 = gf._mod(rows @ C.T.astype(np.float64), p).T.astype(np.uint64) @ code  # f(c_a)
        row0 = on_Y[:, :B].T.astype(np.uint64) @ code
        if (values[::B] != column0).any() or (values[:B] != row0).any():
            raise InvariantError("the product disagrees with the functionals on the walk")
        return units

    def _check_chain(self, units: np.ndarray, matrix: np.ndarray, stride: int) -> np.ndarray:
        """The image of the last of units (columns) under matrix.  Raises
        unless unit 0 is one and each unit is the image of the one before;
        unit a is the walk's unit a * stride."""
        image = gf._mod(matrix @ units, self.p)
        one, bad = units[0, 0] == 1 and not units[1:, 0].any(), units[:, 1:] != image[:, :-1]
        if not one or bad.any():
            a = np.flatnonzero(bad.any(axis=0))[0] + 1 if one else 0
            raise InvariantError(f"walk leaves the step chain at unit {a * stride}")
        return image[:, -1]

    def _reduce_codes(self, P: np.ndarray, k: int, dtype) -> np.ndarray:
        """Base-p codes of the k values per column of a block P of the grid
        product, whose columns are the k forms side by side: each entry mod
        p, then digit j of a code from form j, in integers of dtype."""
        if self.p == 2 and self.d < 1 << 8:  # entries at most d, which a byte holds
            v = P.astype(np.uint8)
            v &= 1
        else:
            v = gf._mod(P, self.p)
        v = v.reshape(len(P), k, -1).astype(dtype, copy=False)  # a fresh array
        codes = v[:, k - 1]
        for j in range(k - 2, -1, -1):
            codes *= self.p
            codes += v[:, j]
        return codes

    # -- generic access -------------------------------------------------------

    @staticmethod
    def reversed_exp(arr: np.ndarray) -> np.ndarray:
        """Reindex k -> (N - k) mod N, i.e. the values on inverses."""
        return np.concatenate([arr[:1], arr[:0:-1]])

    # -- traces ---------------------------------------------------------------

    @cached_property
    def frobenius_matrix(self) -> np.ndarray:
        """Phi, the F_p matrix of gf's Frobenius x -> x**q on the tower;
        built once per table, read-only.

        Basis element t*r + k is e_k * x**t, e_k a basis element of F_q,
        and (e_k * x**t)**q = e_k * (x**q)**t since e_k**q = e_k.  So one
        gf Frobenius, of x, and n - 2 gf products give the powers of x**q,
        and each column is a power scaled coordinatewise by e_k in F_q.

        Raises unless Phi fixes F_q (its first r columns are those of I)
        and is multiplicative: Phi T[i] = M_i Phi mod p for every i, T the
        structure constants and M_i = sum_j Phi[j, i] T[j] the matrix of
        multiplication by Phi(e_i), in three float64 products.  A map of
        the tower that fixes F_q and is multiplicative is a power of the
        Frobenius, and column x, gf's x**q, names which.
        """
        tower, base, p = self.tower, self.tower.base, self.p
        powers = [tower.one]
        if tower.n > 1:
            xq = tower.frobenius(tower.basis_element(base.r))  # x**q
            powers.append(xq)
            while len(powers) < tower.n:
                powers.append(tower.mul(powers[-1], xq))
        basis = [base.basis_element(k) for k in range(base.r)]
        cols = [
            tower.flat_digits(tuple(base.mul(e, c) for c in y)) for y in powers for e in basis
        ]
        phi = np.array(cols, dtype=np.int64).T
        if (phi[:, : base.r] != np.eye(self.d, base.r, dtype=np.int64)).any():
            raise InvariantError("the Frobenius matrix moves F_q")
        if tower.n > 1:  # at n = 1 the check above leaves only Phi = I
            gf.check_power_bound(self.d, p)
            T, f = structure_constants(tower).astype(np.float64), phi.astype(np.float64)
            images = gf._mod(mul_by_matrices(f.T, T), p)  # M_i, row i of f.T being Phi(e_i)
            if (gf._mod(f @ T, p) != gf._mod(images @ f, p)).any():
                raise InvariantError("the Frobenius matrix is not multiplicative")
        phi.flags.writeable = False
        return phi

    def trace_rows(self) -> np.ndarray:
        """Digit-space functionals giving the base-field digits of the trace.

        The trace x + x**q + ... + x**(q**(n-1)) is the map sum_{j<n} Phi**j,
        Phi = frobenius_matrix, summed by n - 1 products of d x d int64
        matrices; every entry stays below d * p**2 < 2**63.  Its first r
        rows are the base-field digits; the rest must vanish, as in gf's
        trace_to_base.  Built once per table; read-only.
        """
        return self._trace_rows

    @cached_property
    def _trace_rows(self) -> np.ndarray:
        tower, p, d = self.tower, self.p, self.d
        total = np.eye(d, dtype=np.int64)
        if tower.n > 1:
            phi = self.frobenius_matrix
            power = total
            for _ in range(tower.n - 1):
                power = power @ phi % p
                total += power
            total %= p
        r = tower.base.r
        if total[r:].any():
            raise InvariantError("trace left the base field")
        rows = total[:r]
        rows.flags.writeable = False
        return rows

    def trace_codes_exp(self) -> np.ndarray:
        """Positional code of Tr(gamma**k) in the base field, per k < N."""
        return self._trace_codes

    @cached_property
    def _trace_codes(self) -> np.ndarray:
        if self.M == self.N:  # q = 2: the class walk is the full walk
            return self.class_trace_codes
        self._admit(self.N)  # before the trace rows are read
        return self.functionals_exp(self.trace_rows())

    @cached_property
    def class_trace_codes(self) -> np.ndarray:
        """Code of Tr(gamma**k) in the base field, per k < M: the class
        walk, the checked stream of _walk to length M, one unit per
        F_q*-coset.  Built on first read; read-only.  The class counts and
        the oracle's enumerations read it, so each table walks its classes
        once.
        """
        self._admit(self.M)  # before the trace rows are read
        return self._walk(self.M, self.trace_rows())

    @cached_property
    def class_counts(self) -> tuple[np.ndarray, int]:
        """(v, both): v[u] units of the class walk, one per F_q*-coset, with
        Tr(x) * Tr(1/x) of code u, a read-only int64 array, and both of
        them (counted in v[0] too) with both traces zero.

        The logs l_k of t_k = Tr(gamma**k), k < M, are read off
        class_trace_codes.  Unit k > 0 has the product t_k * t_(M-k) / lam0,
        and l_k + l_(M-k), a block plus a reversed slice, counts in
        4(q - 1) + 1 cells: below 2(q - 1), log lam0 plus the product's log
        mod q - 1, if neither trace is zero; 2(q - 1) + l if one is;
        4(q - 1) if both.  The sum is the same at k and M - k, so each pair
        k < M - k is binned once and counted twice, and k = M / 2 once.
        Unit 0 has t_0**2.
        """
        q, M = self.tower.q, self.M
        codes = self.class_trace_codes  # a walk too long to hold is refused first
        logs, n = log_tables(self.tower.base), q - 1
        t = logs.log[codes]
        t0, shift, half = int(t[0]), int(logs.log[self._lam0]), (M + 1) // 2
        cells = np.zeros(4 * n + 1, dtype=np.int64)
        cells[4 * n if t0 == 2 * n else (2 * t0 + shift) % n] = 1  # unit 0: t_0**2
        for s in range(1, half, _BLOCK):
            e = min(s + _BLOCK, half)
            cells += 2 * np.bincount(t[s:e] + t[M - e + 1 : M - s + 1][::-1], minlength=cells.size)
        if M % 2 == 0:
            cells[2 * int(t[M // 2])] += 1
        v = np.zeros(q, dtype=np.int64)
        v[logs.exp] = np.roll(cells[: 2 * n].reshape(2, n).sum(axis=0), -shift)
        v[0] = cells[2 * n :].sum()
        v.flags.writeable = False
        return v, int(cells[-1])


@lru_cache(maxsize=8)
def table_for(tower: ExtensionField) -> FieldTable:
    """Shared per-tower table cache; entries are immutable once built.

    Eight entries hold the engine's towers up to genus + 2 = 8 at p = 7,
    so oracle.verify_all up to n_max = 4 walks no tower twice: its loop
    reads the same towers, and walks each alternative-modulus tower in a
    table of its own.
    """
    return FieldTable(tower)
