"""Exact arithmetic in F_p and its extensions F_q = F_{p^r} and F_{q^n}.

Fields are pinned down by explicit moduli so that every run, on every
platform, reproduces the same element order and the same intermediate
artifacts.  Two classes carry all of the arithmetic:

  * PrimeField is F_p; its elements are plain ints in [0, p);
  * ExtensionField is base[x]/(modulus) for a monic irreducible modulus of
    degree n over any base field; its elements are length-n tuples of base
    elements, constant coefficient first.

F_{p^r} (r >= 2) is an extension of F_p, so its elements are tuples of
ints; the tower F_{q^n} is an extension of F_q, so its elements are tuples
of F_q elements.  Keeping the tower two-level (rather than flattening it
to one degree r*n extension of F_p) makes the trace to the middle field a
plain sum of q-power Frobenius conjugates; the trace to F_p goes on
through the base field's own trace.

The canonical element order compares coefficient vectors low-to-high as
integers, i.e. by the positional code sum(c_t * q**t) over the base-field
codes; the canonical modulus of each extension is the first monic
irreducible in that order (so x**3 + x + 1 for degree 3 over F_2).  All
operations are pure functions of immutable values, so everything in this
module is freely shareable across threads.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    InvariantError,
    NonMonicError,
    NonPrimeError,
)
from .numtheory import is_prime, prime_factors


class FieldSpec:
    """A finite field: the part of PrimeField and ExtensionField they share.

    Every field has p, r (the degree over F_p), order, zero, one and
    modulus, and the element arithmetic add/sub/neg/mul/inv.  An extension
    over a field reads the field's accumulator arithmetic _acc_add,
    _acc_sub, _acc_neg, _acc_mul and _settle: sums and products may stay
    unsettled while a coefficient accumulates, and _settle turns the
    result back into an element.
    """

    def is_zero(self, a) -> bool:
        return a == self.zero

    def pow_(self, a, e: int):
        """a**e by square and multiply from the top bit of e: one squaring
        per bit after it and one product per further set bit, so a**2 is
        one mul."""
        if e < 0:
            raise ValueError("negative exponents are not supported; invert first")
        if e == 0:
            return self.one
        result = a
        for bit in bin(e)[3:]:  # the bits after the leading 1
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    @cached_property
    def element_list(self) -> tuple:
        return tuple(self.elements())

    def basis_element(self, j: int):
        """The element whose flat digit vector is the j-th unit vector."""
        digs = [0] * self.r
        digs[j] = 1
        return self.from_flat_digits(digs)

    def _check_code(self, v: int):
        if not 0 <= v < self.order:
            raise ValueError(f"element code {v} out of range for order {self.order}")


@dataclass(frozen=True)
class PrimeField(FieldSpec):
    """F_p, with the placeholder modulus x (coefficients (0, 1))."""

    p: int

    r = 1
    zero = 0
    one = 1
    modulus = (0, 1)
    # ints accumulate exactly and are reduced mod p once, when settled
    _acc_add = staticmethod(operator.add)
    _acc_sub = staticmethod(operator.sub)
    _acc_neg = staticmethod(operator.neg)
    _acc_mul = staticmethod(operator.mul)

    def __post_init__(self):
        if not is_prime(self.p):
            raise NonPrimeError(f"{self.p} is not prime")
        object.__setattr__(self, "_settle", self.p.__rmod__)  # x -> x % p

    @property
    def order(self) -> int:
        return self.p

    def __contains__(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.p

    def embed(self, c: int):
        """The image of the integer c under Z -> F_p."""
        return c % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def elements(self) -> Iterator:
        return iter(range(self.p))

    def code(self, a) -> int:
        return a

    # elements built from outside data (numpy digits, say) are plain ints,
    # which the accumulator arithmetic of an extension relies on
    def from_code(self, v: int):
        self._check_code(v)
        return int(v)

    def flat_digits(self, a) -> tuple[int, ...]:
        return (a,)

    def from_flat_digits(self, digs: Sequence[int]):
        (a,) = digs
        return int(a)

    def trace_to_prime(self, a) -> int:
        return a


@dataclass(frozen=True)
class ExtensionField(FieldSpec):
    """base[x]/(modulus), modulus monic irreducible of degree n over base.

    Used both for F_{p^r} over F_p and for the tower F_{q^n} over F_q.  For
    n == 1 the modulus is the placeholder x (coefficients (zero, one)) and
    elements are 1-tuples.
    """

    base: FieldSpec
    n: int
    modulus: tuple

    def __post_init__(self):
        base, n, m = self.base, self.n, self.modulus
        if n < 1:
            raise ValueError("extension degree must be positive")
        if len(m) != n + 1:
            raise ValueError("modulus degree does not match the extension degree")
        if not all(c in base for c in m):
            raise ValueError("modulus coefficients must be reduced base-field elements")
        if n == 1:
            if m != (base.zero, base.one):
                raise ValueError("degree-1 extensions use the placeholder modulus x")
        else:
            if m[-1] != base.one:
                raise NonMonicError("field modulus must be monic")
            if not is_irreducible(m, base):
                raise ValueError("field modulus must be irreducible over the base")
        self._derive()

    @classmethod
    def _scanned(cls, base: FieldSpec, n: int, modulus: tuple) -> "ExtensionField":
        """The extension by a modulus _tower_modulus_scan has just accepted.

        The scan only yields monic irreducibles of degree n with reduced
        coefficients, so the constructor's checks, the irreducibility test
        above all, would repeat work already done.
        """
        field = object.__new__(cls)
        for name, value in (("base", base), ("n", n), ("modulus", modulus)):
            object.__setattr__(field, name, value)
        field._derive()
        return field

    def _derive(self):
        base, n, m = self.base, self.n, self.modulus
        derived = {
            "p": base.p,
            "r": base.r * n,
            "q": base.order,
            "order": base.order**n,
            "zero": (base.zero,) * n,
            "one": (base.one,) + (base.zero,) * (n - 1),
            "_tails": _reduction_tails(base, m),
            "_mul_ops": (base._acc_add, base._acc_mul, base._settle, base.zero),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __contains__(self, a) -> bool:
        return isinstance(a, tuple) and len(a) == self.n and all(c in self.base for c in a)

    def embed_base(self, b):
        return (b,) + (self.base.zero,) * (self.n - 1)

    def embed(self, c: int):
        """The image of the integer c under Z -> F_p -> this field."""
        return self.embed_base(self.base.embed(c))

    # -- element arithmetic ------------------------------------------------

    def add(self, a, b):
        base = self.base
        return tuple(map(base._settle, map(base._acc_add, a, b)))

    def sub(self, a, b):
        base = self.base
        return tuple(map(base._settle, map(base._acc_sub, a, b)))

    def neg(self, a):
        base = self.base
        return tuple(map(base._settle, map(base._acc_neg, a)))

    def mul(self, a, b):
        add, mul, settle, zero = self._mul_ops
        n = self.n
        prod = [zero] * (2 * n - 1)
        for i, c in enumerate(a):
            if c != zero:
                for k, d in enumerate(b, i):  # k = i + j for the j-th coefficient of b
                    if d != zero:
                        prod[k] = add(prod[k], mul(c, d))
        for k in range(2 * n - 2, n - 1, -1):
            v = settle(prod[k])
            if v != zero:
                for j, t in self._tails[k - n]:
                    prod[j] = add(prod[j], mul(v, t))
        return tuple(map(settle, prod[:n]))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return self.pow_(a, self.order - 2)

    # this field's accumulator arithmetic, for an extension over it: its
    # elements are always settled, and tuple() of a tuple is the tuple itself
    _acc_add = add
    _acc_sub = sub
    _acc_neg = neg
    _acc_mul = mul
    _settle = tuple

    # -- Frobenius, traces ---------------------------------------------------

    def frobenius(self, a):
        """The q-power map a -> a**q, q the order of the base field."""
        return self.pow_(a, self.q)

    def trace_to_base(self, a):
        """Sum of the q-power Frobenius conjugates; lands in the base field."""
        acc = a
        t = a
        for _ in range(self.n - 1):
            t = self.frobenius(t)
            acc = self.add(acc, t)
        base = self.base
        if any(not base.is_zero(c) for c in acc[1:]):
            raise InvariantError("trace left the base field")
        return acc[0]

    def trace_to_prime(self, a) -> int:
        """Trace all the way down to F_p, through the base field's trace."""
        return self.base.trace_to_prime(self.trace_to_base(a))

    def rtrace(self, a):
        """Trace of the inverse, with the convention rtrace(0) = 0.

        The zero case is a defined value, not an error: it is what makes
        the zero-locus of the reciprocal trace have exactly q**(n-1)
        elements, matching the trace fibers.
        """
        if self.is_zero(a):
            return self.base.zero
        return self.trace_to_base(self.inv(a))

    # -- enumeration and encoding -------------------------------------------

    def elements(self) -> Iterator:
        """All elements in canonical order (increasing positional code)."""
        for tup in itertools.product(self.base.element_list, repeat=self.n):
            yield tup[::-1]

    def flat_digits(self, a) -> tuple[int, ...]:
        """Coefficient vector over F_p, length r: the base digits concatenated."""
        base = self.base
        return tuple(d for c in a for d in base.flat_digits(c))

    def from_flat_digits(self, digs: Sequence[int]):
        base, k = self.base, self.base.r
        return tuple(base.from_flat_digits(digs[i * k : (i + 1) * k]) for i in range(self.n))

    def code(self, a) -> int:
        """Positional integer code over the base-field codes; inverse of from_code."""
        base, q = self.base, self.q
        v = 0
        for c in reversed(a):
            v = v * q + base.code(c)
        return v

    def from_code(self, v: int):
        self._check_code(v)
        base, q = self.base, self.q
        out = []
        for _ in range(self.n):
            out.append(base.from_code(v % q))
            v //= q
        return tuple(out)


def _reduction_tails(base: FieldSpec, modulus: tuple) -> tuple:
    """x**(n+k) reduced mod the modulus, k = 0 .. n-2, as nonzero (j, coefficient) pairs."""
    n = len(modulus) - 1
    first = [base.neg(c) for c in modulus[:n]]
    t = first
    tails = []
    for _ in range(n - 1):
        tails.append(tuple((j, c) for j, c in enumerate(t) if c != base.zero))
        lead = t[-1]
        t = [base.zero] + t[:-1]
        if lead != base.zero:
            t = [base.add(c, base.mul(lead, f)) for c, f in zip(t, first)]
    return tuple(tails)


def linear_map_matrix(source: FieldSpec, target: FieldSpec, f) -> np.ndarray:
    """The matrix over F_p of an F_p-linear map f from source to target.

    Column j is the flat digit vector of f(source.basis_element(j)), so the
    matrix has shape (target.r, source.r) and acts on digit columns.
    """
    cols = [target.flat_digits(f(source.basis_element(j))) for j in range(source.r)]
    return np.array(cols, dtype=np.int64).reshape(source.r, target.r).T


def digit_table(field: FieldSpec) -> np.ndarray:
    """The base-p digits of the codes 0 .. order - 1, one row per code.

    In canonical order these are the flat digits of every element: a code
    is positional over the base-field codes, and a base-field code over
    its own flat digits.
    """
    return code_digits(field, np.arange(field.order, dtype=np.int64))


def code_digits(field: FieldSpec, codes: np.ndarray) -> np.ndarray:
    """The base-p digits of each code in codes, along a new last axis.

    Digit j of x is t - t // p * p for t = x // p**j: floor division by a
    scalar takes numpy's fast path, which % and division by an array of
    powers do not.
    """
    p = field.p
    digits = np.empty(codes.shape + (field.r,), dtype=np.int64)
    for j in range(field.r):
        high = codes // p
        np.subtract(codes, high * p, out=digits[..., j])
        codes = high
    return digits


@lru_cache(maxsize=32)
def structure_constants(field: FieldSpec) -> np.ndarray:
    """T, with T[j] the F_p matrix of b -> e_j * b acting on digit columns.

    Taken from the modulus, not from mul.  In base[x]/(f) of degree n over
    a base of degree r, e_(t*r + k) = e_k * x**t, so

        T[t*r + k] = (I_n (x) T_base[k]) X**t  mod p,

    the block-diagonal product by the base element e_k after X**t, X the
    matrix of multiplication by x (see _companion).  The recursion ends at
    F_p, whose T is [[[1]]]; a degree-1 extension has its base's T.  The
    int64 array is read-only and cached per field.
    """
    if isinstance(field, PrimeField):
        T = np.ones((1, 1, 1), dtype=np.int64)
    elif field.n == 1:
        return structure_constants(field.base)
    else:
        base, n, p = field.base, field.n, field.p
        r, D = base.r, field.r
        codes = np.array([[base.code(c) for c in field.modulus[:n]]], dtype=np.int64)
        X = _companion(codes, base)[0]
        powers = [np.eye(D)]  # X**t for t < n
        for _ in range(n - 1):
            powers.append(_mod(powers[-1] @ X, p))
        # (I_n (x) B) Y multiplies each r-row block of Y by B
        blocks = np.stack(powers).reshape(n, 1, n, r, D)
        Tb = structure_constants(base).astype(np.float64).reshape(1, r, 1, r, r)
        T = _mod(Tb @ blocks, p).reshape(D, D, D).astype(np.int64)
    T.flags.writeable = False
    return T


def mul_matrix(field: FieldSpec, a) -> np.ndarray:
    """The F_p matrix of b -> a * b, read off the structure constants."""
    digits = np.array([field.flat_digits(a)], dtype=np.int64)
    return mul_by_matrices(digits, structure_constants(field))[0] % field.p


def mul_by_matrices(digits: np.ndarray, T: np.ndarray) -> np.ndarray:
    """sum_j a_j T[j], the matrix of b -> a * b, for each row a of digits.

    Not reduced mod p: every entry stays below r * p**2.
    """
    r = len(T)
    return (digits @ T.reshape(r, r * r)).reshape(-1, r, r)


DEFAULT_MAX_ELEMENTS = 1 << 24  # the one default element cap of every enumeration


def over_cap(count: int, max_elements: int | None) -> bool:
    """count > max_elements; None means no cap, and a cap below 1 is a ValueError."""
    if max_elements is not None and max_elements < 1:
        raise ValueError("the element cap must be positive")
    return max_elements is not None and count > max_elements


def check_element_cap(q: int, m: int, max_elements: int | None):
    """Refuse an enumeration of F_{q^m} over the element cap."""
    if over_cap(q**m, max_elements):
        raise BudgetExceededError(f"{q}**{m} elements exceed the cap {max_elements}")


# ---------------------------------------------------------------------------
# Polynomials over a field
#
# A polynomial is a tuple of field elements, constant coefficient first,
# with no trailing zeros above the degree; () is the zero polynomial.


def poly_mul(field, f, g) -> tuple:
    """The product; over a field, nonzero leading coefficients multiply to a nonzero one."""
    if not f or not g:
        return ()
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not field.is_zero(a):
            for j, b in enumerate(g):
                out[i + j] = field.add(out[i + j], field.mul(a, b))
    return tuple(out)


def is_irreducible(f, field: FieldSpec) -> bool:
    """Irreducibility over the field of a monic f of degree >= 1: one row of irreducible_mask."""
    f = tuple(f)
    d = len(f) - 1
    if d < 1:
        raise ValueError("irreducibility is only defined for degree >= 1")
    if f[-1] != field.one:
        raise NonMonicError("irreducibility test requires a monic polynomial")
    return bool(irreducible_mask([[field.code(c) for c in f[:d]]], field)[0])


def monic_polys(field: FieldSpec, n: int, zero=()) -> Iterator[tuple]:
    """The monic polynomials of degree n over the field, in canonical order.

    Canonical order is increasing positional code of the coefficients
    below x**n, so the constant term varies fastest.  The coefficients at
    the degrees in zero are pinned to 0; the rest run over the field.
    """
    free = [k for k in range(n) if k not in zero][::-1]  # product varies the last fastest
    coeffs = [field.zero] * n + [field.one]
    for tup in itertools.product(field.element_list, repeat=len(free)):
        for k, c in zip(free, tup):
            coeffs[k] = c
        yield tuple(coeffs)


def irreducibles(field: FieldSpec, n: int, zero=(), unit=(), after=None) -> Iterator[tuple]:
    """The irreducibles of monic_polys(field, n, zero) past after, if given,
    with no zero coefficient in unit.

    They are tested in blocks, each twice the last, up to the row budget.
    The first holds one irreducible's worth (their density is about
    1 / n), and up to two where 1/64 of the budget allows: with matrices
    that small, a second block costs more than the extra rows.
    """
    polys = monic_polys(field, n, zero)
    if after is not None:  # the candidates up to after are not tested again
        polys = itertools.islice(itertools.dropwhile(lambda f: f != after, polys), 1, None)
    polys = (f for f in polys if all(f[k] != field.zero for k in unit))
    rows = min(2 * n, max(n, _block_rows(field, n) >> 6))
    while block := list(itertools.islice(polys, rows)):
        codes = [[field.code(c) for c in f[:n]] for f in block]
        yield from itertools.compress(block, irreducible_mask(codes, field))
        rows = min(2 * rows, _block_rows(field, n))


_CELLS = 1 << 18  # cells of one (K, D, D) matrix stack of the batched test


def _block_rows(field: FieldSpec, d: int) -> int:
    return max(1, _CELLS // max(1, field.r * d) ** 2)


def irreducible_mask(codes, field: FieldSpec) -> np.ndarray:
    """Irreducibility over the field of each monic in a block, by F_p linear algebra.

    Row k of codes holds the codes of the coefficients of x**0 .. x**(d-1)
    of a monic f of degree d >= 1.  X is the F_p matrix of multiplication
    by x on F_q[x]/(f), so X**(q**k) - X multiplies by g = x**(q**k) - x
    and is nonsingular iff gcd(g, f) = 1.  By Rabin's criterion f is
    irreducible iff X**(q**d) = X and X**(q**k) - X is nonsingular at
    k = d / l for each prime l | d.  Only the rows that pass the equality
    are tested for nonsingularity, by a power (see _irreducible_block).
    Blocks of rows hold at most _CELLS cells per D x D stack (D = r * d).
    Entries are float64, exact while D * p**2 < 2**50.  Codes out of range
    and a wider p are refused before anything is allocated.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2 or codes.shape[1] < 1:
        raise ValueError("the batched test takes a (K, d) block of codes with d >= 1")
    if codes.size and not 0 <= codes.min() <= codes.max() < field.order:
        raise ValueError(f"coefficient codes out of range for order {field.order}")
    K, d = codes.shape
    check_power_bound(field.r * d, field.p)
    rows = _block_rows(field, d)
    blocks = [_irreducible_block(codes[lo : lo + rows], field) for lo in range(0, K, rows)]
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype=bool)


def _irreducible_block(codes: np.ndarray, field: FieldSpec) -> np.ndarray:
    p, q, d = field.p, field.order, codes.shape[1]
    X = _companion(codes, field)
    checks = {d // ell for ell in prime_factors(d)}
    Y, saved = X, []
    for k in range(1, d + 1):
        Y = _power(Y, q, p)
        if k in checks:
            saved.append(Y)
    keep = (Y == X).all(axis=(1, 2))
    if saved and keep.any():
        # F_q[x]/(f) is then a product of fields F_{q**e} with e | d, so g is
        # a unit iff g**(q**d - 1) = 1: its matrix power maps 1 to 1
        G = np.concatenate([_mod(S[keep] - X[keep], p) for S in saved])
        units = (_power(G, q**d - 1, p)[:, :, 0] == np.eye(X.shape[-1])[0]).all(axis=1)
        keep[keep] = units.reshape(len(saved), -1).all(axis=0)
    return keep


def _companion(codes: np.ndarray, field: FieldSpec) -> np.ndarray:
    """X, the F_p matrix of multiplication by x on field[x]/(f), per row of codes.

    Row k of codes holds the codes of f_0 .. f_(d-1) of a monic f.  X has
    shape (K, D, D), D = r * d, and float64 entries in [0, p), exact
    while r * p**2 < 2**50.
    """
    p, r = field.p, field.r
    K, d = codes.shape
    D = r * d
    T = structure_constants(field).astype(np.float64)
    M = mul_by_matrices(code_digits(field, codes).reshape(-1, r).astype(np.float64), T)
    X = np.zeros((K, D, D))
    X[:, np.arange(r, D), np.arange(D - r)] = 1  # x * x**i = x**(i+1) for i < d - 1
    X[:, :, D - r :] = _mod(-M, p).reshape(K, D, r)  # x**d = -(f_0 + .. + f_{d-1} x**(d-1))
    return X


def check_power_bound(D: int, p: int):
    """Refuse D x D matrix powers mod p whose float64 products could pass 2**50.

    Every caller of _power checks this before it allocates anything.
    """
    if D * p * p >= 1 << 50:
        raise BudgetExceededError(f"{D} x {D} matrix powers mod {p}: entries would pass 2**50")


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for float64 integers with |x| < 2**50, where (x + 1/2) / p
    lies 1 / (2p) or more from every integer; x % p on floats is slower."""
    y = x + 0.5
    y *= 1 / p
    np.floor(y, out=y)
    y *= -p
    y += x
    return y


def _power(A: np.ndarray, e: int, p: int) -> np.ndarray:
    """A**e mod p for each D x D matrix of the stack A, entries in [0, p), e >= 1.

    Square and multiply; a product is reduced only when the next one could
    reach 2**50, its entries being at most D times the two factors' bounds.
    """
    D, top = A.shape[-1], p - 1
    out, bound = A, top
    for bit in bin(e)[3:]:  # the bits after the leading 1
        if D * bound * bound >= 1 << 50:
            out, bound = _mod(out, p), top
        out, bound = out @ out, D * bound * bound
        if bit == "1":
            if D * bound * top >= 1 << 50:
                out, bound = _mod(out, p), top
            out, bound = out @ A, D * bound * top
    return _mod(out, p)


def poly_trace(field, f):
    """For monic f = prod(x - roots), the sum of the roots."""
    f = tuple(f)
    if f[-1] != field.one:
        raise NonMonicError("trace is defined for monic polynomials")
    d = len(f) - 1
    if d < 1:
        raise ValueError("degree must be at least 1")
    return field.neg(f[d - 1])


def poly_rtrace(field, f):
    """For monic f with nonzero constant term, the sum of inverse roots."""
    f = tuple(f)
    if f[-1] != field.one:
        raise NonMonicError("reciprocal trace is defined for monic polynomials")
    d = len(f) - 1
    if d < 1:
        raise ValueError("degree must be at least 1")
    if field.is_zero(f[0]):
        raise ZeroDivisionError("reciprocal trace needs a nonzero constant term")
    # With f = x^d - c_{d-1} x^{d-1} + ... + (-1)^{d-1} c_1 x + (-1)^d c_0,
    # the value is c_1 / c_0.
    c0 = f[0] if d % 2 == 0 else field.neg(f[0])
    if d == 1:
        c1 = field.one
    else:
        c1 = f[1] if d % 2 == 1 else field.neg(f[1])
    return field.mul(c1, field.inv(c0))


# ---------------------------------------------------------------------------
# Canonical field and tower construction


@lru_cache(maxsize=None)
def make_field(p: int, r: int) -> FieldSpec:
    """F_{p^r} with the lexicographically smallest monic irreducible modulus.

    Coefficient tuples are compared constant term first.  The counts this
    package produces are isomorphism invariants, so the particular modulus
    never matters for results; pinning it keeps element enumeration order
    and intermediate artifacts reproducible.  For r >= 2 the field is an
    extension of F_p, its modulus found by the same scan as a tower's.
    """
    if r < 1:
        raise ValueError("extension degree must be positive")
    field = PrimeField(p)
    if r > 1:
        field = ExtensionField._scanned(field, r, next(_tower_modulus_scan(field, r)))
    return field


def _tower_modulus_scan(base: FieldSpec, n: int, after=None) -> Iterator[tuple]:
    return irreducibles(base, n, unit={0}, after=after)  # a zero constant term means the root 0


@lru_cache(maxsize=None)
def make_tower(base: FieldSpec, n: int) -> ExtensionField:
    """F_{q^n} over the base, with the lex-smallest irreducible modulus."""
    if n < 1:
        raise ValueError("tower degree must be positive")
    if n == 1:
        return ExtensionField(base, 1, (base.zero, base.one))
    return ExtensionField._scanned(base, n, next(_tower_modulus_scan(base, n)))


@lru_cache(maxsize=None)
def make_tower_alt(base: FieldSpec, n: int) -> ExtensionField:
    """Same field, next modulus in the canonical scan.

    Used to confirm that enumerated counts do not depend on the modulus
    choice; only defined for n >= 2 (degree 1 has a single placeholder).
    The scan resumes past make_tower's modulus.
    """
    if n < 2:
        raise ValueError("no alternative modulus below degree 2")
    scan = _tower_modulus_scan(base, n, after=make_tower(base, n).modulus)
    try:
        return ExtensionField._scanned(base, n, next(scan))
    except StopIteration:
        raise ValueError(
            f"degree {n} over F_{base.order} has a single irreducible"
        ) from None
