"""L-polynomials: build from the first g point counts, extend to every n.

For a smooth projective curve of genus g over F_q with counts
N_m = #C(F_{q^m}), put S_m = q**m + 1 - N_m (the m-th power sum of the
reciprocal zeta zeros).  The coefficients c_0..c_{2g} of the L-polynomial
satisfy Newton's identity k*c_k = -sum(S_m * c_{k-m}, m=1..k) together
with the functional equation c_{2g-i} = q**(g-i) * c_i, so g counts pin
down everything.  Conversely the S_n extend by the exact integer linear
recurrence sum(c_k * S_{n-k}, k=0..2g) = 0 for n > 2g, and
N_n = q**n + 1 - S_n.

The reciprocal zeros themselves are never materialised: all arithmetic is
integer and arbitrary precision, which is what makes counts at n in the
hundreds exact and cheap.

At every class of odd p, L = M**2 for an integer polynomial M of degree
g, because Kloosterman sums are real (Carlitz, Acta Arith. 16, 1969), so
S_n(L) = 2 S_n(M), and both routes below run over a square root found
exactly at construction: the sequential route over M, the jump over the
real Weil polynomial's.

power_sum(n) takes one of two routes.  The sequential route extends the
cached sums S_1, S_2, ... one step at a time up to S_n, by M's recurrence
of order g where L = M**2 and by L's of order 2g otherwise, and checks
every sum it appends against the Weil bound S_k**2 <= 4 g**2 q**k;
extend_to(n) takes it however far n lies, and CountEngine.table walks each
class that way to its last row before the first, so no row of a sweep
jumps.  When n lies more than JUMP_MARGIN beyond the cache, power_sum(n)
jumps by Lucas doubling on the real Weil polynomial h, L(T) = T**g *
h(qT + 1/T), whose roots are a_i = alpha_i + q/alpha_i: S_n =
sum(D_n(a_i)), with D_0 = 2, D_1 = u, D_2k = D_k**2 - 2 q**k and D_2k+1 =
D_k D_k+1 - u q**k, in O(log n) steps in Z[u]/(s); S_n is w times the
ring trace of D_n.  s is h's exact square root with w = 2 where h is a
square, as at every class of odd p, else s = h with w = 1; at p = 2 and 3
the ring is Z.  The jump reads no cached sum and checks only S_n.  Each
S_n it returns is kept in a dict by n and read back when asked again;
stepping through far n one by one by power_sum, f_count or i_count costs
a jump per n, where extend_to walks once.

The power sums are cached per instance and extended under a per-instance
lock, so one LPolynomial (and an engine holding it) can be queried from
several threads at once; reads of sums already computed take no lock.  A
jump neither appends to the cache nor takes the lock, so the cache stays
the contiguous run S_1..S_k; threads that jump to the same n at once
each compute it and store the same value.
"""

from __future__ import annotations

import threading
from math import comb
from operator import mul, sub

from .errors import HasseWeilError, NegativeCountError, NonIntegralError

# A request more than this many sums beyond the cache jumps; a closer one
# extends the cache.  Measured as the best of 7 runs on a 2-core x86 host
# (CPython 3.11), extending a cache of L sums by m against one jump to
# L + m, for L in {8, 100, 1000}, with both routes over L's square root at
# odd p: at genus 1 and 2 (q = 4, 9, 27; the ring is Z) the jump wins from
# m = 4 and is 3.6-10x faster at m = 16; at genus 4 and 6 (q = 25, 7;
# deg s = 2, 3) it is 1.9-3.5x slower at m = 16 and wins from m = 48-64.
# Engine rows n <= 12 and the self-check never jump.
JUMP_MARGIN = 16


def _breaks_weil(t: int, bound: int) -> bool:
    """t**2 > bound; t is squared only when its bit length allows it."""
    return 2 * t.bit_length() >= bound.bit_length() and t * t > bound


def _convolve(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class _Residue:
    """v mod the monic s = u**d + low, d >= 2, coefficients low first."""

    __slots__ = ("v", "low")

    def __init__(self, v: list, low: list):
        self.v, self.low = v, low

    def __mul__(self, other):
        if isinstance(other, int):
            return _Residue([c * other for c in self.v], self.low)
        prod, low = _convolve(self.v, other.v), self.low
        d = len(low)
        for k in range(len(prod) - 1, d - 1, -1):
            for j, c in enumerate(low):
                prod[k - d + j] -= prod[k] * c
        return _Residue(prod[:d], low)

    def __sub__(self, other):
        if isinstance(other, int):
            return _Residue([self.v[0] - other, *self.v[1:]], self.low)
        return _Residue(list(map(sub, self.v, other.v)), self.low)


def _square_root(a) -> tuple:
    """(s, 2) if a = s**2 for an integer polynomial s with s[0] = 1, else (a, 1).

    a[0] = 1; an a of even length is never a square (the lengths differ).
    """
    root = [1]
    for k in range(1, (len(a) - 1) // 2 + 1):
        root.append((a[k] - sum(root[i] * root[k - i] for i in range(1, k))) // 2)
    return (root, 2) if _convolve(root, root) == list(a) else (a, 1)


def _half_ring(q: int, g: int, coeffs: tuple) -> tuple:
    """(u mod s, w, p): the jump's ring; p_j are the power sums of s's roots.

    h is read off c_0..c_g, h_g first: h_k T**(g-k) (1 + qT**2)**k is the
    first term of L to reach T**(g-k).
    """
    c, h = list(coeffs[: g + 1]), []  # h = [h_g, ..., h_0], h_g = 1
    for k in range(g, -1, -1):
        h.append(hk := c[g - k])
        for i in range(1, k // 2 + 1):
            c[g - k + 2 * i] -= hk * comb(k, i) * q**i
    s, w = _square_root(h)
    d = len(s) - 1
    p = [d]
    for k in range(1, d):
        p.append(-k * s[k] - sum(s[i] * p[k - i] for i in range(1, k)))
    return (-s[1] if d == 1 else _Residue([0, 1] + [0] * (d - 2), s[:0:-1])), w, p


class LPolynomial:
    """Integer coefficient vector c_0..c_{2g} with base field size q."""

    __slots__ = ("q", "g", "coeffs", "_rec", "_half", "_sums", "_jumps", "_lock")

    def __init__(self, q: int, g: int, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if q < 2 or g < 1:
            raise ValueError("need a field size q >= 2 and genus g >= 1")
        if len(coeffs) != 2 * g + 1:
            raise ValueError("coefficient vector must have length 2g + 1")
        if coeffs[0] != 1:
            raise ValueError("c_0 must be 1")
        for i in range(g + 1):
            if coeffs[2 * g - i] != q ** (g - i) * coeffs[i]:
                raise ValueError("coefficients violate the functional equation")
        self.q = q
        self.g = g
        self.coeffs = coeffs
        self._rec = _square_root(coeffs)  # (M, 2) or (coeffs, 1); read by _extend only
        self._half = _half_ring(q, g, coeffs)  # read by _jump only
        self._sums: list[int] = []  # S_1, S_2, ... extended on demand
        self._jumps: dict[int, int] = {}  # S_n reached by a jump, by n
        self._lock = threading.Lock()

    def __repr__(self):
        return f"LPolynomial(q={self.q}, g={self.g}, coeffs={self.coeffs})"

    def __eq__(self, other):
        if not isinstance(other, LPolynomial):
            return NotImplemented
        return (self.q, self.g, self.coeffs) == (other.q, other.g, other.coeffs)

    def __hash__(self):
        return hash((self.q, self.g, self.coeffs))

    @classmethod
    def from_counts(cls, q: int, g: int, counts) -> "LPolynomial":
        """Build from N_1..N_g using Newton's identities.

        Raises HasseWeilError if a count is outside the Weil range and
        NonIntegralError if a Newton division is inexact; both can only
        come from inconsistent input counts.
        """
        counts = [int(N) for N in counts]
        if len(counts) != g:
            raise ValueError(f"need exactly {g} counts, got {len(counts)}")
        sums = []
        for m, N in enumerate(counts, start=1):
            if N < 0 or (N - q**m - 1) ** 2 > 4 * g * g * q**m:
                raise HasseWeilError(f"count {N} at m={m} violates the Weil bound")
            sums.append(q**m + 1 - N)
        cs = [1]
        for k in range(1, g + 1):
            t = sum(sums[m - 1] * cs[k - m] for m in range(1, k + 1))
            if t % k:
                raise NonIntegralError(f"Newton step {k} divided inexactly")
            cs.append(-t // k)
        for i in range(g - 1, -1, -1):
            cs.append(q ** (g - i) * cs[i])
        lp = cls(q, g, cs)
        lp._sums = sums
        return lp

    def power_sum(self, n: int) -> int:
        """S_n, exact; a jump far beyond the cached sums, else sequential."""
        if n < 1:
            raise ValueError("power sums are indexed from 1")
        sums = self._sums
        if n <= len(sums):
            return sums[n - 1]
        if n > len(sums) + JUMP_MARGIN:
            t = self._jumps.get(n)
            if t is None:
                t = self._jumps[n] = self._jump(n)
            return t
        self.extend_to(n)
        return sums[n - 1]

    def extend_to(self, n: int):
        """Cache S_1..S_n by the sequential route, however far n lies."""
        if n > len(self._sums):
            with self._lock:
                self._extend(self._sums, n)

    def _extend(self, sums: list, n: int):
        """Append S_{len+1}..S_n to sums, checking each against the Weil bound.

        The sums recur over a = M, of degree g, with weight w = 2 where
        L = M**2, else over a = L, of degree 2g, with w = 1: S_k(L) =
        w * S_k(a) obeys a's Newton identity, scaled by w, up to k = deg a
        and a's linear recurrence above.  The bound 4 g**2 q**k is kept
        running, one multiplication by q per step.  On a 2-core x86 host
        (CPython 3.11) that walks S_1..S_3000 of every class at q = 9 in
        about 35 ms (41 ms over L itself), against 110 ms with q**k
        recomputed at each step.
        """
        (a, w), g, q = self._rec, self.g, self.q
        e = len(a) - 1  # the recurrence's order
        ra = a[:0:-1]  # a_e, ..., a_1 against S_{k-e}, ..., S_{k-1}
        bound = 4 * g * g * q ** len(sums)
        while len(sums) < n:
            k = len(sums) + 1
            bound *= q
            if k <= e:
                t = -w * k * a[k]
                t -= sum(sums[m - 1] * a[k - m] for m in range(1, k))
            else:
                t = -sum(map(mul, ra, sums[-e:]))
            if _breaks_weil(t, bound):
                raise HasseWeilError(f"power sum S_{k} = {t} violates the Weil bound")
            sums.append(t)

    def _jump(self, n: int) -> int:
        """S_n by Lucas doubling in Z[u]/(s); appends nothing to the cache."""
        (u, w, p), q = self._half, self.q
        x, y, qk = u, u * u - 2 * q, q  # D_k, D_{k+1} and q**k, from k = 1
        for bit in bin(n)[3:]:
            xy = x * y - u * qk
            if bit == "1":
                x, y = xy, y * y - 2 * q * qk
                qk *= q * qk
            else:
                x, y = x * x - 2 * qk, xy
                qk *= qk
        t = w * (x if isinstance(x, int) else sum(map(mul, x.v, p)))
        if _breaks_weil(t, 4 * self.g * self.g * qk):
            raise HasseWeilError(f"power sum S_{n} = {t} violates the Weil bound")
        return t

    def predict_count(self, n: int) -> int:
        """#C(F_{q^n}) = q**n + 1 - S_n."""
        count = self.q**n + 1 - self.power_sum(n)
        if count < 0:
            raise NegativeCountError(f"predicted count {count} at n={n}")
        return count
