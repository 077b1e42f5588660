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

power_sum(n) takes one of two routes.  The sequential route extends the
cached sums S_1, S_2, ... one step at a time up to S_n and checks every
sum it appends against the Weil bound S_k**2 <= 4 g**2 q**k; extend_to(n)
takes it however far n lies, and CountEngine.table walks each class that
way to its last row before the first, so no row of a sweep jumps.  When n
lies more than JUMP_MARGIN beyond the cache, power_sum(n) jumps: it
computes x**n mod P(x), with
P(x) = x**(2g) + c_1 x**(2g-1) + ... + c_{2g}, by square-and-multiply and
reads S_n = sum(r_j * S_j, j < 2g) off its coefficients r_j, with
S_0 = 2g (Fiduccia, SIAM J. Comput. 14, 1985): O(log n) polynomial steps
instead of n recurrence steps.  The jump computes no intermediate sum, so
it checks none; it checks S_n itself against the same bound, and its base
sums S_1..S_{2g-1} come from the checked sequential route.  Each S_n a
jump returns is kept in a dict by n, so asking the same far n again reads
it; a caller stepping through far n one at a time by power_sum (or by
f_count and i_count) pays one jump per n, where extend_to walks once.

The power sums are cached per instance and extended under a per-instance
lock, so one LPolynomial (and an engine holding it) can be queried from
several threads at once; reads of sums already computed take no lock.  A
jump neither appends to the cache nor takes the lock, so the cache stays
the contiguous run S_1..S_k; threads that jump to the same n at once
each compute it and store the same value.
"""

from __future__ import annotations

import threading
from operator import mul

from .errors import HasseWeilError, NegativeCountError, NonIntegralError

# A request more than this many sums beyond the cache jumps; a closer one
# extends the cache.  Measured as the best of 7 runs on a 2-core x86 host
# (CPython 3.11), extending a cache of L sums by m against one jump to
# L + m, for L in {8, 100, 1000}: at genus 1 and 2 (q = 4, 9, 27) the jump
# wins from m = 32 and is 2-4x faster at m = 64; at genus 4 and 6
# (q = 25, 7) the two are about even at m = 64 and the jump wins from
# m = 128.
JUMP_MARGIN = 64


def _breaks_weil(t: int, bound: int) -> bool:
    """t**2 > bound; t is squared only when its bit length allows it."""
    return 2 * t.bit_length() >= bound.bit_length() and t * t > bound


class LPolynomial:
    """Integer coefficient vector c_0..c_{2g} with base field size q."""

    __slots__ = ("q", "g", "coeffs", "_sums", "_jumps", "_lock")

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

        Newton's identity below 2g, the linear recurrence above; the bound
        4 g**2 q**k is kept running, one multiplication by q per step.  On
        a 2-core x86 host (CPython 3.11) that walks S_1..S_3000 of every
        class at q = 9 in about 50-75 ms, against 130-200 ms with q**k
        recomputed at each step.
        """
        cs, g, q = self.coeffs, self.g, self.q
        rcs = cs[:0:-1]  # c_2g, ..., c_1 against S_{k-2g}, ..., S_{k-1}
        bound = 4 * g * g * q ** len(sums)
        while len(sums) < n:
            k = len(sums) + 1
            bound *= q
            if k <= 2 * g:
                t = -k * cs[k]
                t -= sum(sums[m - 1] * cs[k - m] for m in range(1, k))
            else:
                t = -sum(map(mul, rcs, sums[-2 * g :]))
            if _breaks_weil(t, bound):
                raise HasseWeilError(f"power sum S_{k} = {t} violates the Weil bound")
            sums.append(t)

    def _jump(self, n: int) -> int:
        """S_n from x**n mod P(x); appends nothing to the cache."""
        g, q, cs = self.g, self.q, self.coeffs
        d = 2 * g
        base = self._sums[:d]  # a copy: S_1..S_{2g-1} (and S_2g) as cached
        if len(base) < d - 1:
            self._extend(base, d - 1)

        def reduced(a: list) -> list:
            """a mod P, low degree first, by x**d = -(c_1 x**(d-1) + ... + c_d)."""
            for k in range(len(a) - 1, d - 1, -1):
                if top := a[k]:
                    for i in range(1, d + 1):
                        a[k - i] -= top * cs[i]
            return a[:d]

        r = [1] + [0] * (d - 1)  # x**e mod P for e = the leading bits of n
        for bit in bin(n)[2:]:
            sq = [0] * (2 * d - 1)
            for i, a in enumerate(r):
                if a:
                    sq[2 * i] += a * a
                    a2 = 2 * a
                    for j in range(i + 1, d):
                        sq[i + j] += a2 * r[j]
            r = reduced(sq)
            if bit == "1":  # multiply by x: a shift and one reduction
                r = reduced([0] + r)
        t = d * r[0] + sum(map(mul, r[1:], base))
        if _breaks_weil(t, 4 * g * g * q**n):
            raise HasseWeilError(f"power sum S_{n} = {t} violates the Weil bound")
        return t

    def predict_count(self, n: int) -> int:
        """#C(F_{q^n}) = q**n + 1 - S_n."""
        count = self.q**n + 1 - self.power_sum(n)
        if count < 0:
            raise NegativeCountError(f"predicted count {count} at n={n}")
        return count
