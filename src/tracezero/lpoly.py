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

The power sums are cached per instance and extended under a per-instance
lock, so one LPolynomial (and an engine holding it) can be queried from
several threads at once; reads of sums already computed take no lock.
"""

from __future__ import annotations

import threading
from operator import mul

from .errors import HasseWeilError, NegativeCountError, NonIntegralError


class LPolynomial:
    """Integer coefficient vector c_0..c_{2g} with base field size q."""

    __slots__ = ("q", "g", "coeffs", "_sums", "_lock")

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
        """S_n, exact; Newton below 2g, the linear recurrence above."""
        if n < 1:
            raise ValueError("power sums are indexed from 1")
        sums, cs, g, q = self._sums, self.coeffs, self.g, self.q
        if n <= len(sums):
            return sums[n - 1]
        rcs = cs[:0:-1]  # c_2g, ..., c_1 against S_{k-2g}, ..., S_{k-1}
        with self._lock:
            while len(sums) < n:
                k = len(sums) + 1
                if k <= 2 * g:
                    t = -k * cs[k]
                    t -= sum(sums[m - 1] * cs[k - m] for m in range(1, k))
                else:
                    t = -sum(map(mul, rcs, sums[-2 * g :]))
                if t * t > 4 * g * g * q**k:
                    raise HasseWeilError(f"power sum S_{k} = {t} violates the Weil bound")
                sums.append(t)
        return sums[n - 1]

    def predict_count(self, n: int) -> int:
        """#C(F_{q^n}) = q**n + 1 - S_n."""
        count = self.q**n + 1 - self.power_sum(n)
        if count < 0:
            raise NegativeCountError(f"predicted count {count} at n={n}")
        return count
