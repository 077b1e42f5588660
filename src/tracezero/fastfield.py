"""Vectorised whole-field enumeration tables.

A FieldTable walks the multiplicative group of one tower field in generator
order and exposes the walk as numpy arrays: entry k is gamma**k.  Linear
data (traces, multiplication by a fixed constant) is then evaluated as
F_p-linear functionals on the flat digit vectors, and inverses come for
free because (gamma**k)**-1 = gamma**(N-k).

Functionals never decode an encoding digit by digit.  Splitting the
positional code as enc = lo + p**h * hi with h = d // 2, a functional L
satisfies L(enc) = L_lo(lo) + L_hi(hi) mod p, so two lookup tables of
p**h and p**(d-h) entries turn every evaluation into two gathers and an
addition.  The trace-pair histogram (how often the trace of gamma**k and
the trace of its inverse take each pair of base-field values) is built
once per table from compact trace codes, chunk by chunk.

Every matrix and functional is built from gf's definitional arithmetic
(traces are literal sums of Frobenius conjugates); numpy only accelerates
the bookkeeping.  No closed-form formula under test enters any table.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .errors import InvariantError
from .gf import TowerSpec, linear_map_matrix
from .numtheory import prime_factors

_BLOCK = 1 << 12
_CHUNK = 1 << 18


def multiplicative_generator(tower: TowerSpec):
    """First element in canonical order that generates the unit group."""
    N = tower.order - 1
    one = tower.one
    if N == 1:
        return one
    prims = prime_factors(N)
    for a in tower.elements():
        if tower.is_zero(a):
            continue
        if all(tower.pow_(a, N // ell) != one for ell in prims):
            return a
    raise InvariantError("unit group has no generator; field data corrupt")


def _mat_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(m.shape[0], dtype=np.int64)
    base = m % p
    while e:
        if e & 1:
            out = (out @ base) % p
        base = (base @ base) % p
        e >>= 1
    return out


class FieldTable:
    """Enumeration tables for F_{q^n}, indexed by exponent of a generator."""

    def __init__(self, tower: TowerSpec):
        self.tower = tower
        self.p = tower.base.p
        self.d = tower.flat_degree
        self.N = tower.order - 1
        self._pow_p = self.p ** np.arange(self.d, dtype=np.int64)
        self.exp_enc = self._walk()
        self._check_bijection()
        self._trace_codes = None
        self._trace_pairs = None

    # -- construction --------------------------------------------------------

    def _walk(self) -> np.ndarray:
        tower, p, d, N = self.tower, self.p, self.d, self.N
        g = multiplicative_generator(tower)
        M = linear_map_matrix(tower, tower, partial(tower.mul, g))  # x -> g*x
        B = min(_BLOCK, N)
        block = np.zeros((B, d), dtype=np.int64)
        block[0] = tower.flat_digits(tower.one)
        for k in range(1, B):
            block[k] = (M @ block[k - 1]) % p
        enc = np.empty(N, dtype=np.int64)
        step = _mat_pow(M, B, p).T.astype(np.float64)
        done = 0
        cur = block
        while True:
            take = min(B, N - done)
            enc[done : done + take] = cur[:take] @ self._pow_p
            done += take
            if done == N:
                return enc
            # float64 BLAS keeps this exact: entries stay below d * p**2 << 2**53
            cur = np.rint(cur.astype(np.float64) @ step).astype(np.int64) % p

    def _check_bijection(self):
        # N walk entries covering all N nonzero codes are a bijection
        seen = np.zeros(self.tower.order, dtype=bool)
        seen[self.exp_enc] = True
        if seen[0] or not seen[1:].all():
            raise InvariantError("generator walk did not cover the unit group")

    # -- generic access -------------------------------------------------------

    def decode_digits(self, encs: np.ndarray, d: int | None = None) -> np.ndarray:
        """The first d (default all) base-p digits of each encoding."""
        d = self.d if d is None else d
        out = np.empty((encs.size, d), dtype=np.int64)
        t = encs.copy()
        for j in range(d):
            out[:, j] = t % self.p
            t //= self.p
        return out

    def _split_tables(self, rows) -> tuple[int, np.ndarray, np.ndarray]:
        """(p**h, T_lo, T_hi): the functionals on the low h and high d-h digits."""
        p, d = self.p, self.d
        L = np.asarray(rows, dtype=np.int64).T  # (d, k)
        h = d // 2
        lo = self.decode_digits(np.arange(p**h), h) @ L[:h]
        hi = self.decode_digits(np.arange(p ** (d - h)), d - h) @ L[h:]
        # the narrowest dtype that holds a sum of two values keeps gathers cheap
        small = np.min_scalar_type(2 * (p - 1))
        return p**h, (lo % p).astype(small), (hi % p).astype(small)

    def _functional_chunks(self, rows):
        """Yield (start, values mod p) over the walk, one chunk at a time."""
        split, lo_tab, hi_tab = self._split_tables(rows)
        for s in range(0, self.N, _CHUNK):
            hi, lo = np.divmod(self.exp_enc[s : s + _CHUNK], split)
            yield s, (lo_tab[lo] + hi_tab[hi]) % self.p

    def functionals_exp(self, rows) -> np.ndarray:
        """Evaluate F_p-linear functionals on gamma**k for every k.

        rows is a (k, d) array-like of digit-space functionals; the result
        is an (N, k) int16 array of values mod p, indexed by exponent.
        """
        out = np.empty((self.N, len(rows)), dtype=np.int16)
        for s, vals in self._functional_chunks(rows):
            out[s : s + vals.shape[0]] = vals
        return out

    @staticmethod
    def reversed_exp(arr: np.ndarray) -> np.ndarray:
        """Reindex k -> (N - k) mod N, i.e. the values on inverses."""
        return np.concatenate([arr[:1], arr[:0:-1]])

    # -- traces ---------------------------------------------------------------

    def trace_rows(self) -> np.ndarray:
        """Digit-space functionals giving the base-field digits of the trace."""
        return linear_map_matrix(self.tower, self.tower.base, self.tower.trace_to_base)

    def trace_codes_exp(self) -> np.ndarray:
        """Positional code of Tr(gamma**k) in the base field, per k.

        Stored in the smallest unsigned dtype that holds q - 1.
        """
        if self._trace_codes is None:
            codes = np.zeros(self.N, dtype=np.min_scalar_type(self.tower.q - 1))
            for s, vals in self._functional_chunks(self.trace_rows()):
                out = codes[s : s + vals.shape[0]]
                for j in range(vals.shape[1] - 1, -1, -1):  # Horner over the digits
                    out *= self.p
                    out += vals[:, j]
            self._trace_codes = codes
        return self._trace_codes

    def trace_pair_histogram(self) -> np.ndarray:
        """H[a, b] = #{k : Tr(gamma**k) has code a, Tr(gamma**-k) has code b}.

        A q x q int64 array over base-field codes, summing to N.  Built from
        the trace codes in chunks: the codes on inverses of a chunk are a
        reversed slice, so no full-length reversed or wide copy is made.
        """
        if self._trace_pairs is None:
            q, N = self.tower.q, self.N
            codes = self.trace_codes_exp()
            hist = np.zeros(q * q, dtype=np.int64)
            hist[int(codes[0]) * (q + 1)] += 1  # k = 0: gamma**0 = 1 is its own inverse
            for s in range(1, N, _CHUNK):
                e = min(s + _CHUNK, N)
                keys = codes[s:e].astype(np.int64) * q
                keys += codes[N - e + 1 : N - s + 1][::-1]
                hist += np.bincount(keys, minlength=q * q)
            self._trace_pairs = hist.reshape(q, q)
        return self._trace_pairs

    def trace_zero_exp(self) -> np.ndarray:
        return self.trace_codes_exp() == 0

    # -- subfields --------------------------------------------------------------

    def subfield_mask(self, e: int) -> np.ndarray:
        """Mask of exponents k with gamma**k in the subfield F_{q^e}."""
        if self.tower.n % e:
            raise ValueError(f"{e} does not divide the tower degree")
        sub_order = self.tower.q**e - 1
        step = self.N // sub_order
        mask = np.zeros(self.N, dtype=bool)
        mask[::step] = True
        return mask


@lru_cache(maxsize=6)
def table_for(tower: TowerSpec) -> FieldTable:
    """Shared per-tower table cache; entries are immutable once built."""
    return FieldTable(tower)
