"""Vectorised whole-field enumeration tables.

A FieldTable walks the multiplicative group of one tower field in generator
order and exposes the walk as numpy arrays: entry k is the positional
base-p code of gamma**k.  Linear data (traces, multiplication by a fixed
constant) is then evaluated as F_p-linear maps on those codes, and
inverses come for free because (gamma**k)**-1 = gamma**(N-k).

Every F_p-linear map acts on integer codes by split-digit lookup, and no
code is ever decoded digit by digit.  Splitting a code as
lo + p**h * hi with h = d // 2, a map A satisfies A(code) = A(lo) + A(hi),
so one table of p**h + p**(d-h) entries (the images of every low part,
then of every high part) holds every image.  Entries are digit-packed
int64 words (digit j in bits [w*j, w*j + w), 2**(w-1) >= p), so one
gather-add sums two images digitwise with no carry between digits, and a
handful of whole-word operations reduce every digit mod p at once.

The walk itself is such a map, applied by doubling: enc[L:2L] is the image
of enc[0:L] under x -> gamma**L * x, and the table of gamma**(2L) is the
table of gamma**L with every entry mapped once more by itself.  The trace
codes and the trace-pair histogram (how often the trace of gamma**k and the
trace of its inverse take each pair of base-field values) are built from
the same lookup, chunk by chunk.

Every matrix and functional is built from gf's definitional arithmetic
(traces are literal sums of Frobenius conjugates); numpy only accelerates
the bookkeeping.  No closed-form formula under test enters any table.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .errors import BudgetExceededError, InvariantError
from .gf import ExtensionField, linear_map_matrix
from .numtheory import prime_factors

_CHUNK = 1 << 18
_WORD_BITS = 63  # packed words are non-negative int64


def digit_width(p: int, d: int) -> int:
    """Bits per digit in a word that packs d digits mod p.

    The least w with 2**(w-1) >= p: the sum of two digits then stays below
    2**w, so packed words add digitwise with no carry between digits.
    Raises BudgetExceededError when the d digits need more than 63 bits.
    """
    w = (p - 1).bit_length() + 1
    if d * w > _WORD_BITS:
        raise BudgetExceededError(
            f"{d} digits mod {p} need {d * w} bits; packed words hold {_WORD_BITS}"
        )
    return w


def _repeat(word: int, step: int, count: int) -> int:
    """word, word << step, ..., word << (step * (count - 1)), summed."""
    return word * (((1 << (step * count)) - 1) // ((1 << step) - 1))


def multiplicative_generator(tower: ExtensionField):
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


class FieldTable:
    """Enumeration tables for F_{q^n}, indexed by exponent of a generator."""

    def __init__(self, tower: ExtensionField):
        self.tower = tower
        self.p = tower.base.p
        self.d = tower.flat_degree
        self.w = digit_width(self.p, self.d)  # refuse before allocating anything
        self.N = tower.order - 1
        self.exp_enc = self._walk()
        self._check_bijection()
        self._trace_codes = None
        self._trace_pairs = None

    # -- construction --------------------------------------------------------

    def _walk(self) -> np.ndarray:
        """exp_enc by doubling: enc[L:2L] is the image of enc[0:L] under x -> g**L * x.

        The table of x -> g**(2L) * x is that of x -> g**L * x with every
        entry mapped once more by the same table.
        """
        tower, N, d = self.tower, self.N, self.d
        g = multiplicative_generator(tower)
        table = self._packed_table(linear_map_matrix(tower, tower, partial(tower.mul, g)))
        enc = np.empty(N, dtype=np.int64)
        enc[0] = tower.code(tower.one)
        L = 1
        while L < N:
            todo = min(L, N - L)
            for s in range(0, todo, _CHUNK):
                e = min(s + _CHUNK, todo)
                enc[L + s : L + e] = self._unpack_codes(self._packed_image(table, enc[s:e]), d)
            L *= 2
            if L < N:
                table = self._packed_image(table, self._unpack_codes(table.copy(), d))
        return enc

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

    def _packed_table(self, matrix) -> np.ndarray:
        """Packed images of every low and every high part of a code.

        matrix is a (k, d) array-like over F_p acting on digit columns.
        Splitting a code as lo + p**h * hi with h = d // 2, entry lo holds
        the image of lo and entry p**h + hi the image of p**h * hi; digit j
        of an image sits in bits [w*j, w*j + w) of its word.
        """
        p, d, h = self.p, self.d, self.d // 2
        A = np.asarray(matrix, dtype=np.int64)
        places = np.left_shift(1, digit_width(p, len(A)) * np.arange(len(A), dtype=np.int64))

        def images(lo: int, hi: int) -> np.ndarray:
            digits = self.decode_digits(np.arange(p ** (hi - lo)), hi - lo)
            return (digits @ A[:, lo:hi].T) % p @ places

        return np.concatenate([images(0, h), images(h, d)])

    def _packed_image(self, table: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Packed images of codes under the map whose table is given.

        The digitwise sum of the two table entries has digits below 2p.
        Adding 2**(w-1) - p to every digit sets bit w-1 exactly in the
        digits that reached p, so one subtraction reduces them all mod p.
        """
        p, w = self.p, self.w
        ones = _repeat(1, w, _WORD_BITS // w)
        split = p ** (self.d // 2)
        hi, lo = np.divmod(codes, split)
        hi += split
        words = table[lo]
        words += table[hi]
        over = words + ((1 << (w - 1)) - p) * ones
        over &= (1 << (w - 1)) * ones
        over >>= w - 1
        over *= p
        words -= over
        return words

    def _unpack_codes(self, words: np.ndarray, k: int) -> np.ndarray:
        """Base-p codes of packed words of k digits; overwrites words.

        Horner's rule in log2(k) rounds: each round joins neighbouring
        fields, lo + p**m * hi for fields of m digits, into fields of twice
        the width.  A field of 2m digits holds a value below p**(2m), which
        fits its 2m*w bits because p <= 2**(w-1).
        """
        p, width, m = self.p, self.w, 1
        high = np.empty_like(words)
        while m < k:
            fields = _repeat((1 << width) - 1, 2 * width, -(-k // (2 * m)))
            np.right_shift(words, width, out=high)
            high &= fields
            high *= p**m
            words &= fields
            words += high
            width, m = 2 * width, 2 * m
        return words

    def functionals_exp(self, rows) -> np.ndarray:
        """Evaluate F_p-linear functionals on gamma**k for every k.

        rows is a (k, d) array-like of digit-space functionals; the result
        is an (N, k) int16 array of values mod p, indexed by exponent.
        """
        table = self._packed_table(rows)
        w, mask = self.w, (1 << self.w) - 1
        out = np.empty((self.N, len(rows)), dtype=np.int16)
        for s in range(0, self.N, _CHUNK):
            words = self._packed_image(table, self.exp_enc[s : s + _CHUNK])
            for j in range(len(rows)):
                out[s : s + words.size, j] = (words >> (w * j)) & mask
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
            table = self._packed_table(self.trace_rows())
            codes = np.empty(self.N, dtype=np.min_scalar_type(self.tower.q - 1))
            for s in range(0, self.N, _CHUNK):
                words = self._packed_image(table, self.exp_enc[s : s + _CHUNK])
                codes[s : s + words.size] = self._unpack_codes(words, self.tower.base.r)
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
def table_for(tower: ExtensionField) -> FieldTable:
    """Shared per-tower table cache; entries are immutable once built."""
    return FieldTable(tower)
