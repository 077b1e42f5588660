"""Vectorised whole-field enumeration tables.

A FieldTable walks the multiplicative group of one tower field F_{q^n} in
generator order and exposes the walk as numpy arrays: entry k is the
positional base-p code of gamma**k.  Linear data (traces, multiplication by
a fixed constant) is then evaluated as F_p-linear maps on those codes, and
inverses come for free because (gamma**k)**-1 = gamma**(N-k).

Every F_p-linear map acts on integer codes by split-digit lookup, and no
code is ever decoded digit by digit.  Splitting a code as
lo + p**h * hi with h = d // 2, a map A satisfies A(code) = A(lo) + A(hi),
so one table of p**h + p**(d-h) entries (the images of every low part,
then of every high part) holds every image.  Entries are digit-packed
int64 words, digit j in bits [w*j, w*j + w).  For odd p, 2**(w-1) >= p,
so one gather-add sums two images digitwise with no carry between
digits, and a handful of whole-word operations reduce every digit mod p
at once.  For p = 2 a digit is one bit and digits add by XOR, so the
packed word of an image is its code: the split is a mask and a shift,
the sum is one XOR, and nothing is reduced or unpacked.

The walk itself is such a map, applied by doubling: enc[L:2L] is the image
of enc[0:L] under x -> gamma**L * x, and the table of gamma**(2L) is the
table of gamma**L with every entry mapped once more by itself.  One walk
routine serves two lengths:

* the full walk exp_enc, all N units, built on first read and checked to
  be a bijection onto the units; the oracles' enumerations read it;
* the class walk, gamma**k for k < M = N / (q - 1).  gamma**M lies in
  F_q*, so the class walk holds one point of every F_q*-coset of the
  units.  It has its own exact check, equivalent to the full walk's.

The trace-pair histogram (how often the trace of a unit and the trace of
its inverse take each pair of base-field values) needs only the class
walk: the trace is F_q-linear, so scaling x by lam in F_q* moves its pair
(a, b) to (lam * a, lam**-1 * b).  The curve counts read nothing else, so
no engine build walks more than (q**n - 1) / (q - 1) units of a tower.
base_tables holds the arithmetic of F_q itself, by element code, for that
expansion and for the curve counts.

Multiplication comes from the modulus: gf.structure_constants builds the
F_p matrices of multiplication by each basis element from the matrix of
multiplication by x, and the walk's step (the matrix of gamma) and the
generator search (the matrices of the candidates, raised to N / l) read
them.  Two checks stay on gf's definitional arithmetic, so every build
still holds the matrices against gf.mul: the trace is the literal sum of
the Frobenius conjugates, composed as linear maps (with Phi the matrix of
gf's Frobenius x -> x**q, the trace rows are those of sum_{j<n} Phi**j),
and lam0 = gamma**M of the class walk is gf's power, which the class-walk
check holds against the walk's next step.  No closed-form formula under
test enters any table.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from . import gf
from .errors import BudgetExceededError, InvariantError
from .gf import (
    ExtensionField,
    FieldSpec,
    code_digits,
    digit_table,
    linear_map_matrix,
    make_field,
    mul_by_matrices,
    structure_constants,
)
from .numtheory import prime_factors

_CHUNK = 1 << 18
_FIRST_CANDIDATES = 4  # the generator search's first block; generators are common
_WORD_BITS = 63  # packed words are non-negative int64


def digit_width(p: int, d: int) -> int:
    """Bits per digit in a word that packs d digits mod p.

    For odd p, the least w with 2**(w-1) >= p: the sum of two digits then
    stays below 2**w, so packed words add digitwise with no carry between
    digits.  For p = 2, one bit: digits add by XOR, so no carry can arise,
    and the packed word of a code is the code itself.  Raises
    BudgetExceededError when the d digits need more than 63 bits.
    """
    w = 1 if p == 2 else (p - 1).bit_length() + 1
    if d * w > _WORD_BITS:
        raise BudgetExceededError(
            f"{d} digits mod {p} need {d * w} bits; packed words hold {_WORD_BITS}"
        )
    return w


def _repeat(word: int, step: int, count: int) -> int:
    """word, word << step, ..., word << (step * (count - 1)), summed."""
    return word * (((1 << (step * count)) - 1) // ((1 << step) - 1))


def multiplicative_generator(tower: ExtensionField):
    """First element in canonical order that generates the unit group.

    a generates iff a**(N / l) != 1 for every prime l | N.  Candidates are
    tested by code in blocks, each twice the last: M_a, the matrix of
    b -> a * b from the structure constants, is raised to N / l by gf's
    square-and-multiply, and a is rejected when the power maps 1 to 1.
    Each prime is tried only on the candidates that passed the ones before.
    """
    N = tower.order - 1
    if N == 1:
        return tower.one
    p, D = tower.p, tower.flat_degree
    gf.check_power_bound(D, p)
    T = structure_constants(tower).astype(np.float64)
    exponents = [N // ell for ell in prime_factors(N)]
    one = np.eye(D)[0]  # the digits of 1
    start, rows = 1, _FIRST_CANDIDATES
    while start <= N:
        codes = np.arange(start, min(start + rows, N + 1), dtype=np.int64)
        M = gf._mod(mul_by_matrices(code_digits(tower, codes).astype(np.float64), T), p)
        for e in exponents:
            fixed = (gf._power(M, e, p)[:, :, 0] == one).all(axis=1)
            codes, M = codes[~fixed], M[~fixed]
        if codes.size:
            return tower.from_code(int(codes[0]))
        start += rows
        rows = min(2 * rows, max(1, gf._CELLS // (D * D)))
    raise InvariantError("unit group has no generator; field data corrupt")


@lru_cache(maxsize=8)
def base_tables(field: FieldSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only code tables (mul, inv, trace) of the field F_q.

    mul[a, b] is the code of a * b, inv[a] that of 1 / a (inv[0] = 0), and
    trace[a] is Tr_{F_q/F_p}(a), all indexed by element code.  Multiplying
    by a is the F_p-linear map sum_j a_j T_j, with T_j the matrix of
    b -> e_j * b, and the trace is the F_p-linear functional of gf's
    trace_to_prime.
    """
    p, r, q = field.p, field.r, field.order
    digits = digit_table(field)
    weights = p ** np.arange(r, dtype=np.int64)
    by = mul_by_matrices(digits, structure_constants(field)) % p  # the matrix of b -> a * b
    mul = np.empty((q, q), dtype=np.min_scalar_type(q - 1))
    rows = max(1, (1 << 16) // (q * r))  # bounds the (rows, r, q) products
    for s in range(0, q, rows):
        mul[s : s + rows] = weights @ (by[s : s + rows] @ digits.T % p)
    inv = np.zeros(q, dtype=mul.dtype)
    a, b = np.nonzero(mul == 1)  # 1 is the code of one
    inv[a] = b
    trace = digits @ linear_map_matrix(field, make_field(p, 1), field.trace_to_prime)[0] % p
    for table in (mul, inv, trace):
        table.flags.writeable = False
    return mul, inv, trace


class FieldTable:
    """Enumeration tables for F_{q^n}, indexed by exponent of a generator.

    Nothing is walked at construction.  exp_enc, the full walk, is built on
    first read; the trace-pair histogram walks only its first M entries.
    """

    def __init__(self, tower: ExtensionField):
        self.tower = tower
        self.p = tower.base.p
        self.d = tower.flat_degree
        self.w = digit_width(self.p, self.d)  # refuse before allocating anything
        self.N = tower.order - 1
        self.M = self.N // (tower.q - 1)  # one walk entry per F_q*-coset of the units

    # -- construction --------------------------------------------------------

    @cached_property
    def _generator(self):
        return multiplicative_generator(self.tower)

    @cached_property
    def _step(self) -> np.ndarray:
        """Packed table of the walk's step x -> gamma * x."""
        return self._packed_table(gf.mul_matrix(self.tower, self._generator))

    @cached_property
    def exp_enc(self) -> np.ndarray:
        """Codes of gamma**k for k < N, walked and checked on first read.

        The assignment of the finished array is the only write, so two
        threads reading it first build equal arrays and either may stay.
        """
        enc = self._walk(self.N)
        # N walk entries covering all N nonzero codes are a bijection
        seen = np.zeros(self.tower.order, dtype=bool)
        seen[enc] = True
        if seen[0] or not seen[1:].all():
            raise InvariantError("generator walk did not cover the unit group")
        return enc

    def _walk(self, length: int) -> np.ndarray:
        """gamma**k for k < length, by doubling.

        enc[L:2L] is the image of enc[0:L] under x -> g**L * x, and the
        table of x -> g**(2L) * x is that of x -> g**L * x with every entry
        mapped once more by the same table.
        """
        d, table = self.d, self._step
        enc = np.empty(length, dtype=np.int64)
        enc[0] = self.tower.code(self.tower.one)
        L = 1
        while L < length:
            todo = min(L, length - L)
            for s in range(0, todo, _CHUNK):
                e = min(s + _CHUNK, todo)
                enc[L + s : L + e] = self._unpack_codes(self._packed_image(table, enc[s:e]), d)
            L *= 2
            if L < length:
                table = self._packed_image(table, self._unpack_codes(table.copy(), d))
        return enc

    def _class_walk(self):
        """(gamma**k for k < M, lam0 = gamma**M), checked by _check_class_walk.

        The prefix of the full walk when that was ever read, else walked.
        """
        full = self.__dict__.get("exp_enc")
        enc = self._walk(self.M) if full is None else full[: self.M]
        lam0 = self.tower.pow_(self._generator, self.M)
        self._check_class_walk(enc, lam0)
        return enc, lam0

    def _check_class_walk(self, enc: np.ndarray, lam0):
        """Raise unless the F_q*-multiples of enc cover every unit exactly once.

        enc holds the codes of gamma**k for k < M.  The multiples cover
        every unit once exactly when two things hold.  First, enc meets M
        distinct F_q*-cosets, which are all of them: scaled by the inverse
        of its leading F_q-coordinate, every code becomes a distinct nonzero
        code.  Second, the walk's step maps the last entry to lam0 =
        gamma**M, which lies in F_q* and has order q - 1, so
        gamma**(jM + k) = lam0**j * gamma**k runs through each coset.
        """
        tower, q, n, M = self.tower, self.tower.q, self.tower.n, self.M
        mul, inv, _ = base_tables(tower.base)
        # a code is k parts of h F_q-coordinates, the widest h whose table
        # scaled has no more cells than the walk has entries (or than F_q has
        # products), so the table never outgrows the walk it checks
        h = next(h for h in range(-(-n // 2), 0, -1) if q ** (h + 1) <= max(M, q * q))
        k, split = -(-n // h), q**h  # every part lies below split
        part = np.arange(split, dtype=np.int64)[:, None] // q ** np.arange(h) % q
        lead = np.zeros(split, dtype=np.int64)  # highest nonzero F_q-coordinate
        for j in range(h):
            lead = np.where(part[:, j] != 0, part[:, j], lead)
        scaled = mul[:, part] @ q ** np.arange(h)  # scaled[c, v]: code of c * v
        seen = np.zeros(tower.order, dtype=bool)
        for s in range(0, M, _CHUNK // 4):
            parts, rest = [], enc[s : s + _CHUNK // 4]
            for _ in range(k):  # lowest part first
                rest, v = np.divmod(rest, split)
                parts.append(v)
            c = lead[parts[0]]
            for v in parts[1:]:
                c = np.where(v != 0, lead[v], c)
            c = inv[c]
            codes = scaled[c, parts[-1]]
            for v in parts[-2::-1]:
                codes *= split
                codes += scaled[c, v]
            seen[codes] = True
        if seen[0] or np.count_nonzero(seen) != M:
            raise InvariantError("class walk does not meet every F_q*-coset once")
        last = self._unpack_codes(self._packed_image(self._step, enc[-1:]), self.d)
        base, code = tower.base, tower.code(lam0)
        if not (0 < code < q and code == last[0]):
            raise InvariantError("gamma**M is not the walk's next step in F_q*")
        if any(base.pow_(lam0[0], (q - 1) // ell) == base.one for ell in prime_factors(q - 1)):
            raise InvariantError("gamma**M does not generate F_q*")

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

        For p = 2 the two table entries add by XOR.  For odd p their
        digitwise sum has digits below 2p.  Adding 2**(w-1) - p to every
        digit sets bit w-1 exactly in the digits that reached p, so one
        subtraction reduces them all mod p.
        """
        p, w, h = self.p, self.w, self.d // 2
        if p == 2:
            words = table[codes & ((1 << h) - 1)]
            words ^= table[(codes >> h) + (1 << h)]
            return words
        ones = _repeat(1, w, _WORD_BITS // w)
        split = p**h
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

    def _codes_of(self, table: np.ndarray, k: int, enc: np.ndarray) -> np.ndarray:
        """Base-p codes of the images of the element codes enc under the
        k-digit map whose packed table is given, in the smallest unsigned
        dtype that holds p**k - 1."""
        codes = np.empty(enc.size, dtype=np.min_scalar_type(self.p**k - 1))
        for s in range(0, enc.size, _CHUNK):
            words = self._packed_image(table, enc[s : s + _CHUNK])
            codes[s : s + words.size] = self._unpack_codes(words, k)
        return codes

    def _unpack_codes(self, words: np.ndarray, k: int) -> np.ndarray:
        """Base-p codes of packed words of k digits; overwrites words.

        For p = 2 a packed word is its code and is returned as it is.
        Otherwise Horner's rule in log2(k) rounds: each round joins
        neighbouring fields, lo + p**m * hi for fields of m digits, into
        fields of twice the width.  A field of 2m digits holds a value
        below p**(2m), which fits its 2m*w bits because p <= 2**(w-1).
        """
        p, width, m = self.p, self.w, 1
        if p == 2:
            return words
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
        holds, per exponent, the base-p code of the k values (row j gives
        digit j), in the smallest unsigned dtype that holds p**k - 1.
        """
        return self._codes_of(self._packed_table(rows), len(rows), self.exp_enc)

    @staticmethod
    def reversed_exp(arr: np.ndarray) -> np.ndarray:
        """Reindex k -> (N - k) mod N, i.e. the values on inverses."""
        return np.concatenate([arr[:1], arr[:0:-1]])

    # -- traces ---------------------------------------------------------------

    def trace_rows(self) -> np.ndarray:
        """Digit-space functionals giving the base-field digits of the trace.

        The trace x + x**q + ... + x**(q**(n-1)) is the map sum_{j<n} Phi**j,
        Phi the matrix of gf's Frobenius, summed by n - 1 products of d x d
        int64 matrices; every entry stays below d * p**2 < 2**63.  Its
        first r rows are the base-field digits; the rest must vanish, as
        in gf's trace_to_base.  Built once per table; read-only.
        """
        return self._trace_rows

    @cached_property
    def _trace_rows(self) -> np.ndarray:
        tower, p, d = self.tower, self.p, self.d
        total = np.eye(d, dtype=np.int64)
        if tower.n > 1:
            phi = linear_map_matrix(tower, tower, tower.frobenius)
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

    @cached_property
    def _trace_table(self) -> np.ndarray:
        return self._packed_table(self.trace_rows())

    def trace_codes_exp(self) -> np.ndarray:
        """Positional code of Tr(gamma**k) in the base field, per k < N."""
        return self._trace_codes

    @cached_property
    def _trace_codes(self) -> np.ndarray:
        return self._codes_of(self._trace_table, self.tower.base.r, self.exp_enc)

    def trace_pair_histogram(self) -> np.ndarray:
        """H[a, b] = #{k : Tr(gamma**k) has code a, Tr(gamma**-k) has code b}.

        A q x q int64 array over base-field codes, summing to N, read off the
        class walk t_k = Tr(gamma**k), k < M.  For 0 < k < M,
        gamma**-k = lam0**-1 * gamma**(M-k), so the pairs of the walk are
        h(t_k, lam0**-1 * t_(M-k)), taken in chunks with the partners a
        reversed slice.  The trace is F_q-linear, so the unit lam * gamma**k
        has the pair (lam * a, lam**-1 * b): H adds h(a, b) at
        (lam * a, lam**-1 * b) for every lam in F_q*.
        """
        return self._trace_pairs

    @cached_property
    def _trace_pairs(self) -> np.ndarray:
        q, M = self.tower.q, self.M
        enc, lam0 = self._class_walk()
        mul, inv, _ = base_tables(self.tower.base)
        t = self._codes_of(self._trace_table, self.tower.base.r, enc)
        back = mul[inv[self.tower.code(lam0)]]  # b -> lam0**-1 * b, by code
        h = np.zeros(q * q, dtype=np.int64)
        h[int(t[0]) * (q + 1)] += 1  # k = 0: gamma**0 = 1 is its own inverse
        for s in range(1, M, _CHUNK):
            e = min(s + _CHUNK, M)
            keys = t[s:e].astype(np.int64) * q
            keys += back[t[M - e + 1 : M - s + 1][::-1]]
            h += np.bincount(keys, minlength=q * q)
        cells = np.flatnonzero(h)
        a, b = np.divmod(cells, q)
        lam = np.arange(1, q)[:, None]
        hist = np.zeros((q, q), dtype=np.int64)
        np.add.at(hist, (mul[lam, a], mul[inv[lam], b]), h[cells])
        return hist

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


@lru_cache(maxsize=8)
def table_for(tower: ExtensionField) -> FieldTable:
    """Shared per-tower table cache; entries are immutable once built.

    Eight entries hold, through oracle.verify_all up to n_max = 4, the
    engine's towers (up to genus + 2 = 6 at p = 5) and the alternative
    towers the loop adds, so no tower is walked twice.
    """
    return FieldTable(tower)
