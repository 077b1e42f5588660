"""The closed-form counting engine.

f_count(n) is the number of elements of F_{q^n} whose trace and reciprocal
trace to F_q both vanish, evaluated through the curve family's
L-polynomials.  A curve y**p - y = A x + B / x has the same point counts as
every curve with the same c = A * B (substitute x -> x / A), so the family
sum runs over c in F_q*, each with weight w = (q-1)/(p-1), and in both
characteristics

    f_count(n) = (q**n + (q-1)**2 + w * sum_c S_c) / q**2

with S_c = #C_c(F_{q^n}) - (q**n + 1) taken from the L-polynomial
recurrence, so the cost of one more n is a handful of big-integer
multiplications per distinct L-polynomial.

i_count(n) is the number of monic irreducible polynomials of degree n over
F_q whose x**(n-1) and x coefficients vanish:

    i_count(n) = (1/n) * sum_{d | n, p !| d} mobius(d)
                 * (f_count(n/d) - [p | n] * q**(n/(p*d)))

The sum, like the Gauss and Carlitz counts, runs over squarefree d only,
the only d with mobius(d) != 0, so no zero term is built.  A table reads
each f_count(n) it needs, as a row or as a divisor term, once, through the
same evaluator as a single request, and reads every q**k from one list of
running products.

All divisions are asserted exact; NonIntegralError here always means a bug
upstream, never an unlucky input.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from . import gf
from .curves import c_order, check_count_cap, class_point_counts, family_genus
from .errors import InvariantError, NegativeCountError, NonIntegralError
from .lpoly import LPolynomial
from .numtheory import prime_power_parts, squarefree_divisors

SELFCHECK_DEPTH = 2  # extra degrees beyond the genus that every build re-counts


def gauss_count(q: int, n: int) -> int:
    """Monic irreducibles of degree n over F_q, all coefficients free."""
    if n < 1:
        raise ValueError("degree must be positive")
    total = sum(mu * q ** (n // d) for d, mu in squarefree_divisors(n))
    out, rem = divmod(total, n)
    if rem:
        raise NonIntegralError(f"irreducible count for q={q}, n={n} not integral")
    return out


def carlitz_count(q: int, n: int) -> int:
    """Monic irreducibles of degree n over F_q with one prescribed trace.

    The classical formula (1/(q*n)) * sum over p-coprime divisors; it is
    exercised here only against nonzero prescribed traces.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    p, _ = prime_power_parts(q)
    total = sum(mu * q ** (n // d) for d, mu in squarefree_divisors(n, p))
    out, rem = divmod(total, q * n)
    if rem:
        raise NonIntegralError(f"trace-count for q={q}, n={n} not integral")
    return out


@dataclass(frozen=True)
class CountRow:
    n: int
    f_count: int
    i_count: int


@dataclass(frozen=True)
class CountReport:
    p: int
    r: int
    q: int
    rows: tuple[CountRow, ...]

    def __post_init__(self):
        q, last = self.q, 0  # last: the n of q**n and q**(n//2) below, 0 before any
        for row in self.rows:
            n = row.n
            if row.f_count < 0 or row.i_count < 0:
                raise InvariantError(f"negative count in row n={n}")
            if n < 2:
                continue
            if last and n > last:  # ascending rows carry the powers forward
                qn *= q ** (n - last)
                half *= q ** (n // 2 - last // 2)
            else:
                qn, half = q**n, q ** (n // 2)
            last = n
            # exact and cheap first: the divisor terms of n * gauss_count
            # past q**n have distinct exponents 1 .. n//2, so they sum to
            # less than 2 * q**(n//2) in absolute value
            if n * row.i_count <= qn - 2 * half:
                continue
            if row.i_count > gauss_count(q, n):
                raise InvariantError(
                    f"constrained count exceeds the unconstrained one at n={n}"
                )

    def to_dict(self) -> dict:
        """JSON-ready form; big integers become decimal strings."""
        return {
            "p": self.p,
            "r": self.r,
            "q": self.q,
            "rows": [
                {
                    "n": row.n,
                    "f_count": str(row.f_count),
                    "i_count": str(row.i_count),
                }
                for row in self.rows
            ],
        }


class CountEngine:
    """Curve counts and L-polynomials for one base field, queried per n.

    Construction keys each c = A * B by c_order, building no family, reads
    every c's counts from one class_point_counts array per m = 1..genus and
    seeds one L-polynomial per distinct count vector; the c sharing it form
    a class, held as (LPolynomial, number of c) pairs in first-seen order,
    and lpoly_of reads the class of one c by its code.  It
    then re-counts every c at genus+1 and genus+2, as far as the element
    cap allows, against its class's prediction.  That over-determination
    check is the strongest self-test the engine has: a wrong genus, a wrong
    smooth completion, a wrong Newton step or a wrong class reduction fails
    it immediately.  verified_depth records how many of the SELFCHECK_DEPTH
    extra degrees were checked before the cap stopped the check;
    selfcheck_note says so in one line when the cap cut the check short,
    and is None otherwise.
    """

    def __init__(
        self,
        field: gf.FieldSpec,
        max_elements: int | None = gf.DEFAULT_MAX_ELEMENTS,
    ):
        self.field = field
        self.q = q = field.order
        self.p = field.p
        self.genus = g = family_genus(field)
        check_count_cap(q, g, max_elements)  # before any array is made
        counts = [class_point_counts(field, m, max_elements) for m in range(1, g + 1)]
        # code of c -> its counts over m = 1..genus, in the family's order
        rows = {c: tuple(int(n[c]) for n in counts) for c in c_order(field)}
        seeded = {row: LPolynomial.from_counts(q, g, row) for row in set(rows.values())}
        # code of c -> its class L-polynomial, read by lpoly_of and the self-check
        self._lpolys = {c: seeded[row] for c, row in rows.items()}
        # (class L-polynomial, number of c with it), in first-seen order
        self.classes: tuple[tuple[LPolynomial, int], ...] = tuple(
            Counter(self._lpolys.values()).items()
        )
        self.verified_depth = 0
        self.selfcheck_note = None
        for extra in range(1, SELFCHECK_DEPTH + 1):
            m = g + extra
            if gf.over_cap(q**m, max_elements):
                self.selfcheck_note = (
                    f"self-check reached depth {self.verified_depth} of "
                    f"{SELFCHECK_DEPTH}; the element cap {max_elements} stopped it"
                )
                break
            direct = class_point_counts(field, m, max_elements)
            for c, lp in self._lpolys.items():
                if lp.predict_count(m) != direct[c]:
                    raise InvariantError(
                        f"class L-polynomial prediction disagrees with direct "
                        f"count at m={m} for c={c}"
                    )
            self.verified_depth = extra

    def lpoly_of(self, c: int) -> LPolynomial:
        """The class L-polynomial of the curves whose c = A * B has code c."""
        return self._lpolys[c]

    # -- the closed forms ----------------------------------------------------

    def f_count(self, n: int) -> int:
        """Elements of F_{q^n} with vanishing trace and reciprocal trace."""
        if n < 1:
            raise ValueError("n must be positive")
        return self._f_from(n, self.q**n)

    def _f_from(self, n: int, qn: int) -> int:
        """f_count(n), given qn = q**n."""
        q = self.q
        w = (q - 1) // (self.p - 1)
        defects = 0  # sum of k * (#C(F_{q^n}) - (q**n + 1)) = -k * S_n over the classes
        for lp, k in self.classes:
            if (s := lp.power_sum(n)) > qn + 1:
                raise NegativeCountError(f"predicted count {qn + 1 - s} at n={n}")
            defects -= k * s
        out, rem = divmod(qn + (q - 1) ** 2 + w * defects, q * q)
        if rem:
            raise NonIntegralError(f"f_count numerator not divisible by q^2 at n={n}")
        if out < 0:
            raise InvariantError(f"negative element count at n={n}")
        return out

    def i_count(self, n: int) -> int:
        """Monic irreducibles of degree n with zero x**(n-1) and x coefficients.

        n = 1 returns 1 by convention (the polynomial x).
        """
        return self._i_from(n, self.f_count, self.q.__pow__)

    def _i_from(self, n: int, f: Callable[[int], int], qpow: Callable[[int], int]) -> int:
        """i_count(n), reading f_count(n/d) from f and q**k from qpow."""
        if n < 1:
            raise ValueError("n must be positive")
        if n == 1:
            return 1
        n_p, p_rem = divmod(n, self.p)
        total = 0
        for d, mu in squarefree_divisors(n, self.p):
            term = f(n // d)
            if not p_rem:
                term -= qpow(n_p // d)
            total += mu * term
        out, rem = divmod(total, n)
        if rem:
            raise NonIntegralError(f"i_count total not divisible by n={n}")
        if out < 0:
            raise InvariantError(f"negative irreducible count at n={n}")
        return out

    def table(self, n_min: int, n_max: int) -> CountReport:
        """Rows (n, f_count, i_count) for n_min..n_max."""
        if n_min > n_max or n_min < 1:
            raise ValueError("need 1 <= n_min <= n_max")
        for lp, _ in self.classes:  # every row then reads the cache, none jumps
            lp.extend_to(n_max)
        qpow = [1]  # q**k at k, by running products
        for _ in range(n_max):
            qpow.append(qpow[-1] * self.q)
        seen: dict[int, int] = {}  # n -> f_count(n), for this call only

        def f(n: int) -> int:
            if (v := seen.get(n)) is None:
                v = seen[n] = self._f_from(n, qpow[n])
            return v

        rows = tuple(
            CountRow(n, f(n), self._i_from(n, f, qpow.__getitem__))
            for n in range(n_min, n_max + 1)
        )
        return CountReport(self.field.p, self.field.r, self.q, rows)


def engine_for(q: int, **kwargs) -> CountEngine:
    """Convenience constructor from a prime power."""
    p, r = prime_power_parts(q)
    return CountEngine(gf.make_field(p, r), **kwargs)
