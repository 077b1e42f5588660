"""Point counts on the two Artin-Schreier curve families over F_q.

For p = 2 the family is the genus-1 curves

    C_alpha : x (y**2 + y) = alpha (x**2 + 1),      alpha in F_q*,

and for odd p the genus-(p-1) curves

    C_{alpha,beta} : x (y**p - y) = beta (alpha x**2 - 1),

with alpha in F_q* and beta running over coset representatives of F_p* in
F_q*.  In both cases the affine chart x != 0 rewrites to y**p - y = h(x)
with h(x) = A x + B / x, so a fiber above x carries exactly p points when
the absolute trace of h(x) vanishes and none otherwise; the smooth model
adds exactly one rational point above x = 0 and one above x = infinity
(both ramified places are rational of degree one), and the affine equation
itself has no solutions with x = 0.  Hence

    #C(F_{q^m}) = p * #{x in F_{q^m}* : Tr_{F_{q^m}/F_p}(h(x)) = 0} + 2.

class_point_counts evaluates that, as below; count_points_naive re-counts by
testing the curve equation literally on every (x, y) pair and exists purely
as an independent check.  It uses no trace.  L(y) = y**p - y is an
F_p-linear map, and each curve's R(x) is one applied to x**2, plus a
constant; both are built once per tower and applied to the digit table
of the tower.  They, x**2 and the pair products x * L(y) all come from
the structure constants of the tower, the F_p matrices of multiplication
that gf builds from the modulus, so no tower product runs in pure
Python; count_family_naive forms them once for a whole family of curves.

Since A and B lie in F_q, transitivity of the trace gives

    Tr_{F_{q^m}/F_p}(A x + B / x) = Tr_{F_q/F_p}(A a + B b),
    a = Tr_{F_{q^m}/F_q}(x),  b = Tr_{F_{q^m}/F_q}(1 / x),

and x -> lam * x, lam in F_q*, moves (a, b) to (lam * a, b / lam).  Let
n0(e) = #{mu in F_q* : Tr(mu + e / mu) = 0}, a Kloosterman-type zero
count.  A coset with a * b = u != 0 holds n0(c * u) zeros (mu = A lam a,
c = A * B), one with a single zero trace n0(0) = q/p - 1, and one with
both zero q - 1.  With fastfield's class counts, v[u] cosets with
a * b = u and both with a = b = 0, #C_c(F_{q^m}) = p * Z(c) + 2, where
Z(c) = sum_u v[u] * n0(c * u) + both * (q - q/p).  With c = g**j and
u = g**i, the sum over u != 0 is a cyclic correlation in log coordinates,
sum_i v[g**i] * n0(g**(i + j)): q**2 int64 multiply-adds in numpy's C
correlation, not a q**2 array, but more than F_q has elements, so at
m = 1 the element cap is still held against q**2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .errors import BudgetExceededError, HasseWeilError
from .fastfield import log_tables, table_for

EVEN = "even"
ODD = "odd"


def family_genus(field: gf.FieldSpec) -> int:
    """Genus of every curve of the family over field: p - 1 (1 when p = 2)."""
    return field.p - 1


@dataclass(frozen=True)
class CurveSpec:
    """One curve of the family over field = F_q; beta only in odd characteristic."""

    field: gf.FieldSpec
    alpha: object
    beta: object = None

    def __post_init__(self):
        f = self.field
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if value is not None and value not in f:
                raise ValueError(f"{name} {value!r} is not an element of F_{f.order}")
        if f.is_zero(self.alpha):
            raise ValueError("alpha must be a unit")
        if f.p == 2:
            if self.beta is not None:
                raise ValueError("even-characteristic curves take no beta")
        else:
            if self.beta is None or f.is_zero(self.beta):
                raise ValueError("odd-characteristic curves need a unit beta")

    @property
    def case(self) -> str:
        return EVEN if self.field.p == 2 else ODD

    @property
    def genus(self) -> int:
        return family_genus(self.field)

    def h_coeffs(self):
        """(A, B) with the affine chart reading y**p - y = A x + B / x."""
        f = self.field
        if self.case == EVEN:
            return self.alpha, self.alpha
        return f.mul(self.beta, self.alpha), f.neg(self.beta)

    @property
    def c_code(self) -> int:
        """The code of c = A * B, which fixes the curve's point counts."""
        return self.field.code(self.field.mul(*self.h_coeffs()))

    def describe(self) -> dict:
        f = self.field
        out = {
            "case": self.case,
            "genus": self.genus,
            "q": f.order,
            "alpha": f.code(self.alpha),
        }
        if self.beta is not None:
            out["beta"] = f.code(self.beta)
        return out


def _beta_codes(field: gf.FieldSpec) -> np.ndarray:
    """The least code of each coset of F_p* in F_q*, in increasing order:
    F_p* is the powers of g**w, w = (q-1)/(p-1), so the coset of g**i is
    column i mod w of exp in p - 1 rows of w."""
    return np.sort(log_tables(field).exp.reshape(field.p - 1, -1).min(axis=0))


def family_codes(field: gf.FieldSpec) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Codes of alpha, beta (None when p = 2) and c = A * B for every curve
    of the family, in curve_family's order.

    A = B = alpha when p = 2; otherwise beta runs over _beta_codes for each
    alpha, A = beta * alpha and B = -beta, and -1 has code p - 1.
    """
    q, p = field.order, field.p
    logs, units = log_tables(field), np.arange(1, q)
    if p == 2:
        return units, None, logs.mul(units, units)
    reps = _beta_codes(field)
    alpha, beta = np.repeat(units, reps.size), np.tile(reps, q - 1)
    return alpha, beta, logs.mul(logs.mul(alpha, beta), logs.mul(beta, p - 1))


def c_order(field: gf.FieldSpec) -> list[int]:
    """Codes of the q - 1 values of c = A * B in the order family_codes first
    meets them: -alpha * beta**2 over _beta_codes, row by row of alpha (when
    p = 2, row alpha = 1 is beta**2 over all units, the family's alpha**2)."""
    q, logs, reps = field.order, log_tables(field), _beta_codes(field)
    row, seen, alpha = logs.mul(logs.mul(reps, reps), field.p - 1), {}, 0  # -beta**2
    while len(seen) < q - 1:  # by alpha = q - 1, every -alpha is met
        alpha += 1
        seen.update(dict.fromkeys(logs.mul(alpha, row).tolist()))
    return list(seen)


def beta_representatives(field: gf.FieldSpec) -> list:
    """One unit per coset of F_p* in F_q*, the least in canonical order."""
    if field.p == 2:
        raise ValueError("beta representatives only apply in odd characteristic")
    return [field.element_list[b] for b in _beta_codes(field).tolist()]


def curve_family(field: gf.FieldSpec) -> list[CurveSpec]:
    """All curves of the family: q-1 for p = 2, (q-1)^2/(p-1) otherwise,
    each alpha with every beta representative in turn."""
    alpha, beta, _ = family_codes(field)
    e = field.element_list
    betas = [None] * alpha.size if beta is None else [e[b] for b in beta.tolist()]
    return [CurveSpec(field, e[a], b) for a, b in zip(alpha.tolist(), betas)]


def check_count_cap(q: int, m_max: int, max_elements: int | None):
    """Refuse count_points over F_{q^m}, m = 1..m_max, before the first count.

    count_points holds q**max(m, 2) against the cap, so m runs to
    max(m_max, 2); the check stops at the first m over the cap, and builds
    no larger power.
    """
    for m in range(1, max(m_max, 2) + 1):
        gf.check_element_cap(q, m, max_elements)


def cyclic_correlation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """z[j] = sum_i x[i] * y[(i + j) % n], exactly, for int64 x and y of
    length n: the correlation of y, then y[:-1], with x, in numpy's 'valid'
    mode, runs the n**2 multiply-adds in C in O(n) memory, with no FFT."""
    return np.correlate(np.concatenate([y, y[:-1]]), x, mode="valid")


def class_point_counts(field: gf.FieldSpec, m: int, max_elements: int | None = None) -> np.ndarray:
    """#C_c(F_{q^m}) for every c = A * B, by code of c (0 at c = 0); a count
    that breaks the Weil bound raises HasseWeilError naming its c."""
    q, p, g = field.order, field.p, family_genus(field)
    gf.check_element_cap(q, max(m, 2), max_elements)
    v, both = table_for(gf.make_tower(field, m)).class_counts
    exp, _, _, n0 = log_tables(field)
    # Z(g**j) = sum_i v[g**i] * n0(g**(i + j)), plus the u = 0 term
    zeros = cyclic_correlation(v[exp], n0[exp]) + v[0] * n0[0]
    counts = np.zeros(q, dtype=np.int64)  # no curve of the family has c = 0
    counts[exp] = p * (zeros + both * (q - q // p)) + 2
    c = int(np.abs(counts[1:] - (q**m + 1)).argmax()) + 1  # the c farthest from the line
    if (int(counts[c]) - q**m - 1) ** 2 > 4 * g * g * q**m:
        raise HasseWeilError(f"count {counts[c]} at m={m} for c={c} violates the Weil bound")
    return counts


def count_points(curve: CurveSpec, m: int, max_elements: int | None = None) -> int:
    """#C(F_{q^m}): the class count of its c = A * B."""
    return int(class_point_counts(curve.field, m, max_elements)[curve.c_code])


def count_points_naive(curve: CurveSpec, m: int, max_pairs: int | None = None) -> int:
    """#C(F_{q^m}) by checking the curve equation on every (x, y) pair.

    L(y) = y**p - y is an F_p-linear map, and R(x) = M x**2 + t is one
    applied to x**2, plus a constant: M multiplies by an element of F_q,
    and M and t are read off the curve's alpha and beta.  Both are built
    once per tower and applied to the digit table of the tower, the
    base-p digits of every element code.  L, x**2 and the q**(2m)
    products x * L(y) are formed exactly over F_p from the structure
    constants of the tower, which gf builds from the modulus: with T[i]
    the F_p matrix of b -> e_i * b, the digits of x * b are
    sum_i x_i T[i] b mod p, and column i of y -> y**p is T[i]**p
    applied to 1.
    Every product is compared with R(x), so this stays the literal
    equation, pair by pair, and is kept deliberately separate from the
    solvability reasoning; used only for cross-validation.  The pairs are
    taken in blocks of x, so memory grows with q**m, not with the number
    of pairs.
    """
    return count_family_naive([curve], m, max_pairs)[0]


def _lhs_matrix(tower: gf.ExtensionField) -> np.ndarray:
    """The F_p matrix of L(y) = y**p - y (y**2 + y when p = 2).

    Column j is L(e_j): T[j] multiplies by e_j, so its p-th power maps 1
    to e_j**p.
    """
    p, d = tower.p, tower.r
    gf.check_power_bound(d, p)
    T = gf.structure_constants(tower).astype(np.float64)
    frob = gf._power(T, p, p)[:, :, 0].T.astype(np.int64)
    return (frob - np.eye(d, dtype=np.int64)) % p


def _rhs_maps(tower: gf.ExtensionField, T: np.ndarray, curves) -> tuple[np.ndarray, np.ndarray]:
    """(M, t) per curve, with R(x) = M x**2 + t in digits mod p.

    R(x) = alpha (x**2 + 1) when p = 2, so M multiplies by alpha and
    t = M 1 = alpha; R(x) = beta (alpha x**2 - 1) for odd p, so M
    multiplies by alpha beta and t = -beta.
    """
    p, field = tower.p, tower.base
    consts = []
    for curve in curves:
        if curve.case == EVEN:
            consts.append((curve.alpha, curve.alpha))
        else:
            consts.append((field.mul(curve.alpha, curve.beta), field.neg(curve.beta)))
    digits = np.array(  # (curve, constant, digit)
        [[tower.flat_digits(tower.embed_base(c)) for c in pair] for pair in consts],
        dtype=np.int64,
    )
    return gf.mul_by_matrices(digits[:, 0], T) % p, digits[:, 1]


def count_family_naive(curves, m: int, max_pairs: int | None = None) -> list[int]:
    """count_points_naive for each curve of curves, all over one field F_q.

    The digit table, the matrices T and the map L depend only on the
    tower, so they are built once; L is applied to the whole digit table,
    and each block of products x * L(y) is formed once and compared with
    every curve's own R(x), its map applied to the block's x**2.
    """
    fields = {curve.field for curve in curves}
    if len(fields) != 1:
        raise ValueError("the curves must share one base field")
    (field,) = fields
    q = field.order
    if gf.over_cap(q ** (2 * m), max_pairs):
        raise BudgetExceededError(f"{q}**{2*m} pairs exceed the cap {max_pairs}")
    tower = gf.make_tower(field, m)
    p, d = field.p, tower.r
    digits = gf.digit_table(tower)
    T = gf.structure_constants(tower)
    l_digits = digits @ _lhs_matrix(tower).T % p  # L(y), y in canonical order
    r_maps, r_shifts = _rhs_maps(tower, T, curves)
    weights = p ** np.arange(d, dtype=np.int64)
    # at most 2**14 int64 products (128 KiB) per block of x: measured faster
    # than larger blocks, and small enough not to raise the peak memory
    block = max(1, (1 << 14) // (len(l_digits) * d))
    affine = np.zeros(len(curves), dtype=np.int64)
    for s in range(1, len(digits), block):  # code 0 is x = 0
        x = digits[s : s + block]
        mul_by_x = gf.mul_by_matrices(x, T)
        codes = weights @ (mul_by_x @ l_digits.T % p)  # (x, y)
        squares = mul_by_x @ x[:, :, None] % p  # (x, digit, 1)
        rhs = (r_maps[:, None] @ squares)[..., 0] + r_shifts[:, None]  # (curve, x, digit)
        r_codes = rhs % p @ weights
        affine += (codes == r_codes[:, :, None]).sum(axis=(1, 2))
    return [int(a) + 2 for a in affine]


def big_curve_count(
    field: gf.FieldSpec, alpha, m: int, max_elements: int | None = None
) -> int:
    """Points of the q-exponent curve x (y**q -+ y) = alpha x**2 -+ 1 over F_{q^m}.

    Counted by the same solvability argument one level up: y**q - y = c is
    solvable iff Tr_{F_{q^m}/F_q}(c) = 0 and then has exactly q solutions.
    In either characteristic the fiber condition reads
    Tr(alpha x) = Tr(1/x).  Used by the verification suite to exercise the
    relations between this curve, the zero-locus counts, and the fiber
    product decomposition into the p-exponent curves.
    """
    q = field.order
    if alpha not in field:
        raise ValueError(f"alpha {alpha!r} is not an element of F_{q}")
    if field.is_zero(alpha):
        raise ValueError("alpha must be a unit")
    gf.check_element_cap(q, m, max_elements)
    tower = gf.make_tower(field, m)
    tab = table_for(tower)
    t = tab.trace_codes_exp()
    # Tr(alpha x) = alpha Tr(x): the trace is F_q-linear
    u = log_tables(field).mul(field.code(alpha), np.arange(q))[t]
    return q * int(np.count_nonzero(u == tab.reversed_exp(t))) + 2
