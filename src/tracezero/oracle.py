"""Brute-force recomputation of every counted quantity, plus the lemma suite.

Everything in this module works from the definitions: traces are sums of
Frobenius conjugates, inverses are group inverses, irreducibility is
either tested on explicit polynomials (the candidates of gf.monic_polys,
a block at a time through gf.irreducibles, whose test is F_p linear
algebra on the matrix of multiplication by x) or read off Frobenius
orbit sizes.  None of the enumerations touches the curve L-polynomials,
the class binning or its n0 correlation, or the Moebius closed forms, so
when cross_check and verify_all hold the counting module's results
against them, agreement is a genuine two-route check.  What the
enumerations share with the engine is fastfield's checked walk and the
coset fact its check proves: gamma has order N and lam0 = gamma**M
generates F_q*, so the class walk meets each F_q*-coset of the units once.

Which walk each reader uses: enum_f_count, enum_i_count's orbit route and
enum_irreducible_total read the class walk's trace codes
(FieldTable.class_trace_codes, M = (q**n - 1) / (q - 1) units), since
both trace conditions and the degree of an element hold on a whole coset;
z_count and the q-exponent curve count read the full walk's
(trace_codes_exp, all N units), since c * Tr(a) = rTr(a) is not
coset-invariant; _trace_zero_image walks nothing and reads the digits of
every code.  An enumeration of F_{q^n} over the element cap is refused
before it starts, through gf.check_element_cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import gf
from .counting import CountEngine, CountReport
from .curves import CurveSpec, big_curve_count, class_point_counts, count_family_naive
from .curves import curve_family, family_codes
from .errors import BudgetExceededError, InvariantError
from .fastfield import FieldTable, table_for
from .numtheory import divisors, prime_factors, prime_power_parts


def _tower(q: int, n: int, tower: gf.ExtensionField | None = None) -> gf.ExtensionField:
    if tower is not None:
        if tower.q != q or tower.n != n:
            raise ValueError("explicit tower does not match (q, n)")
        return tower
    p, r = prime_power_parts(q)
    return gf.make_tower(gf.make_field(p, r), n)


# ---------------------------------------------------------------------------
# element counts


def enum_f_count(
    q: int,
    n: int,
    max_elements: int = gf.DEFAULT_MAX_ELEMENTS,
    tower: gf.ExtensionField | None = None,
) -> int:
    """#{a in F_{q^n} : Tr(a) = 0 and rTr(a) = 0} by enumeration of the
    F_q*-cosets of the units.

    Both conditions hold on a whole coset or on none of it, since
    Tr(lam * a) = lam * Tr(a) and (lam * a)**-1 = lam**-1 * a**-1 for lam
    in F_q*.  So the class walk, one unit per coset, is counted and each
    hit scaled by q - 1 (see _both_traces_zero).  The zero element counts
    via the rtrace(0) = 0 convention.
    """
    gf.check_element_cap(q, n, max_elements)
    # a caller's tower (another modulus) is walked in a table of its own,
    # so it evicts none of the shared tables from table_for
    tab = table_for(_tower(q, n)) if tower is None else FieldTable(_tower(q, n, tower))
    return 1 + (q - 1) * int(np.count_nonzero(_both_traces_zero(tab)))


def enum_f_count_small(tower: gf.ExtensionField, max_elements: int = 1 << 12) -> int:
    """Same count by the literal per-element definition; tiny fields only.

    Exists to validate the table-based path against first principles.
    """
    gf.check_element_cap(tower.q, tower.n, max_elements)
    base = tower.base
    hits = 0
    for a in tower.elements():
        if base.is_zero(tower.trace_to_base(a)) and base.is_zero(tower.rtrace(a)):
            hits += 1
    return hits


# ---------------------------------------------------------------------------
# irreducible counts


def enum_i_count(
    q: int,
    n: int,
    max_elements: int = gf.DEFAULT_MAX_ELEMENTS,
    method: str = "auto",
) -> int:
    """Monic irreducibles of degree n over F_q with zero x**(n-1) and x terms.

    Two independent brute-force routes:

    * "scan": enumerate every monic candidate with the prescribed zero
      coefficients and test each for irreducibility (q**max(1, n-2) candidates).
    * "orbit": enumerate the field F_{q^n}, one unit per F_q*-coset; each
      irreducible of degree n is the minimal polynomial of exactly n
      elements of degree n, and the two coefficient conditions are exactly
      trace zero and reciprocal trace zero of the root.  Cost
      (q**n - 1) / (q - 1) units, fully vectorised.

    "auto" prefers the orbit route and falls back to the scan when only
    the candidate space fits the element cap.  n = 1 returns 1 by
    convention (the polynomial x).
    """
    if n < 1:
        raise ValueError("degree must be positive")
    over = gf.over_cap(q**n, max_elements)  # refuses a cap below 1 at every n
    if method == "auto":
        method = "scan" if over else "orbit"
    if method not in ("orbit", "scan"):
        raise ValueError(f"unknown method {method!r}")
    if n == 1:
        return 1
    if method == "orbit":
        gf.check_element_cap(q, n, max_elements)
        tab = table_for(_tower(q, n))
        return _degree_n_orbits(tab, n, _both_traces_zero(tab))
    return _enum_i_scan(q, n, max_elements)


def _both_traces_zero(tab) -> np.ndarray:
    """Mask over the class walk's exponents k < M of Tr(gamma**k) = 0 and
    Tr(gamma**-k) = 0; each entry stands for the q - 1 units of its coset.

    The walk's check proves that gamma has order N and lam0 = gamma**M
    generates F_q*, so gamma**-k = lam0**-1 * gamma**(M-k) and the second
    condition is the first at M - k: the mask is the trace-zero mask and-ed
    with its reverse past entry 0, which is copied into the result first:
    a reversed copy is fast in numpy, a logical_and reading a reversed
    view is not.
    """
    tz = tab.class_trace_codes == 0
    both = np.empty_like(tz)
    both[0] = tz[0]
    both[1:] = tz[:0:-1]
    both &= tz
    return both


def _degree_n_orbits(tab, n: int, keep: np.ndarray) -> int:
    """Number of Frobenius orbits of degree-n elements in keep, a mask over
    the class walk's exponents k < M, each standing for q - 1 units.

    keep is narrowed in place to the cosets outside every maximal
    subfield; F_{q^e}* is the exponents divisible by N / (q**e - 1), which
    divides M, so a coset lies in it whole or not at all.
    """
    q = tab.tower.q
    for ell in prime_factors(n):
        keep[:: tab.N // (q ** (n // ell) - 1)] = False
    units = (q - 1) * int(np.count_nonzero(keep))
    if units % n:
        raise InvariantError("degree-n element count not divisible by n")
    return units // n


def _enum_i_scan(q: int, n: int, max_elements: int) -> int:
    zero = {1, n - 1}
    free = n - len(zero)  # coefficients the scan runs over the field
    if gf.over_cap(q**free, max_elements):
        raise BudgetExceededError(
            f"candidate scan for q={q}, n={n}: {q}**{free} candidates exceed "
            f"the cap {max_elements}"
        )
    p, r = prime_power_parts(q)
    # a zero constant term means the root 0
    return sum(1 for _ in gf.irreducibles(gf.make_field(p, r), n, zero=zero, unit={0}))


def enum_irreducible_total(q: int, n: int, max_elements: int = gf.DEFAULT_MAX_ELEMENTS) -> int:
    """All monic irreducibles of degree n over F_q, via Frobenius orbits
    of the class walk's cosets."""
    gf.check_element_cap(q, n, max_elements)
    if n == 1:
        return q
    tab = table_for(_tower(q, n))
    return _degree_n_orbits(tab, n, np.ones(tab.M, dtype=bool))


def cross_check(report: CountReport, max_elements: int = gf.DEFAULT_MAX_ELEMENTS) -> set[int]:
    """Re-derive every row of report with q**n within the cap by enumeration.

    Returns the degrees checked; the first row that disagrees raises.
    """
    q, checked = report.q, set()
    for row in report.rows:
        if gf.over_cap(q**row.n, max_elements):
            continue
        fo, io = enum_f_count(q, row.n, max_elements), enum_i_count(q, row.n, max_elements)
        if (fo, io) != (row.f_count, row.i_count):
            raise InvariantError(
                f"formula/enumeration mismatch at n={row.n}: "
                f"({row.f_count}, {row.i_count}) vs ({fo}, {io})"
            )
        checked.add(row.n)
    return checked


# ---------------------------------------------------------------------------
# zero-locus counts


def z_count(
    q: int,
    n: int,
    mode: str = "combination",
    c=None,
    max_elements: int = gf.DEFAULT_MAX_ELEMENTS,
) -> int:
    """Zero counts of the trace pair over F_{q^n}.

    mode "trace":        #{a : Tr(a) = 0}
    mode "rtrace":       #{a : rTr(a) = 0}
    mode "combination":  #{a : c * Tr(a) - rTr(a) = 0}   (c a base element)

    Conventions as in gf: rTr(0) = 0, so a = 0 always qualifies.
    """
    gf.check_element_cap(q, n, max_elements)
    tw = _tower(q, n)
    tab = table_for(tw)
    codes = tab.trace_codes_exp()
    if mode == "trace":
        return 1 + int((codes == 0).sum())
    rcodes = tab.reversed_exp(codes)
    if mode == "rtrace":
        return 1 + int((rcodes == 0).sum())
    if mode != "combination":
        raise ValueError(f"unknown mode {mode!r}")
    if c is None:
        raise ValueError("combination mode needs the multiplier c")
    base = tw.base
    mul_row = np.empty(q, dtype=np.int64)
    for v in range(q):
        mul_row[v] = base.code(base.mul(c, base.from_code(v)))
    return 1 + int((mul_row[codes] == rcodes).sum())


# ---------------------------------------------------------------------------
# the verification suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    q: int
    n: int
    status: str  # "pass", "fail", or "skip"
    detail: str = ""


@dataclass
class VerifyReport:
    q: int
    n_max: int
    checks: list[CheckResult] = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def add(self, name: str, q: int, n: int, ok: bool, lhs, rhs):
        status = "pass" if ok else "fail"
        detail = "" if ok else f"{lhs} != {rhs}"
        self.checks.append(CheckResult(name, q, n, status, detail))

    def add_all(self, name: str, q: int, n: int, cases):
        """One line for many (curve label, lhs, rhs) cases; a failure names
        the first mismatching curve and how many of the cases disagree."""
        cases = list(cases)
        bad = [case for case in cases if case[1] != case[2]]
        detail = ""
        if bad:
            label, lhs, rhs = bad[0]
            detail = f"{label}: {lhs} != {rhs} ({len(bad)} of {len(cases)} disagree)"
        self.checks.append(CheckResult(name, q, n, "fail" if bad else "pass", detail))

    def skip(self, name: str, q: int, n: int, why: str):
        self.checks.append(CheckResult(name, q, n, "skip", why))

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n_max": self.n_max,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "q": c.q, "n": c.n, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
        }


def _trace_zero_image(tab) -> tuple[np.ndarray, np.ndarray]:
    """Bitmaps over element codes of {a : Tr(a) = 0} and of
    {y**q - y : y in F_{q^n}}.

    Both maps are F_p-linear: the trace is tab.trace_rows(), and
    y -> y**q - y is Phi - I.  Each is evaluated on the digits of every
    code, a chunk of codes at a time.
    """
    p, order = tab.p, tab.tower.order
    rows = tab.trace_rows()
    M = (tab.frobenius_matrix - np.eye(tab.d, dtype=np.int64)) % p
    weights = p ** np.arange(tab.d, dtype=np.int64)
    zero, image = np.zeros(order, dtype=bool), np.zeros(order, dtype=bool)
    chunk = 1 << 18
    for s in range(0, order, chunk):
        e = min(s + chunk, order)
        digits = gf.code_digits(tab.tower, np.arange(s, e, dtype=np.int64))
        zero[s:e] = ~(digits @ rows.T % p).any(axis=1)
        image[(digits @ M.T % p) @ weights] = True
    return zero, image


def direct_count(counts: np.ndarray, curve: CurveSpec, c: int) -> int:
    """#C(F_{q^n}) of curve, read from counts = class_point_counts(field, n)
    at the code c of its A * B; verify_all reads each curve's count here."""
    return int(counts[c])


def verify_all(q: int, n_max: int, max_elements: int = gf.DEFAULT_MAX_ELEMENTS) -> VerifyReport:
    """Run every numeric identity check for 1 <= n <= n_max.

    Produces one pass/fail/skip line per (check, n); failures carry both
    disagreeing values.  Checks beyond the element budget are skipped, not
    failed.
    """
    p, r = prime_power_parts(q)
    field = gf.make_field(p, r)
    engine = CountEngine(field, max_elements=max_elements)
    curves = curve_family(field)
    keys = family_codes(field)[2].tolist()  # c = A * B of each curve, by code
    units = [a for a in field.elements() if not field.is_zero(a)]
    unit_labels = [f"alpha={field.code(a)}" for a in units]
    curve_labels = [
        f"alpha={field.code(c.alpha)}" + (f" beta={field.code(c.beta)}" if p != 2 else "")
        for c in curves
    ]
    report = VerifyReport(q=q, n_max=n_max)
    if engine.selfcheck_note:
        cut = engine.genus + engine.verified_depth + 1  # the first degree not re-counted
        report.skip("engine_selfcheck", q, cut, engine.selfcheck_note)

    for n in range(1, n_max + 1):
        if gf.over_cap(q**n, max_elements):
            report.skip("element_budget", q, n, f"{q}**{n} over the element cap")
            continue
        tower = gf.make_tower(field, n)
        tab = table_for(tower)

        z_tr = z_count(q, n, "trace", max_elements=max_elements)
        report.add("trace_fiber_size", q, n, z_tr == q ** (n - 1), z_tr, q ** (n - 1))
        z_rt = z_count(q, n, "rtrace", max_elements=max_elements)
        report.add("rtrace_fiber_size", q, n, z_rt == q ** (n - 1), z_rt, q ** (n - 1))

        # {Tr = 0} equals the image of y -> y**q - y, both over every
        # element code: the trace rows' kernel against Phi - I's image.
        lhs, rhs = _trace_zero_image(tab)
        report.add(
            "trace_zero_image", q, n, bool((lhs == rhs).all()), int(lhs.sum()), int(rhs.sum())
        )

        # Tr(P**d) = d Tr(P) and rTr(P**d) = d rTr(P) for monic P of degree n/d.
        ok = True
        for d in divisors(n):
            if d == 1:
                continue
            for poly in itertools.islice(gf.monic_polys(field, n // d), 64):
                power = (field.one,)
                for _ in range(d):
                    power = gf.poly_mul(field, power, poly)
                want = field.mul(field.embed(d), gf.poly_trace(field, poly))
                if gf.poly_trace(field, power) != want:
                    ok = False
                if not field.is_zero(poly[0]):
                    want_r = field.mul(field.embed(d), gf.poly_rtrace(field, poly))
                    if gf.poly_rtrace(field, power) != want_r:
                        ok = False
        report.add("power_scaling", q, n, ok, "scaling", "held")

        # Pair count from the zero-locus identity.
        f_enum = enum_f_count(q, n, max_elements)
        z_comb = [z_count(q, n, "combination", a, max_elements) for a in field.elements()]
        ident = z_tr + sum(z_comb) - q**n
        report.add(
            "pair_count_identity", q, n, q * f_enum == ident, q * f_enum, ident
        )

        # q-exponent curve count vs the combination zero-locus; z_comb[0] is c = 0.
        bigs = [big_curve_count(field, a, n, max_elements) for a in units]
        expect = [q * zc - q + 2 for zc in z_comb[1:]]
        report.add_all("big_curve_solvability", q, n, zip(unit_labels, bigs, expect))

        # Fiber products: the big curve's defect is the sum of the small ones'.
        counts = class_point_counts(field, n, max_elements)
        direct = [direct_count(counts, curve, c) for curve, c in zip(curves, keys)]
        line = q**n + 1  # points of the projective line over F_{q^n}

        if p == 2:
            report.add(
                "big_curve_alpha_invariance",
                q,
                n,
                len(set(bigs)) == 1,
                min(bigs),
                max(bigs),
            )
            small = sum(direct) - len(direct) * line
            report.add(
                "fiber_product_even", q, n, bigs[0] - line == small,
                bigs[0] - line, small,
            )
        else:
            # curve_family lists the k beta representatives of each unit in turn
            k = len(curves) // len(units)
            report.add_all("fiber_product_odd", q, n, [
                (unit_labels[i], big - line, sum(direct[i * k : (i + 1) * k]) - k * line)
                for i, big in enumerate(bigs)
            ])

        # The closed forms against enumeration.
        fc = engine.f_count(n)
        report.add("element_count_formula", q, n, fc == f_enum, fc, f_enum)
        i_enum = enum_i_count(q, n, max_elements)
        ic = engine.i_count(n)
        report.add("poly_count_formula", q, n, ic == i_enum, ic, i_enum)

        decomposed = (q ** (n // p) if n % p == 0 else 0) + sum(
            (n // d) * engine.i_count(n // d) for d in divisors(n) if d % p
        )
        report.add("poly_count_decomposition", q, n, fc == decomposed, fc, decomposed)

        # Naive pair-by-pair curve counts where pairs times family size
        # stay within 2**19.
        if q ** (2 * n) * len(curves) <= 1 << 19:
            naive = count_family_naive(curves, n)
            report.add_all("naive_curve_agreement", q, n, zip(curve_labels, direct, naive))
        else:
            report.skip("naive_curve_agreement", q, n, "pair budget")

        # Counts must not depend on the modulus choice.
        if n >= 2 and q**n <= 1 << 16:
            try:
                alt = gf.make_tower_alt(field, n)
            except ValueError:
                report.skip("modulus_invariance", q, n, "single irreducible modulus")
            else:
                f_alt = enum_f_count(q, n, max_elements, tower=alt)
                report.add("modulus_invariance", q, n, f_alt == f_enum, f_alt, f_enum)
        elif n >= 2:
            report.skip("modulus_invariance", q, n, "kept to small fields")

    return report
