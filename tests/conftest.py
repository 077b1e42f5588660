import numpy as np
import pytest

from tracezero.counting import CountEngine
from tracezero.curves import class_point_counts, family_codes
from tracezero.gf import DEFAULT_MAX_ELEMENTS, make_field
from tracezero.lpoly import LPolynomial
from tracezero.numtheory import prime_power_parts


@pytest.fixture(scope="session")
def budget():
    return DEFAULT_MAX_ELEMENTS


@pytest.fixture(scope="session")
def engine():
    """Lazy per-q engine cache shared by the whole session."""
    cache = {}

    def get(q: int) -> CountEngine:
        if q not in cache:
            p, r = prime_power_parts(q)
            cache[q] = CountEngine(make_field(p, r))
        return cache[q]

    return get


@pytest.fixture(scope="session")
def curve_lpolys():
    """The class L-polynomial of each curve of an engine's family, in
    curve_family's order: the entry of engine.classes equal to the
    L-polynomial seeded from class_point_counts at the curve's c = A * B."""
    cache = {}

    def get(e: CountEngine) -> list[LPolynomial]:
        if e not in cache:
            codes = family_codes(e.field)[2].tolist()
            counts = [class_point_counts(e.field, m) for m in range(1, e.genus + 1)]
            by_value = {lp: lp for lp, _ in e.classes}
            of_c = {
                c: by_value[LPolynomial.from_counts(e.q, e.genus, [int(n[c]) for n in counts])]
                for c in set(codes)
            }
            cache[e] = [of_c[c] for c in codes]
        return cache[e]

    return get


@pytest.fixture(scope="session")
def trace_pair_histogram():
    """H[a, b] = #{units x : Tr x has code a, Tr 1/x has code b} of a table,
    rebuilt from its class counts (v, both).

    x -> lam * x, lam in F_q*, moves (a, b) to (lam * a, b / lam), so a
    coset whose traces are both nonzero puts one unit in each cell of its
    product a * b; one with a single zero trace puts one in each nonzero
    cell of its zero row or column, and x -> 1/x pairs those two kinds;
    and one with both zero puts q - 1 units in H[0, 0].  The codes of the
    products a * b come from gf.mul, not from the library's tables.
    """
    products = {}  # field -> the codes of a * b, by the codes of a and b

    def rebuild(tab):
        field, q = tab.tower.base, tab.tower.q
        if field not in products:
            elements = field.element_list
            products[field] = np.array(
                [[field.code(field.mul(a, b)) for b in elements] for a in elements]
            )
        v, both = tab.class_counts
        H = v[products[field]]  # v[a * b]: a and b both nonzero
        one_zero, odd = divmod(int(v[0]) - both, 2)
        assert not odd
        H[0, 1:] = H[1:, 0] = one_zero
        H[0, 0] = (q - 1) * both
        return H

    return rebuild


@pytest.fixture(scope="session")
def walk_codes():
    """The element codes of a table's full walk, gamma**k for k < N, as
    int64: functionals_exp with the unit's own d digits as its functionals."""

    def codes(tab):
        return tab.functionals_exp(np.eye(tab.d, dtype=np.int64)).astype(np.int64)

    return codes
