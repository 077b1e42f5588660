"""Regenerate reference.json from the library and cross-check it.

    python3 perfbench/make_reference.py

Run from the repository root.  F and I come from the closed-form engine;
every value with q**n <= 2**22 is then re-derived by the brute-force
oracles, the published q = 4 and q = 9 tables are compared, and the
divisor decomposition F(n) = [p | n] q**(n/p) + sum_{d | n, p !| d}
(n/d) I(n/d) is checked for every stored n.  Any mismatch aborts before
the file is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import (  # noqa: E402
    DIGEST_FIELDS,
    DIGEST_N_MAX,
    EXACT_N_MAX,
    FIELDS,
    REFERENCE_PATH,
    Reference,
    oracle_cross_check,
    pair_digest,
    scan_digest,
)
from tracezero import engine_for  # noqa: E402
from tracezero.numtheory import divisors, prime_power_parts  # noqa: E402
from tracezero.sequences import (  # noqa: E402
    build_family,
    cross_correlation,
    distinct_family_count,
    family_complexity,
    omega_members,
)

ORACLE_CAP = 1 << 22


def decomposition_holds(q: int, n: int, f: int, i_of) -> bool:
    p, _ = prime_power_parts(q)
    rhs = (q ** (n // p) if n % p == 0 else 0) + sum(
        (n // d) * i_of(n // d) for d in divisors(n) if d % p
    )
    return f == rhs


def family_scan_rows(p: int, n: int):
    """(complexity, corr_1, corr_2, corr_3) for every member of Omega_{p,n}."""
    rows = []
    for f in omega_members(p, n):
        fam = build_family(f, p)
        rows.append(
            (family_complexity(fam),) + tuple(cross_correlation(fam, ell) for ell in (1, 2, 3))
        )
    return rows


def main() -> int:
    exact, digests = {}, {}
    for q in FIELDS:
        n_max = DIGEST_N_MAX if q in DIGEST_FIELDS else EXACT_N_MAX
        e = engine_for(q)
        values = [(e.f_count(n), e.i_count(n)) for n in range(1, n_max + 1)]
        for n, (f, _) in enumerate(values, start=1):
            if not decomposition_holds(q, n, f, lambda m: values[m - 1][1]):
                print(f"decomposition fails at q={q} n={n}", file=sys.stderr)
                return 1
        exact[str(q)] = [list(v) for v in values[:EXACT_N_MAX]]
        if q in DIGEST_FIELDS:
            digests[str(q)] = "".join(pair_digest(f, i) for f, i in values)
        print(f"q={q}: n=1..{n_max} computed", flush=True)
    family = {}
    for p in (5, 7):
        entry = {"scan": scan_digest(family_scan_rows(p, 5))}
        if p == 5:
            rep = distinct_family_count(5, 5)
            entry.update(
                omega_size=rep.omega_size, distinct=rep.distinct_families, bound=rep.bound
            )
        family[str(p)] = entry
    data = {"exact": exact, "digests": digests, "family": family}
    bad = oracle_cross_check(Reference(data), ORACLE_CAP)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH.name}; oracles agree on every q**n <= 2**22")
    return 0


if __name__ == "__main__":
    sys.exit(main())
