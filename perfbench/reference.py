"""Stored reference values and the exact comparisons made against them.

The reference holds, for every (q, n) any workload can draw, the element
count F and the irreducible count I.  Small values are stored as exact
integers; the rest as a 48-bit BLAKE2b digest of the binary encoding of
the (F, I) pair.  Nothing here converts a big integer to a decimal
string: Python 3.11 refuses int -> str past 4300 digits, and the counts
at n = 2500 run to thousands of digits.

The file is generated once by make_reference.py, which cross-checks it
against the brute-force oracles wherever q**n <= 2**22 and against the
published q = 4 and q = 9 tables.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
DIGEST_HEX = 12

# Fields and degrees the workloads draw from (see workloads.py).
FIELDS = (2, 3, 4, 5, 7, 8, 9, 16)
EXACT_N_MAX = 22  # exact values for n = 1..22 on every field
DIGEST_FIELDS = (4, 8, 9, 16)
DIGEST_N_MAX = 2500  # digests for n = 1..2500 on the query fields

# Published tables (q = 4 and q = 9), with the three printed entries that
# brute-force enumeration corrects: I_4(3) = 2, I_9(4) = 20, F_9(7) = 57905.
ACCEPTANCE_F = {
    4: {3: 7, 4: 16, 5: 31, 6: 268, 7: 1135, 8: 4096, 9: 16279, 10: 64684},
    9: {5: 801, 7: 57905},
}
ACCEPTANCE_I = {
    4: {3: 2, 4: 0, 5: 6, 6: 34, 7: 162, 8: 480, 9: 1808, 10: 6366},
    9: {4: 20, 5: 160, 6: 1080, 7: 8272},
}


def _encode(x: int) -> bytes:
    raw = x.to_bytes((x.bit_length() + 8) // 8, "big", signed=True)
    return len(raw).to_bytes(4, "big") + raw


def pair_digest(f: int, i: int) -> str:
    """Digest of the exact (F, I) pair; equal digests mean equal integers."""
    h = hashlib.blake2b(_encode(f) + _encode(i), digest_size=DIGEST_HEX // 2)
    return h.hexdigest()


def scan_digest(rows) -> str:
    """Digest of a sequence of small-integer tuples (family statistics)."""
    h = hashlib.blake2b(digest_size=DIGEST_HEX // 2)
    for row in rows:
        for v in row:
            h.update(_encode(int(v)))
    return h.hexdigest()


class Reference:
    """Read-only view of reference.json."""

    def __init__(self, data: dict):
        self.exact = {
            int(q): [tuple(pair) for pair in rows] for q, rows in data["exact"].items()
        }
        self.digests = {int(q): s for q, s in data["digests"].items()}
        self.family = {int(p): v for p, v in data["family"].items()}

    @classmethod
    def load(cls, path: Path = REFERENCE_PATH) -> "Reference":
        with open(path, encoding="ascii") as fh:
            return cls(json.load(fh))

    def exact_pair(self, q: int, n: int) -> tuple[int, int] | None:
        rows = self.exact.get(q)
        if rows is None or not 1 <= n <= len(rows):
            return None
        return rows[n - 1]

    def matches(self, q: int, n: int, f: int, i: int) -> bool:
        """True when (F, I) equals the stored value; False also when absent."""
        pair = self.exact_pair(q, n)
        if pair is not None:
            return (f, i) == pair
        s = self.digests.get(q)
        if s is None or not 1 <= n <= len(s) // DIGEST_HEX:
            return False
        return s[(n - 1) * DIGEST_HEX : n * DIGEST_HEX] == pair_digest(f, i)


def oracle_cross_check(ref: Reference, max_elements: int) -> list[str]:
    """Compare every stored exact pair with q**n <= max_elements to the
    brute-force oracles and the acceptance tables; return the mismatches."""
    from tracezero.oracle import enum_f_count, enum_i_count

    bad = []
    for q in FIELDS:
        for n in range(1, EXACT_N_MAX + 1):
            if q**n > max_elements:
                break
            want = ref.exact_pair(q, n)
            got = (enum_f_count(q, n), enum_i_count(q, n))
            if want != got:
                bad.append(f"q={q} n={n}: stored {want}, oracles {got}")
    for table, slot in ((ACCEPTANCE_F, 0), (ACCEPTANCE_I, 1)):
        for q, col in table.items():
            for n, v in col.items():
                pair = ref.exact_pair(q, n)
                if pair is None or pair[slot] != v:
                    bad.append(f"q={q} n={n}: stored {pair} vs published {v}")
    return bad
