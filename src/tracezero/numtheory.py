"""Integer helpers: deterministic primality, factorisation, Moebius function.

squarefree_divisors is the one Moebius kernel the closed forms sum over:
every d | m with mobius(d) != 0, paired with its sign, so no zero term is
ever built.

Everything here is trial-division based; the supported workloads keep the
arguments below ~2**24, where this is plenty fast and has no probabilistic
failure mode.
"""

from functools import lru_cache


def is_prime(m: int) -> bool:
    """Deterministic trial division up to sqrt(m)."""
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=None)
def factorization(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorisation of m >= 1 as ((p, e), ...), ascending p."""
    if m < 1:
        raise ValueError(f"cannot factor {m}")
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def prime_factors(m: int) -> tuple[int, ...]:
    """Distinct prime divisors of m, ascending."""
    return tuple(p for p, _ in factorization(m))


def divisors(m: int) -> list[int]:
    """All positive divisors of m, ascending."""
    divs = [1]
    for p, e in factorization(m):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def squarefree_divisors(m: int, skip: int = 0) -> list[tuple[int, int]]:
    """(d, mobius(d)) for every squarefree d | m that the prime skip does
    not divide (skip = 0 keeps them all), built by subset doubling.

    The squarefree divisors are the only d | m with mobius(d) != 0.  Each
    prime factor taken doubles the list, and the copies flip sign.
    """
    out = [(1, 1)]
    for p in prime_factors(m):
        if p != skip:
            out += [(d * p, -mu) for d, mu in out]
    return out


def mobius(m: int) -> int:
    """1 on m = 1, (-1)**k on squarefree m with k prime factors, else 0."""
    if m < 1:
        raise ValueError(f"mobius undefined for {m}")
    if m == 1:
        return 1
    fac = factorization(m)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def prime_power_parts(q: int) -> tuple[int, int]:
    """Write q = p**r with p prime, or raise ValueError."""
    fac = factorization(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    return fac[0]
