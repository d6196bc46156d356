"""Invariant factors of a list of cyclic orders, by filling slots.

The tests' oracle for `FgAbelianGroup.from_torsion`, which builds the same
factors from prime-power counts one run at a time: here every prime power
goes to its own slot.
"""

from __future__ import annotations

from collections import Counter, defaultdict


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def slot_fill(moduli) -> tuple[int, ...]:
    """d_1 | d_2 | ... of the sum of Z_m over `moduli` (each m >= 1): the
    i-th largest factor is the product of each prime's i-th largest power."""
    per_prime: dict[int, list[int]] = defaultdict(list)
    for m, count in Counter(moduli).items():
        for p, e in _factorize(m).items():
            per_prime[p] += [p**e] * count
    factors = [1] * max(map(len, per_prime.values()), default=0)
    for powers in per_prime.values():
        powers.sort(reverse=True)
        for slot, q in enumerate(powers):
            factors[slot] *= q
    return tuple(reversed(factors))
