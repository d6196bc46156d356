"""Shared error type, and every input ceiling with the checks that enforce it.

charvar prints its answers in full, and they grow linearly in the free-group
rank r and in the rank of a type, so each input that feeds them is capped
here.  `require_r` checks every r; `require_at_most` and `parse_digits` word
the checks several inputs share, and the rest keep their own wording where
the value arises.
"""


class CharvarError(ValueError):
    """Raised when an input is outside the mathematical domain of an operation."""


# Largest rank of a classical type: marks and gradings are lists of n entries.
MAX_RANK = 10**4
# Largest free-group rank r.  Codimensions, weights and pi_k ranks grow
# linearly in r and are printed; 10**11 still reaches the M and factor ceilings.
MAX_FREE_RANK = 10**12
# Largest M for which a homology support is given: it bounds the degree list
# the CLI prints (2M + 2 numbers), not the support itself.
MAX_M = 10**6
# pi_k(G)^r repeats each invariant factor of pi_k(G) r times, and the answer
# is built and printed in full, so r times that count is bounded.
MAX_FACTORS = 2 * 10**5
# A database file is read whole before it is parsed, so its length is bounded.
MAX_DB_CHARS = 10**6
# CPython refuses to print an int of more than 4300 decimal digits, and an
# answer is printed in full, so an invariant factor built from a primary form
# has at most this many bits (2^14000 has 4215 digits).
MAX_FACTOR_BITS = 14_000


def require_at_most(value: int, ceiling: int, what: str) -> None:
    if value > ceiling:
        raise CharvarError(f"{what} is above the ceiling {ceiling}")


def parse_digits(text: str, what: str) -> int:
    """int(text), refused past the digits int() converts (4300 by default).

    Only that refusal is reworded: the ValueError of a text that is no
    integer at all (`x`, `3,b`) passes through unchanged.
    """
    try:
        return int(text)
    except ValueError as exc:
        if not str(exc).startswith("Exceeds the limit"):
            raise
        raise CharvarError(f"{what} has too many digits") from None


def require_r(r: int, needs: str = "bounds require", least: int = 2) -> None:
    """Every free-group rank is checked here: r >= least, r <= MAX_FREE_RANK."""
    if r < least:
        raise CharvarError(f"{needs} free-group rank r >= {least}")
    require_at_most(r, MAX_FREE_RANK, "free-group rank r")
