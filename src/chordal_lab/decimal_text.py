"""Exact decimal text of big integers in subquadratic time.

CPython 3.11's ``str(int)`` is quadratic in the number of digits and, by
default, refuses to write more than 4300 of them.  Chordal counts on n
vertices have about 0.075 * n**2 digits, so an n = 1000 count (75k digits)
cannot be printed with ``str()`` unless the process lifts that guard, and an
n = 3000 count takes seconds.  ``decimal_string`` needs neither.
"""

from __future__ import annotations

# Values up to this many bits (at most 3914 digits) go through str(): it is
# fast there, and always below the interpreter's 4300-digit guard.
STR_BITS = 13_000

# Pieces this small are converted by the Decimal constructor directly.
_LEAF_BITS = 1024


def decimal_string(value: int) -> str:
    """``str(value)`` in subquadratic time, for ints of any size.

    Splits the bits in halves, value = hi * 2**k + lo, converts each half to
    an exact ``decimal.Decimal`` recursively and recombines them there.
    libmpdec keeps decimal digits natively and multiplies big operands by
    number-theoretic transform, so the recombination is subquadratic and the
    final ``str`` is linear.  The conversion changes no process-wide setting:
    it works in a local decimal context with unlimited precision and the
    Inexact trap set, so any rounding would raise instead of passing silently.
    """
    if value < 0:
        return "-" + decimal_string(-value)
    if value.bit_length() <= STR_BITS:
        return str(value)
    import decimal

    powers: dict[int, decimal.Decimal] = {}

    def two_to(k: int) -> decimal.Decimal:
        # The halves at one depth differ in width by at most one, so a few
        # widths per depth cover every split and each power is built once.
        p = powers.get(k)
        if p is None:
            if k <= _LEAF_BITS:
                p = decimal.Decimal(1 << k)
            else:
                p = two_to(k >> 1) * two_to(k - (k >> 1))
            powers[k] = p
        return p

    def convert(v: int, width: int) -> decimal.Decimal:
        if width <= _LEAF_BITS:
            return decimal.Decimal(v)
        k = width >> 1
        hi = v >> k
        return convert(hi, width - k) * two_to(k) + convert(v - (hi << k), k)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(value, value.bit_length()))
