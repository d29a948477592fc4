"""Integer coefficient lists: the one product of ``hbar`` and ``series``.

A list ``c`` stands for sum_k c[k] x^k, lowest degree first.  An hbar
polynomial is a content times a primitive integer tuple, and a series over
Q is integer numerators over one denominator (``clear``), so every product
of either is one call of ``mul``; ``mul_linear`` multiplies by linear forms.

``mul`` multiplies by schoolbook, one multiply-add per pair of
coefficients, when the shorter operand has fewer than ``PACK_FROM``
coefficients, and packed otherwise (Kronecker substitution): each operand
becomes one ``int`` with a fixed-width slot per coefficient (``pack``,
``slot_bytes``), one big-integer multiply forms the whole Cauchy product,
and the low slots are read back as signed digits (``unpack``).
``series._q_compose`` packs the powers of a series with the same helpers.

The rule comes from timing both routes on every product of the
benchmark's commands and of ``transformations --order 8/12`` (2 vCPUs,
Python 3.11).  Packing wins from 12-16 coefficients at 64 bits and 24-32
at 700; splits by bit size gained at most 0.3% on any command, so the
rule reads lengths only.  ``transformations --order 12`` makes 1136 hbar
products of 24 or more coefficients: 1.84 s packed, 2.02 s by schoolbook.
"""

from __future__ import annotations

from math import lcm

__all__ = ["PACK_FROM", "bits", "clear", "mul", "mul_linear", "pack",
           "slot_bytes", "unpack"]

PACK_FROM = 24      # shorter operand length from which mul packs


def clear(values) -> tuple[list[int], int]:
    """(nums, den) with values[i] = nums[i] / den for int/Fraction
    ``values``, den their least common denominator."""
    den = lcm(*[v.denominator for v in values])
    if den == 1:                        # shares the ints, copies none
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def bits(nums) -> int:
    """The bit length of the widest entry of a nonempty list."""
    return max(max(nums), -min(nums)).bit_length()


def slot_bytes(a_bits: int, b_bits: int, terms: int) -> int:
    # A digit sum_i a_i b_(k-i) of at most ``terms`` products has
    # |c| < terms * 2^a_bits * 2^b_bits <= 2^(a_bits + b_bits + bits(terms)),
    # so a slot of a_bits + b_bits + bits(terms) + 1 bits (the extra one
    # is the sign) holds it as a signed digit.  Rounded up to whole bytes.
    return (a_bits + b_bits + terms.bit_length() + 1 + 7) // 8


def pack(nums, width: int) -> int:
    """sum_i nums[i] * 256^(width*i), in linear time.

    Each slot holds its digit minus a borrow of 1 when the slot below
    went negative, in ``width``-byte two's complement; |nums[i]| must
    fit the signed slot with room for the borrow.
    """
    parts, borrow = [], 0
    for a in nums:
        a -= borrow
        parts.append(a.to_bytes(width, "little", signed=True))
        borrow = a < 0
    return int.from_bytes(b"".join(parts), "little", signed=True)


def unpack(packed: int, n: int, width: int) -> list[int]:
    """The low ``n`` signed digits of ``packed`` (inverse of ``pack``).

    Reading a slot as signed leaves the borrow it lent the slot above
    when it is negative; adding that borrow back gives the next digit.
    Each digit must lie strictly inside the signed slot range.
    """
    size = n * width
    raw = (packed & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    out, borrow = [], 0
    for k in range(0, size, width):
        s = int.from_bytes(raw[k:k + width], "little", signed=True)
        out.append(s + borrow)
        borrow = s < 0
    return out


def mul(a, b, n: int | None = None) -> tuple[int, ...]:
    """The first ``n`` coefficients of the product of integer lists ``a``
    and ``b`` as a tuple, zeros past its degree; all of it when ``n`` is
    None."""
    if len(a) > len(b):
        a, b = b, a
    if n is None:
        if a == (1,):                   # hbar's one primitive constant
            return tuple(b)
        n = len(a) + len(b) - 1 if a else 0
    elif len(b) > n:
        a, b = a[:n], b[:n]
    if len(a) >= PACK_FROM:
        width = slot_bytes(bits(a), bits(b), len(a))
        return tuple(unpack(pack(a, width) * pack(b, width), n, width))
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b if len(b) + i <= n else b[:n - i], i):
                out[j] += x * y
    return tuple(out)


def mul_linear(a, roots: dict) -> tuple[int, ...]:
    """a * prod (q x - p)^k over the items ((p, q), k) of ``roots``, for a
    nonempty list ``a``: the linear forms keyed by their roots p/q, as
    ``hbar`` keys its denominators."""
    a = tuple(a)
    for (p, q), k in roots.items():
        for _ in range(k):
            a = (-p * a[0], *[q * x - p * y for x, y in zip(a, a[1:])],
                 q * a[-1])
    return a
