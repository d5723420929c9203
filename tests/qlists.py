"""Reference arithmetic on truncated Laurent series, for the tests: plain loops over lists.

A value is ``Terms(offset, order, coeffs)``: ``coeffs[i]`` is the coefficient
of q^(offset + i), every coefficient up to q^order is exact, and each exponent
outside the list has coefficient 0.  Every function takes anything with those
three attributes, a ``hooklab.Series`` included, and returns ``Terms`` in the
form ``Series.make`` stores: nothing above the order, no leading or trailing
zero, and a zero series at offset 0.  So ``of(series) == value`` compares a
series with a value computed here, field by field.

Nothing here imports hooklab.  A test that states an identity with these
functions shares no kernel with the code it checks: no ``_nested_sum`` in the
sums and no Kronecker substitution in the products.
"""

from collections import namedtuple

Terms = namedtuple("Terms", "offset order coeffs")


def make(coeffs, order, offset=0):
    """coeffs from q^offset on, in the stored form."""
    kept = list(coeffs)[: max(order - offset + 1, 0)]
    while kept and kept[-1] == 0:
        kept.pop()
    lead = 0
    while lead < len(kept) and kept[lead] == 0:
        lead += 1
    if lead == len(kept):
        return Terms(0, order, ())
    return Terms(offset + lead, order, tuple(kept[lead:]))


def of(s):
    """The fields of s as they are, not brought into the stored form."""
    return Terms(s.offset, s.order, tuple(s.coeffs))


def add(a, b):
    """The sum, exact up to the lower order."""
    order, offset = min(a.order, b.order), min(a.offset, b.offset)
    dense = [0] * max(order - offset + 1, 0)
    for s in (a, b):
        for i, c in enumerate(s.coeffs):
            if s.offset + i <= order:
                dense[s.offset + i - offset] += c
    return make(dense, order, offset)


def neg(a):
    return make([-c for c in a.coeffs], a.order, a.offset)


def shift(a, m):
    """a times q^m: the offset and the order move together."""
    return make(a.coeffs, a.order + m, a.offset + m)


def mul(a, b):
    """The schoolbook product, exact up to each order plus the other's offset, the lower one."""
    order = min(a.order + b.offset, b.order + a.offset)
    offset = a.offset + b.offset
    dense = [0] * max(order - offset + 1, 0)
    for i, x in enumerate(a.coeffs[: len(dense)]):
        for j, y in enumerate(b.coeffs[: len(dense) - i]):
            dense[i + j] += x * y
    return make(dense, order, offset)
