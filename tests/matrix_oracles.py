"""Matrix predicates over Z_q that only tests need.

`mat_equal` compares entries at their overlapping precision, and
`mat_det_valuation` reads v_p(det A) off the library Smith form.
"""

from fqzeta.plinalg import smith_normal_form


def mat_equal(A, B):
    if len(A) != len(B) or (A and len(A[0]) != len(B[0])):
        return False
    return all(x.same_value(y) for ra, rb in zip(A, B)
               for x, y in zip(ra, rb))


def mat_det_valuation(A):
    """v_p(det A) as the sum of divisor exponents; None if singular."""
    snf = smith_normal_form(A)
    if any(e is None for e in snf.divisors):
        return None
    return sum(snf.divisors)
