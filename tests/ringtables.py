"""Ring-table helpers shared by the tests."""

import numpy as np

from ringlab.core import TableRing

CAP_RINGS = ("t(2,z(16))", "m(2,z(8))", "group(z(2),c(12))")

# digit-vector rings over bases whose addition is bitwise, up to order 4096: every
# base kind (z(2^k), gf(2^d), a digit-vector base), every construction, and mixed
# field widths in one index
BITWISE_RINGS = CAP_RINGS + (
    "gf(4)", "gf(8)", "m(2,z(2))", "m(2,z(4))", "m(3,z(2))", "m(2,gf(4))", "m(2,gf(8))",
    "t(2,z(2))", "t(3,z(2))", "t(3,z(4))", "t(2,gf(8))", "prod(z(2),z(4))", "prod(z(4),gf(8),z(2))",
    "prod(z(16),z(16),z(16))", "group(z(2),c(4))", "group(z(4),c(6))", "group(gf(4),c(6))",
    "group(triv(z(4)),c(2))", "group(z(2),q8)", "poly(z(2),12)", "poly(z(8),4)", "skew(gf(4),frob,3)",
    "triv(z(8))", "triv(m(2,z(2)))", "triv(gf(8))",
)


def tables_equal(a, b) -> bool:
    """Whether two rings have the same order, zero, one and tables."""
    return (
        a.order == b.order
        and a.zero == b.zero
        and a.one == b.one
        and np.array_equal(a.add, b.add)
        and np.array_equal(a.mul, b.mul)
    )


def without_basis(ring):
    """The ring over the same tables with no basis, so the subsets take their n^2 forms."""
    return TableRing(ring.order, ring.add, ring.mul, ring.neg, ring.zero, ring.one, ring.name_of, ring.meta, ring.validation)
