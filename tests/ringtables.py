"""Ring-table helpers shared by the tests."""

import numpy as np

from ringlab.core import TableRing


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
