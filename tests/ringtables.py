"""Ring-table helpers shared by the tests."""

import numpy as np

from ringlab.core import TableRing
from ringlab.subsets import _join_masks, principal_ideals

CAP_RINGS = ("t(2,z(16))", "m(2,z(8))", "group(z(2),c(12))")

# products whose factors have J# != 0, in both orders, so that L1.2.6 sees
# which digit is which factor
EXTRA_RINGS = ("prod(z(4),gf(4))", "prod(gf(4),z(2),z(4))")

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


def bitwise_add_formula(n, high):
    """The bitwise addition table of order n with top bits `high`, from the
    word formula ((i & L) + (j & L)) ^ ((i ^ j) & H), L = ~H, in one piece."""
    i = np.arange(n, dtype=np.uint16)
    low = i & np.uint16(~high & 0xFFFF)
    return (low[:, None] + low) ^ ((i[:, None] ^ i) & np.uint16(high))


def joined_ideals(ring, principal):
    """Every sum of the ideals whose masks are the rows of `principal`, as
    `subsets._join_masks` joins them, each a frozenset, sorted by (size, members)."""
    return sorted((frozenset(np.flatnonzero(mask).tolist()) for mask in _join_masks(ring, principal)), key=lambda s: (len(s), sorted(s)))


def ideal_masks(ring, ideals):
    """The (len(ideals), n) masks of the member sets `ideals`."""
    return np.array([np.isin(np.arange(ring.order), list(ideal)) for ideal in ideals])


def two_sided_ideals(ring):
    """Every two-sided ideal, the joins of the principal ones (a), as frozensets sorted by (size, members)."""
    return joined_ideals(ring, principal_ideals(ring))


def join_closure_oracle(ring, principal):
    """Every sum of ideals from the set `principal`, each sum a frozenset of
    the sums i + j read pair by pair, sorted by (size, members)."""
    ideals = set(principal)
    frontier = list(principal)
    while frontier:
        nxt = []
        for i in frontier:
            ia = np.array(sorted(i), dtype=np.int64)
            for j in principal:
                ja = np.array(sorted(j), dtype=np.int64)
                s = frozenset(int(x) for x in ring.add[np.ix_(ia, ja)].ravel())
                if s not in ideals:
                    ideals.add(s)
                    nxt.append(s)
        frontier = nxt
    return sorted(ideals, key=lambda s: (len(s), sorted(s)))
