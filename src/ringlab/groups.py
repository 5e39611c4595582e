"""Finite groups as Cayley tables with 0-based element indices."""

from __future__ import annotations

import itertools
from math import lcm, prod

import numpy as np

from .core import OutOfCapError, Record, all_digits, encode_digits

GROUP_ORDER_CAP = 64


class GroupError(Exception):
    """Raised when a Cayley table fails the group axioms."""


class UnsupportedGroupError(Exception):
    """Raised for group constructions outside the fixed catalogue."""


class GroupTable(Record):
    """A finite group: `op[a, b]` is the index of the product a*b.

    Elements are the indices 0..order-1; `names` carries a printable label
    per index, `inverse` the index of each inverse and `element_orders`
    each element's order. `exponent` is the lcm of all element orders and
    `is_2group` holds exactly when the order is a power of two.
    """

    __slots__ = ("order", "op", "identity", "names", "inverse", "element_orders", "exponent", "is_2group")
    _defaults = {"inverse": None, "element_orders": None, "exponent": 0, "is_2group": False}

    def mul(self, a: int, b: int) -> int:
        return int(self.op[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])


def _element_order(op: np.ndarray, identity: int, a: int) -> int:
    x = a
    n = 1
    while x != identity:
        x = int(op[x, a])
        n += 1
    return n


def make_group(op, identity: int, names=None) -> GroupTable:
    """Validate a Cayley table and derive inverses, orders and flags."""
    op = np.asarray(op, dtype=np.int32)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise GroupError("Cayley table must be square")
    n = op.shape[0]
    if n < 1:
        raise GroupError("empty Cayley table")
    if not (0 <= identity < n):
        raise GroupError(f"identity index {identity} out of range")
    if op.min() < 0 or op.max() >= n:
        raise GroupError("Cayley table entry out of range")
    if not (np.array_equal(op[identity, :], np.arange(n)) and np.array_equal(op[:, identity], np.arange(n))):
        raise GroupError(f"index {identity} is not a two-sided identity")
    # associativity: (ab)c == a(bc), exhaustive (orders are capped at 64)
    left = op[op, :]  # left[a,b,c] = op[op[a,b], c]
    right = op[:, op]  # right[a,b,c] = op[a, op[b,c]]
    if not np.array_equal(left, right):
        a, b, c = map(int, np.argwhere(left != right)[0])
        raise GroupError(f"non-associative at ({a},{b},{c})")
    inv = np.full(n, -1, dtype=np.int32)
    for a in range(n):
        hits = np.where(op[a, :] == identity)[0]
        if len(hits) == 0 or int(op[int(hits[0]), a]) != identity:
            raise GroupError(f"element {a} has no two-sided inverse")
        inv[a] = int(hits[0])
    if names is None:
        names = tuple(f"g{i}" for i in range(n))
    else:
        names = tuple(names)
        if len(names) != n:
            raise GroupError("names length mismatch")
    orders = tuple(_element_order(op, identity, a) for a in range(n))
    exponent = lcm(*orders) if orders else 1
    is_2group = n & (n - 1) == 0
    op.setflags(write=False)
    inv.setflags(write=False)
    return GroupTable(
        order=n,
        op=op,
        identity=identity,
        names=names,
        inverse=inv,
        element_orders=orders,
        exponent=exponent,
        is_2group=is_2group,
    )


def cyclic(n: int) -> GroupTable:
    """C(n), elements g^0..g^(n-1) with index i for g^i."""
    if n < 1:
        raise UnsupportedGroupError("cyclic group order must be >= 1")
    if n > GROUP_ORDER_CAP:
        raise OutOfCapError(f"group order {n} exceeds cap {GROUP_ORDER_CAP}")
    op = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    names = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return make_group(op, 0, names)


def dihedral(n: int) -> GroupTable:
    """D(n) of order 2n; index f*n+i encodes s^f r^i, with s r s = r^-1."""
    if n < 1:
        raise UnsupportedGroupError("dihedral parameter must be >= 1")
    if 2 * n > GROUP_ORDER_CAP:
        raise OutOfCapError(f"group order {2 * n} exceeds cap {GROUP_ORDER_CAP}")
    size = 2 * n
    op = np.zeros((size, size), dtype=np.int32)
    for f1 in (0, 1):
        for i1 in range(n):
            for f2 in (0, 1):
                for i2 in range(n):
                    f = f1 ^ f2
                    i = ((-i1 if f2 else i1) + i2) % n
                    op[f1 * n + i1, f2 * n + i2] = f * n + i
    names = []
    for f in (0, 1):
        for i in range(n):
            r = "" if i == 0 else ("r" if i == 1 else f"r^{i}")
            s = "s" if f else ""
            names.append((s + r) or "1")
    return make_group(op, 0, names)


_Q8_AXIS = {  # (axis, extra sign) for products of the generators 1,i,j,k
    (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
    (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
    (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
    (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
}


def quaternion8() -> GroupTable:
    """Q8 = {1,-1,i,-i,j,-j,k,-k}, index 2*axis + sign."""
    op = np.zeros((8, 8), dtype=np.int32)
    for e1 in range(4):
        for s1 in (0, 1):
            for e2 in range(4):
                for s2 in (0, 1):
                    e, s = _Q8_AXIS[(e1, e2)]
                    op[2 * e1 + s1, 2 * e2 + s2] = 2 * e + (s1 ^ s2 ^ s)
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    return make_group(op, 0, names)


def _cycle_notation(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        out.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(out) or "id"


def symmetric(n: int) -> GroupTable:
    """S(n) for n <= 4; permutations in lexicographic one-line order."""
    if not 1 <= n <= 4:
        raise UnsupportedGroupError("symmetric groups supported for n <= 4 only")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    op = np.zeros((size, size), dtype=np.int32)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            op[i, j] = index[tuple(p[q[x]] for x in range(n))]
    names = tuple(_cycle_notation(p) for p in perms)
    return make_group(op, 0, names)


def direct_product(groups: list[GroupTable]) -> GroupTable:
    """Direct product; the first factor is the least-significant digit."""
    if not groups:
        raise UnsupportedGroupError("empty product")
    radices = [g.order for g in groups]
    total = prod(radices)
    if total > GROUP_ORDER_CAP:
        raise OutOfCapError(f"group order {total} exceeds cap {GROUP_ORDER_CAP}")
    digits = all_digits(radices)
    # component f of a*b is groups[f].op[a_f, b_f], one gather per factor
    parts = [g.op[np.ix_(digits[:, f], digits[:, f])] for f, g in enumerate(groups)]
    op = encode_digits(np.stack(parts, axis=-1), radices)
    identity = int(encode_digits(np.array([g.identity for g in groups]), radices))
    names = tuple("(" + ", ".join(g.names[p] for g, p in zip(groups, cells)) + ")" for cells in digits.tolist())
    return make_group(op, identity, names)


def group_from_text(text: str) -> GroupTable:
    """Parse the Cayley-table file format.

    Line 1: `order n`; line 2: `identity i`; then n rows of n indices.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if len(lines) < 2 or not lines[0].lower().startswith("order") or not lines[1].lower().startswith("identity"):
        raise GroupError("expected 'order n' and 'identity i' header lines")
    try:
        n = int(lines[0].split()[1])
        identity = int(lines[1].split()[1])
    except (IndexError, ValueError) as exc:
        raise GroupError(f"bad header: {exc}") from exc
    if n > GROUP_ORDER_CAP:
        raise OutOfCapError(f"group order {n} exceeds cap {GROUP_ORDER_CAP}")
    rows = lines[2:]
    if len(rows) != n:
        raise GroupError(f"expected {n} table rows, found {len(rows)}")
    op = np.array([[int(v) for v in row.split()] for row in rows], dtype=np.int32)
    if op.shape != (n, n):
        raise GroupError("table row length mismatch")
    return make_group(op, identity)


def group_from_file(path) -> GroupTable:
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_text(fh.read())


def p_group_prime(group: GroupTable) -> int | None:
    """The prime p when |G| is a nontrivial p-power, else None."""
    n = group.order
    if n == 1:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        p = n
    while n % p == 0:
        n //= p
    return p if n == 1 else None
