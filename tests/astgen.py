"""Seeded random AST generator for parser round-trip tests."""

import random

FILE_PATHS = ("tbl/g1.tbl", "alpha.endo", "data/q_extra.txt", "h-2.grp")


def random_group(rng: random.Random, depth: int):
    kinds = ["c", "d", "q8", "s", "file"]
    if depth > 0:
        kinds.append("prod")
    kind = rng.choice(kinds)
    if kind == "c":
        return ("c", rng.randint(1, 12))
    if kind == "d":
        return ("d", rng.randint(1, 9))
    if kind == "q8":
        return ("q8",)
    if kind == "s":
        return ("s", rng.randint(1, 4))
    if kind == "file":
        return ("@", rng.choice(FILE_PATHS))
    atoms = tuple(random_group(rng, 0) for _ in range(rng.randint(2, 3)))
    return ("x", atoms)


def random_endo(rng: random.Random):
    kind = rng.choice(["id", "frob", "file"])
    if kind == "file":
        return ("@", rng.choice(FILE_PATHS))
    return (kind,)


def random_ring(rng: random.Random, depth: int):
    leaves = ["z", "gf"]
    inner = ["m", "t", "prod", "quot", "corner", "triv", "group", "poly", "skew"]
    kind = rng.choice(leaves if depth <= 0 else leaves + inner)
    if kind == "z":
        return ("z", rng.randint(2, 97))
    if kind == "gf":
        return ("gf", rng.choice((2, 3, 4, 5, 7, 8, 9, 25, 49)))
    if kind == "m":
        return ("m", rng.randint(1, 3), random_ring(rng, depth - 1))
    if kind == "t":
        return ("t", rng.randint(1, 3), random_ring(rng, depth - 1))
    if kind == "prod":
        return ("prod", tuple(random_ring(rng, depth - 1) for _ in range(rng.randint(1, 3))))
    if kind == "quot":
        gens = tuple(rng.randint(0, 40) for _ in range(rng.randint(1, 3)))
        return ("quot", random_ring(rng, depth - 1), gens)
    if kind == "corner":
        return ("corner", random_ring(rng, depth - 1), rng.randint(0, 40))
    if kind == "triv":
        return ("triv", random_ring(rng, depth - 1))
    if kind == "group":
        return ("group", random_ring(rng, depth - 1), random_group(rng, 1))
    if kind == "poly":
        return ("poly", random_ring(rng, depth - 1), rng.randint(1, 5))
    return ("skew", random_ring(rng, depth - 1), random_endo(rng), rng.randint(1, 5))


def generate(count: int, seed: int = 0xA5, max_depth: int = 4):
    rng = random.Random(seed)
    return [random_ring(rng, rng.randint(0, max_depth)) for _ in range(count)]
