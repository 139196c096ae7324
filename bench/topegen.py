"""Seeded tope entailment queries and their plain-JSON form.

The benchmark generates queries as JSON-able lists so that the process
under test receives only the generated inputs; ``decode`` turns them into
``stt.syntax`` trees.  A query is [context, hyps, goal]; a context is a
list of [name, "I" | "I*I"].
"""

from __future__ import annotations

from stt.syntax import (
    Cube0, Cube1, Fst, Interval, Join, Meet, Pair, ProdCube, Snd, TopeAnd,
    TopeBot, TopeEq, TopeLeq, TopeOr, TopeTop, Var,
)

MAX_ATOMS = 6


def query(rng, k: int) -> list:
    """A random query whose context has k interval atoms; some contexts use
    I * I variables, reached through fst/snd, pairs and componentwise ==."""
    pairs = rng.randint(1, k // 2) if k >= 2 and rng.random() < 0.4 else 0
    ctx = ([[f"p{j}", "I*I"] for j in range(pairs)]
           + [[f"t{j}", "I"] for j in range(k - 2 * pairs)])
    rng.shuffle(ctx)
    leaves = [["0"], ["1"]]
    for name, sort in ctx:
        if sort == "I":
            leaves.append(["var", name])
        else:
            leaves += [["fst", ["var", name]], ["snd", ["var", name]]]
    products = [name for name, sort in ctx if sort == "I*I"]

    def cube(depth):
        if depth == 0 or rng.random() < 0.5:
            return rng.choice(leaves)
        return [rng.choice(("meet", "join")), cube(depth - 1), cube(depth - 1)]

    def atom():
        if products and rng.random() < 0.15:
            p = ["var", rng.choice(products)]
            other = (["var", rng.choice(products)] if rng.random() < 0.5
                     else ["pair", cube(1), cube(1)])
            return ["eq", p, other]
        return [rng.choice(("leq", "leq", "eq")), cube(2), cube(2)]

    def tope(depth):
        r = rng.random()
        if r < 0.04:
            return ["top"]
        if r < 0.06:
            return ["bot"]
        if depth == 0 or r < 0.4:
            return atom()
        return [rng.choice(("and", "or")), tope(depth - 1), tope(depth - 1)]

    hyps = ["top"] if rng.random() < 0.15 else tope(2)
    r = rng.random()
    if r < 0.4:
        goal = tope(2)
    elif r < 0.7:
        # a weakening of the hypotheses, so that some verdicts are true
        part = hyps
        while part[0] == "and" and rng.random() < 0.7:
            part = part[rng.choice((1, 2))]
        goal = ["or", part, tope(1)] if rng.random() < 0.5 else part
    else:
        goal = ["or", atom(), atom()]
    return [ctx, hyps, goal]


def round_of_queries(rng, per_atoms: int) -> list:
    """One round: ``per_atoms`` queries for each atom count 1..MAX_ATOMS,
    in a seeded order."""
    queries = [query(rng, k) for k in range(1, MAX_ATOMS + 1)
               for _ in range(per_atoms)]
    rng.shuffle(queries)
    return queries


_CUBE = {"meet": Meet, "join": Join, "pair": Pair}
_TOPE = {"and": TopeAnd, "or": TopeOr, "eq": TopeEq, "leq": TopeLeq}
_SORTS = {"I": Interval(), "I*I": ProdCube(Interval(), Interval())}


def cube_term(e):
    tag = e[0]
    if tag == "var":
        return Var(e[1])
    if tag == "0":
        return Cube0()
    if tag == "1":
        return Cube1()
    if tag == "fst":
        return Fst(cube_term(e[1]))
    if tag == "snd":
        return Snd(cube_term(e[1]))
    return _CUBE[tag](cube_term(e[1]), cube_term(e[2]))


def tope_term(e):
    tag = e[0]
    if tag == "top":
        return TopeTop()
    if tag == "bot":
        return TopeBot()
    if tag in ("and", "or"):
        return _TOPE[tag](tope_term(e[1]), tope_term(e[2]))
    return _TOPE[tag](cube_term(e[1]), cube_term(e[2]))


def decode(q) -> tuple:
    ctx, hyps, goal = q
    return (tuple((name, _SORTS[sort]) for name, sort in ctx),
            tope_term(hyps), tope_term(goal))
