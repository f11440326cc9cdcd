"""Seeded workload inputs as plain, JSON-ready data.

Every workload is a fixed list of operations (one *round*); a run
repeats whole rounds, so each run times the same mix.  The list has
the same shape for every seed: each slot fixes the size class of its
input (poset size and lower-set count, lattice shape, carrier size,
generator count), and the seed only picks the instance inside that
class.  Operations of one workload therefore cost about the same
across seeds, which keeps medians comparable between runs.

Nothing here imports localix.
"""

from __future__ import annotations

import random

import oracles as orc

# -- kernel -------------------------------------------------------------------

# (points, lower sets) per seeded poset slot.  Lattice construction and
# validation cost grows with the square of the number of lower sets, so
# fixing it per slot fixes the slot's cost for every seed; the sizes form
# a ladder from 48 to 112.
KERNEL_POSETS = [
    (7, 48), (8, 52), (9, 56), (10, 60), (7, 64), (8, 68), (9, 72),
    (10, 76), (7, 80), (8, 88), (9, 96), (10, 104), (8, 112),
]
KERNEL_POWERSET_POINTS = 6

# Labels that look like the package's own serialized shapes.  The JSON
# round trip decodes '1' as an int and '{b}', '(c)' as a frozenset and a
# tuple, so this slot fails in every round; it does not depend on the seed.
SHAPED_POSET = {
    "elements": ["1", "a", "{b}", "(c)", "d", "e", "f", "g"],
    "pairs": [["1", "a"], ["a", "{b}"], ["d", "e"], ["(c)", "f"], ["e", "g"]],
}
SHAPED_HOMS = (
    {"elements": ["x", "y", "z"], "pairs": [["x", "y"], ["y", "z"]]},
    {"elements": ["p", "q"], "pairs": []},
)


def random_poset(rng: random.Random, labels: list, density: float) -> dict:
    """A random order on ``labels``: pairs go up a shuffled ranking."""
    ranked = labels[:]
    rng.shuffle(ranked)
    pairs = [
        [ranked[i], ranked[j]]
        for i in range(len(ranked))
        for j in range(i + 1, len(ranked))
        if rng.random() < density
    ]
    return {"elements": labels, "pairs": pairs}


def _poset_with_lower_sets(rng: random.Random, labels: list, count: int) -> dict:
    while True:
        p = random_poset(rng, labels, rng.uniform(0.05, 0.35))
        if orc.poset_count_down_sets(p) == count:
            return p


def _small_poset(rng: random.Random, names: str) -> dict:
    return random_poset(rng, list(names[: rng.randint(2, 3)]), 0.5)


def kernel(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for k, (n, count) in enumerate(KERNEL_POSETS):
        labels = list(range(n)) if k % 2 == 0 else [f"p{i}" for i in range(n)]
        ops.append({
            "kind": "poset",
            "poset": _poset_with_lower_sets(rng, labels, count),
            "homs": (_small_poset(rng, "xyz"), _small_poset(rng, "uvw")),
        })
    for _ in range(2):
        pts = rng.sample("abcdefghijklmnopqrstuvwxyz", KERNEL_POWERSET_POINTS)
        ops.append({
            "kind": "powerset",
            "points": pts,
            "homs": (_small_poset(rng, "xyz"), _small_poset(rng, "uvw")),
        })
    ops.append({"kind": "poset", "poset": SHAPED_POSET, "homs": SHAPED_HOMS, "shaped": True})
    return ops


# -- engines ------------------------------------------------------------------

# One lattice per slot: the lower sets of a poset of fixed shape on the
# points 0..points-1, given as (points, order pairs).  The points are not
# relabelled per seed: the labels set the hash order that the fixpoints
# iterate in, and relabelling moved the cost of one slot's `dissolve` by
# up to 18% between seeds.  The seed draws the coverages, polyorders and
# presentations.  Fifteen slots put the p90 in the middle of one slot's
# samples (0.9 * 15 = 13.5) rather than on the edge between two.
ENGINE_SHAPES = [
    # the chains of 5, 6 and 7 elements
    (4, [(0, 1), (1, 2), (2, 3)]), (5, [(i, i + 1) for i in range(4)]), (6, [(i, i + 1) for i in range(5)]),
    (3, [(0, 1)]), (3, []),
    (4, [(0, 1), (1, 2)]), (4, [(0, 2), (1, 2), (1, 3)]), (4, [(0, 1), (2, 3)]),
    (4, [(0, 1), (0, 2), (1, 3), (2, 3)]), (4, [(0, 1), (1, 2), (1, 3)]),
    (5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]), (5, [(0, 2), (1, 2), (2, 3), (2, 4)]),
    (4, [(0, 3), (1, 3), (2, 3)]), (5, [(0, 1), (1, 2), (2, 3), (2, 4)]), (4, [(0, 1), (2, 3), (0, 3)]),
]
COVERAGE_MAX = 6  # the default carrier budget
# Polyorder generators of fixed shape over the carrier, relabelled per seed.
POLY_SHAPES = {3: [([0], [1]), ([1, 2], [])], 4: [([0, 1], [2]), ([3], [0])]}
# presented lattice size per (generators, kind); realize cost follows it
REALIZE_SIZE = {(3, "distributive"): 10, (4, "distributive"): 50, (3, "boolean"): 32}


def _pres_term(rng: random.Random, gens: str) -> list:
    r = rng.random()
    if r < 0.5:
        return ["var", rng.choice(gens)]
    a, b = rng.sample(gens, 2)
    return ["meet" if r < 0.75 else "join", ["var", a], ["var", b]]


def _presentation(rng: random.Random, ngens: int, nrels: int, kind: str) -> dict:
    gens = "abcd"[:ngens]
    rels = []
    while len(rels) < nrels:
        lhs, rhs = _pres_term(rng, gens), _pres_term(rng, gens)
        if lhs != rhs:
            rels.append([lhs, rhs])
    return {"gens": list(gens), "rels": rels, "kind": kind}


def _presentation_of_size(rng: random.Random, ngens: int, kind: str) -> dict:
    size = REALIZE_SIZE[(ngens, kind)]
    while True:
        p = _presentation(rng, ngens, rng.randint(1, 2), kind)
        if orc.presented_size(p["gens"], p["rels"], kind) == size:
            return p


def engines(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for k, (n, pairs) in enumerate(ENGINE_SHAPES):
        poset = {"elements": list(range(n)), "pairs": [list(p) for p in pairs]}
        family = [sorted(s) for s in orc.poset_down_sets(poset)]
        op = {"poset": poset, "coverage": None}
        if len(family) <= COVERAGE_MAX:
            op["coverage"] = [
                [rng.choice(family), [rng.choice(family) for _ in range(rng.randint(1, 2))]]
                for _ in range(rng.randint(1, 2))
            ]
        carrier = rng.sample("pqrs", 3 + k % 2)
        op["polyposet"] = {
            "carrier": sorted(carrier),
            "gens": [[[carrier[i] for i in l], [carrier[i] for i in r]] for l, r in POLY_SHAPES[len(carrier)]],
        }
        kind = "boolean" if k % 6 == 5 else "distributive"
        op["presentation"] = _presentation_of_size(rng, 3 if kind == "boolean" else 3 + k % 2, kind)
        ops.append(op)
    return ops


# -- proof --------------------------------------------------------------------

# Sequents per operation, half of them derivable.  The cost of a batch
# moves with the seed by several percent, so the batches have one size:
# the median over many like batches then moves far less than the cost
# of the one middle batch of a ladder of sizes would.
PROOF_BATCHES = [96] * 16
PROOF_GENS = "abcdef"
PROOF_DEPTH = 3
# Literals per sequent, and per underivable sequent.  Refutation search
# has no budget and its cost grows steeply with size: underivable
# sequents of 8-12 literals took up to 47 ms against a 1-4 ms mean, so
# a batch's cost hung on whether it drew one.  Under these caps no
# sequent took more than 4 ms, and batches of one size cost alike.
PROOF_LEAVES = 12
PROOF_REFUTED_LEAVES = 7


def seq_term(rng: random.Random, depth: int) -> list:
    if depth == 1 or rng.random() < 0.3:
        return ["neg" if rng.random() < 0.25 else "pos", rng.choice(PROOF_GENS)]
    return [rng.choice(["meet", "join"]), [seq_term(rng, depth - 1) for _ in range(rng.randint(2, 3))]]


def seq_neg(t: list) -> list:
    if t[0] == "pos":
        return ["neg", t[1]]
    if t[0] == "neg":
        return ["pos", t[1]]
    return ["join" if t[0] == "meet" else "meet", [seq_neg(c) for c in t[1]]]


def _key(t: list):
    if t[0] in ("pos", "neg"):
        return (t[0], t[1])
    return (t[0], frozenset(_key(c) for c in t[1]))


def _subterms(t: list, out: set) -> set:
    out.add(_key(t))
    if t[0] in ("meet", "join"):
        for c in t[1]:
            _subterms(c, out)
    return out


def blocks_share_subterm(left: list, right: list) -> bool:
    """Whether a subterm of a negated antecedent also occurs in the succedent.

    Interpolation assigns each term of the one-sided sequent to a block;
    a term reached from both sides is stored once and keeps one block.
    Such sequents are left out of the workload (see CHANGES.md).
    """
    lhs: set = set()
    rhs: set = set()
    for t in left:
        _subterms(seq_neg(t), lhs)
    for t in right:
        _subterms(t, rhs)
    return bool(lhs & rhs)


def _leaves(t: list) -> int:
    return 1 if t[0] in ("pos", "neg") else sum(_leaves(c) for c in t[1])


def random_sequent(rng: random.Random, depth: int = PROOF_DEPTH) -> tuple[list, list]:
    while True:
        left = [seq_term(rng, depth) for _ in range(rng.randint(1, 2))]
        right = [seq_term(rng, depth) for _ in range(rng.randint(1, 2))]
        if sum(map(_leaves, left + right)) <= PROOF_LEAVES and not blocks_share_subterm(left, right):
            return left, right


def proof(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for size in PROOF_BATCHES:
        want = {True: size // 2, False: size // 2}
        batch = []
        while len(batch) < size:
            left, right = random_sequent(rng)
            valid = orc.seq_valid(left, right)
            if not valid and sum(map(_leaves, left + right)) > PROOF_REFUTED_LEAVES:
                continue
            if want[valid]:
                want[valid] -= 1
                batch.append({"left": left, "right": right})
        ops.append({"sequents": batch})
    return ops


# -- cli ----------------------------------------------------------------------

CLI_SCRIPTS = 5
CLI_FORMATS = ("text", "json", "dot")


def _lx_term(t: list) -> str:
    if t[0] == "var":
        return t[1]
    sym = " & " if t[0] == "meet" else " | "
    return "(" + sym.join(_lx_term(s) for s in t[1:]) + ")"


def _lx_seq_term(t: list) -> str:
    if t[0] == "pos":
        return t[1]
    if t[0] == "neg":
        return "!" + t[1]
    sym = " & " if t[0] == "meet" else " | "
    return "(" + sym.join(_lx_seq_term(c) for c in t[1]) + ")"


def _lx_set(xs) -> str:
    return "{" + ", ".join(str(x) for x in xs) + "}"


def _lx_sequent(left: list, right: list) -> str:
    side = lambda ts: "{" + ", ".join(_lx_seq_term(t) for t in ts) + "}"  # noqa: E731
    return f"{side(left)} |- {side(right)}"


def _prove_fact(left: list, right: list) -> dict:
    return {"kind": "prove", "derivable": orc.seq_valid(left, right)}


def _interp_case(rng: random.Random) -> tuple[list, list, list, list]:
    a, b, c = rng.sample("pqrstu", 3)
    return [a, b], [b, c], [["meet", [["pos", a], ["pos", b]]]], [["join", [["pos", b], ["pos", c]]]]


def _relation(rng: random.Random, n: int) -> list:
    return [[i, j] for i in range(n) for j in range(i) if rng.random() < 0.4]


def _script(rng: random.Random) -> tuple[str, list, int]:
    """An .lx script with every statement kind, its expected record facts,
    and the number of graphs its DOT rendering holds."""
    gens = "abc"[: rng.randint(2, 3)]
    pres = _presentation(rng, len(gens), 1, "distributive")
    lhs, rhs = pres["rels"][0]
    poset = random_poset(rng, ["x", "y", "z", "w"][: rng.randint(3, 4)], 0.4)
    chain = rng.randint(3, 4)
    booln = rng.randint(2, 3)
    pts = ["p", "q", "r"]
    rng.shuffle(pts)
    opens = [pts[:1], pts[:2]]  # a chain of opens: closed, and it separates the points
    rel = _relation(rng, 4)
    chain_family = [list(range(i)) for i in range(chain)]
    cov = [rng.choice(chain_family), [rng.choice(chain_family)]]
    lv0 = ["u", "v", "x0"][: rng.randint(2, 3)]
    lv1 = ["w", "y0"][: rng.randint(1, 2)]
    edges = [(b, rng.choice(lv0)) for b in lv1]
    proves = [random_sequent(rng, 2) for _ in range(2)]
    il, ir, ileft, iright = _interp_case(rng)
    fun = {"s": rng.choice("pq"), "t": rng.choice("pq")}
    lines = [
        f"gens {' '.join(gens)};",
        f"rel {_lx_term(lhs)} <= {_lx_term(rhs)};",
        "poset P { " + ", ".join(poset["elements"])
        + (" : " + ", ".join(f"{a} <= {b}" for a, b in poset["pairs"]) if poset["pairs"] else "") + " };",
        "lattice L = downsets P;",
        f"lattice C = chain {chain};",
        f"lattice B = bool {booln};",
        "topology T { " + ", ".join(sorted(pts)) + " : " + ", ".join(_lx_set(o) for o in opens) + " };",
        "lattice O = opens T;",
        "relation R { 0, 1, 2, 3" + (" : " + ", ".join(f"{a} -> {b}" for a, b in rel) if rel else "") + " };",
        f"coverage Cov on C {{ {_lx_set(cov[0])} <| [{_lx_set(cov[1][0])}] }};",
        f"diagram D {{ [{', '.join(lv0)}], [{', '.join(lv1)}] : "
        + ", ".join(f"{a} -> {b}" for a, b in edges) + " };",
    ]
    facts = []
    for left, right in proves:
        lines.append(f"prove {_lx_sequent(left, right)};")
        facts.append(_prove_fact(left, right))
    lines.append(f"interp {_lx_set(il)} {_lx_set(ir)} {_lx_sequent(ileft, iright)};")
    facts.append({"kind": "interp", "shared_generators": sorted(set(il) & set(ir))})
    for name, irr in (("L", len(poset["elements"])), ("C", chain - 1), ("B", booln)):
        lines.append(f"dissolve {name};")
        facts.append({"kind": "dissolve", "base_irreducibles": irr})
    lines.append(f"baire T {_lx_set(rng.sample(pts, rng.randint(1, 2)))};")
    facts.append({"kind": "baire"})
    lines += ["prune R;", "prune D;", "spec;", "realize;", "ideals Cov;"]
    points = orc.spec_points(gens, pres["rels"])
    facts += [
        {"kind": "prune"},
        {"kind": "prune"},
        {"kind": "spec", "points": ["".join("1" if b else "0" for b in p) for p in points]},
        {"kind": "realize", "size": orc.presented_size(gens, pres["rels"])},
        {
            "kind": "ideals",
            "count": orc.cover_ideal_count(
                [frozenset(s) for s in chain_family], [(frozenset(cov[0]), [frozenset(cov[1][0])])]
            ),
        },
    ]
    lines.append(f"image {{{', '.join(f'{a} -> {b}' for a, b in fun.items())}}} in {{p, q}} of {{s}};")
    facts.append({"kind": "image"})
    # graph-shaped records: three dissolves, two prunes, realize, ideals
    return "\n".join(lines) + "\n", facts, 7


def _flag_ops(rng: random.Random) -> list[dict]:
    g = rng.sample("abcdxyz", 3)
    left, right = random_sequent(rng, 2)
    il, ir, ileft, iright = _interp_case(rng)
    chain = rng.randint(3, 5)
    booln = rng.randint(2, 3)
    rel = _relation(rng, 3)
    pres = _presentation(rng, 2, 1, "distributive")
    pres_lx = f"{_lx_term(pres['rels'][0][0])} <= {_lx_term(pres['rels'][0][1])}"
    points = orc.spec_points(pres["gens"], pres["rels"])
    return [
        {"argv": ["prove", _lx_sequent(left, right)], "facts": [_prove_fact(left, right)]},
        {
            "argv": ["interp", "--left", ",".join(il), "--right", ",".join(ir), _lx_sequent(ileft, iright)],
            "facts": [{"kind": "interp", "shared_generators": sorted(set(il) & set(ir))}],
        },
        {"argv": ["dissolve", "--chain", str(chain)],
         "facts": [{"kind": "dissolve", "base_irreducibles": chain - 1}]},
        {"argv": ["--format", "json", "dissolve", "--bool", str(booln)],
         "facts": [{"kind": "dissolve", "base_irreducibles": booln}]},
        {"argv": ["--format", "json", "baire", "--points", ",".join(g), "--open", g[0],
                  "--open", ",".join(g[:2]), "--element", g[rng.randint(0, 2)]],
         "facts": [{"kind": "baire"}]},
        {"argv": ["prune", "--carrier", "0,1,2", "--edges", ",".join(f"{a}:{b}" for a, b in rel)]
         if rel else ["prune", "--carrier", "0,1,2"], "facts": [{"kind": "prune"}]},
        {"argv": ["--format", "json", "spec", "--gens", ",".join(pres["gens"]), "--rel", pres_lx, "--realize"],
         "facts": [
             {"kind": "spec", "points": ["".join("1" if b else "0" for b in p) for p in points]},
             {"kind": "realize", "size": orc.presented_size(pres["gens"], pres["rels"])},
         ]},
        {"argv": ["image", "--fun", f"s:{rng.choice('pq')},t:{rng.choice('pq')}", "--cod", "p,q", "--set", "s"],
         "facts": [{"kind": "image"}]},
    ]


def _selftest_facts() -> list[dict]:
    return [
        {"kind": "selftest", "checks": 9},
        {"kind": "dissolve", "base_irreducibles": 2},
        {"kind": "baire"},
        {"kind": "prune"},
        {"kind": "spec", "points": ["00", "01", "10"]},
    ] + [{"kind": "prove", "derivable": True}] * 5


def cli(seed: int) -> list[dict]:
    """CLI invocations; ``script`` holds the text of a ``run`` script."""
    rng = random.Random(seed)
    ops = []
    for k in range(CLI_SCRIPTS):
        text, facts, graphs = _script(rng)
        for fmt in CLI_FORMATS:
            ops.append({
                "argv": ["--format", fmt, "run", f"script{k}.lx"],
                "script": [f"script{k}.lx", text],
                "format": fmt,
                "facts": facts,
                "graphs": graphs,
            })
    for fmt in ("json", "text"):
        st = rng.randint(0, 999)
        ops.append({"argv": ["--format", fmt, "--seed", str(st), "selftest"], "format": fmt,
                    "facts": _selftest_facts()})
    for op in _flag_ops(rng):
        op["format"] = op["argv"][1] if op["argv"][0] == "--format" else "text"
        ops.append(op)
    return ops


WORKLOADS = {"kernel": kernel, "engines": engines, "proof": proof, "cli": cli}
