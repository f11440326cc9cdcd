"""End-to-end verification suite.

One test per engine guarantee; each prints a single pass/fail line
(visible under ``pytest -s``).  Every computed answer is compared
against an independent brute-force oracle defined in this file or in
the shared fixtures, never against the engine's own machinery.
"""

import contextlib
import io
import itertools
import json
import pathlib
import random
import sys

import jsonschema
import pytest

from localix.baire import (
    FrameTopology,
    baire_decompose,
    closure,
    comgr,
    interior,
    is_dense,
    is_meager,
    regular_opens,
    regularize,
)
from localix.budgets import DEFAULT_BUDGETS
from localix.cli import main as cli_main
from localix.congruence import enumerate_order_congruences
from localix.dissolution import dissolve, eta_principal, neg as lat_neg
from localix.errors import ParseError, PreconditionError
from localix.interp import cocomma_interpolant, pushout_separators
from localix.lattice import (
    LatticeHom,
    birkhoff_embedding,
    borel_image,
    enumerate_homs,
    join_irreducibles,
    lattice_isomorphic,
    lower_sets,
    powerset_lattice,
)
from localix.order import FinPoset, poset_isomorphic
from localix.posite import (
    canonical_polyorder,
    cov_ideals,
    cov_ideals_from_generators,
    polyposet_coproduct,
    polyposet_entails,
    saturate_coverage,
    saturate_polyposet,
)
from localix.presented import (
    Presentation,
    check_assignment,
    extend_hom,
    preimage_hom,
    pushout_ba,
    realize,
)
from localix.pruning import (
    CoDiagram,
    Relation,
    cycle_core,
    limit_image,
    prune_sequence,
    rank,
)
from localix.sequent import (
    Sequent,
    cut_check,
    eval_term,
    join_t,
    meet_t,
    nvar,
    prove,
    var,
)

import oracles
from conftest import posets_up_to, random_poset, random_relation_pairs
from oracles import inverse_limit, polyposet_oracle, rank_oracle


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: pass")


# -- 1: representation round trip ---------------------------------------------


def test_birkhoff_round_trip(rng):
    with criterion("birkhoff round trip"):
        cases = list(posets_up_to(5))
        cases += [random_poset(rng, rng.randint(1, 8)) for _ in range(200)]
        for p in cases:
            a = lower_sets(p)
            assert poset_isomorphic(join_irreducibles(a), p)
            rep, iso = birkhoff_embedding(a)
            assert iso.is_injective() and iso.is_surjective()
            assert lattice_isomorphic(a, rep)


# -- 2: free complementation --------------------------------------------------


def test_dissolution(rng):
    with criterion("dissolution"):
        for p in posets_up_to(5):
            a = lower_sets(p)
            nj = len(join_irreducibles(a))
            d = dissolve(a)
            assert len(d.result) == 2 ** nj
            assert d.result.kind == "boolean"
            for x in a.elements:
                for y in a.elements:
                    assert (x <= y) == (d.unit(x) <= d.unit(y))
            assert len(enumerate_order_congruences(a)) == 2 ** nj
            for x in a.elements:
                assert eta_principal(a, x) == frozenset(
                    (b, lat_neg(c))
                    for b in a.elements
                    for c in a.elements
                    if b <= x | c
                )


# -- 3: sequent calculus ------------------------------------------------------


def _random_term(rng, gens, depth):
    if depth == 0 or rng.random() < 0.35:
        g = rng.choice(gens)
        return var(g) if rng.random() < 0.5 else nvar(g)
    kids = [_random_term(rng, gens, depth - 1) for _ in range(rng.randint(0, 3))]
    return meet_t(kids) if rng.random() < 0.5 else join_t(kids)


def _truth_table_valid(seq, gens):
    for bits in itertools.product((0, 1), repeat=len(gens)):
        v = dict(zip(gens, bits))
        if all(eval_term(t, v) for t in seq.left) and not any(
            eval_term(t, v) for t in seq.right
        ):
            return False
    return True


def test_sequent_calculus(rng):
    with criterion("sequent calculus"):
        gens = ["a", "b", "c", "d"]
        for _ in range(5000):
            left = frozenset(
                _random_term(rng, gens, rng.randint(0, 2))
                for _ in range(rng.randint(0, 2))
            )
            right = frozenset(
                _random_term(rng, gens, rng.randint(0, 2))
                for _ in range(rng.randint(0, 2))
            )
            s = Sequent(left, right)
            res = prove(s)
            assert res.derivable == _truth_table_valid(s, gens), str(s)
            if res.derivable:
                res.derivation.validate()
            else:
                v = res.countermodel
                assert all(eval_term(t, v) for t in left)
                assert not any(eval_term(t, v) for t in right)
            assert res.derivable == prove(s, "infinitary").derivable
            assert cut_check(s.one_sided(), _random_term(rng, gens, 1))


# -- 4: interpolation and separation ------------------------------------------


def _spectral_hom(dom_atoms, cod_atoms, sigma):
    """Boolean hom P(dom) -> P(cod) by preimage along sigma: cod -> dom."""
    a, b = powerset_lattice(dom_atoms), powerset_lattice(cod_atoms)
    graph = {
        s: frozenset(q for q in cod_atoms if sigma[q] in s) for s in a.elements
    }
    return LatticeHom(a, b, graph)


def test_interpolation(rng):
    with criterion("interpolation"):
        two = lower_sets(FinPoset([0]))
        for _ in range(500):
            n = rng.randint(1, 5)
            k = rng.randint(1, 3)
            src = [f"p{i}" for i in range(n)]
            a = powerset_lattice(src)
            homs, bs = [], []
            for _ in range(k):
                m = rng.randint(1, 4)
                cod_atoms = [f"q{i}" for i in range(m)]
                sigma = {q: rng.choice(src) for q in cod_atoms}
                homs.append(_spectral_hom(src, cod_atoms, sigma))
                bs.append(frozenset(q for q in cod_atoms if rng.random() < 0.5))
            target = frozenset(p for p in src if rng.random() < 0.5)
            # independent hypothesis oracle on the spectra pullback
            bad = False
            for qs in itertools.product(*[h.cod.atoms() for h in homs]):
                traces = set()
                for h, q in zip(homs, qs):
                    traces |= {p for p in h.dom.atoms() if q <= h(p)}
                if len(traces) == 1 and all(
                    q <= bx for q, bx in zip(qs, bs)
                ) and not next(iter(traces)) <= target:
                    bad = True
                    break
            try:
                seps = pushout_separators(a, homs, bs, target)
            except PreconditionError:
                assert bad
                continue
            assert not bad
            m = a.top
            for x in seps:
                m &= x
            assert m <= target
            for h, bx, x in zip(homs, bs, seps):
                assert bx <= h(x)

        # cocomma interpolation
        a = lower_sets(FinPoset(range(2), [(0, 1)]))
        b = lower_sets(FinPoset("xy"))
        hom_pool = enumerate_homs(a, b) + [LatticeHom.identity(a)]
        for _ in range(200):
            f = rng.choice(hom_pool)
            g = rng.choice(hom_pool)
            belems = list(f.cod.elements)
            celems = list(g.cod.elements)
            bx, b2 = rng.choice(belems), rng.choice(belems)
            c, c2 = rng.choice(celems), rng.choice(celems)
            try:
                x = cocomma_interpolant(f, g, bx, b2, c, c2)
            except PreconditionError:
                # existence theorem: no element can satisfy both clauses
                assert not any(
                    bx <= f(y) | b2 and c & g(y) <= c2 for y in a.elements
                )
                continue
            assert bx <= f(x) | b2
            assert c & g(x) <= c2

        # strong amalgamation on injective Boolean spans
        t = two
        bb = powerset_lattice("pq")
        f = LatticeHom(t, bb, {t.bot: bb.bot, t.top: bb.top})
        d, inl, inr = pushout_ba(f, f)
        assert inl.is_injective() and inr.is_injective()
        for x in bb.elements:
            for y in bb.elements:
                if inl(x) <= inr(y):
                    assert any(x <= f(s) and f(s) <= y for s in t.elements)

        # epimorphisms of Boolean lattices are surjective (via 2-valued homs)
        for _ in range(50):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            src = [f"u{i}" for i in range(n)]
            cod_atoms = [f"v{i}" for i in range(m)]
            sigma = {q: rng.choice(src) for q in cod_atoms}
            h = _spectral_hom(src, cod_atoms, sigma)
            points = enumerate_homs(h.cod, two)
            epi_wrt_two = all(
                any(g1(h(x)) != g2(h(x)) for x in h.dom.elements)
                for i, g1 in enumerate(points)
                for g2 in points[i + 1 :]
            )
            assert epi_wrt_two == h.is_surjective()


# -- 5: coverages and polyorders ----------------------------------------------


def test_posite(rng):
    with criterion("posite"):
        for _ in range(200):
            base = lower_sets(random_poset(rng, rng.randint(1, 3)))
            gens = []
            elems = list(base.elements)
            for _ in range(rng.randint(0, 3)):
                gens.append(
                    (rng.choice(elems), [rng.choice(elems) for _ in range(rng.randint(0, 2))])
                )
            sat = saturate_coverage(base, gens, DEFAULT_BUDGETS.bumped(carrier=8))
            lat, to_elem = cov_ideals(sat)
            plain = cov_ideals_from_generators(base, gens)
            assert sorted(to_elem, key=sorted) == sorted(plain, key=sorted)

        # saturated entailment agrees with the truth-table oracle
        for n in range(1, 5):
            carrier = tuple(f"p{i}" for i in range(n))
            for _ in range(8):
                gens = []
                for _ in range(rng.randint(0, 3)):
                    l = tuple(x for x in carrier if rng.random() < 0.4)
                    r = tuple(x for x in carrier if rng.random() < 0.4)
                    gens.append((l, r))
                p = saturate_polyposet(carrier, gens)
                subsets = [
                    frozenset(s)
                    for k in range(n + 1)
                    for s in itertools.combinations(carrier, k)
                ]
                for left in subsets:
                    for right in subsets:
                        assert polyposet_entails(p, left, right) == polyposet_oracle(
                            p, left, right
                        )
        for _ in range(5):
            carrier = tuple(f"p{i}" for i in range(5))
            gens = [
                (
                    tuple(x for x in carrier if rng.random() < 0.3),
                    tuple(x for x in carrier if rng.random() < 0.3),
                )
                for _ in range(rng.randint(1, 3))
            ]
            p = saturate_polyposet(carrier, gens)
            for _ in range(60):
                left = frozenset(x for x in carrier if rng.random() < 0.4)
                right = frozenset(x for x in carrier if rng.random() < 0.4)
                assert polyposet_entails(p, left, right) == polyposet_oracle(
                    p, left, right
                )

        # coproducts of lattice polyorders are already saturated and
        # decide every pair by one of their components (rectangle rule)
        def lattice_polyorder(lat):
            return canonical_polyorder(
                lat.elements,
                [(x, y) for x in lat.elements for y in lat.elements if x <= y],
                DEFAULT_BUDGETS.bumped(carrier=12),
            )

        chain = lambda n: lower_sets(
            FinPoset(range(n - 1), [(i, i + 1) for i in range(n - 2)])
        )
        combos = [
            (lattice_polyorder(chain(6)), lattice_polyorder(chain(2))),
            (lattice_polyorder(powerset_lattice("ab")), lattice_polyorder(chain(4))),
            (
                lattice_polyorder(lower_sets(FinPoset("xy"))),
                lattice_polyorder(chain(3)),
            ),
        ]
        for p1, p2 in combos:
            cp = polyposet_coproduct([p1, p2], DEFAULT_BUDGETS.bumped(carrier=12))
            # saturating the tagged component generators alone recovers
            # the full componentwise relation
            resat = saturate_polyposet(
                cp.carrier, cp.generators, DEFAULT_BUDGETS.bumped(carrier=12)
            )
            assert resat.rel == cp.rel


# -- 6: Baire structure -------------------------------------------------------


def _all_topologies(points):
    pts = frozenset(points)
    proper = [
        frozenset(s)
        for k in range(len(points) + 1)
        for s in itertools.combinations(sorted(pts), k)
    ]
    out = []
    for keep in itertools.product((0, 1), repeat=len(proper)):
        fam = {s for s, bit in zip(proper, keep) if bit} | {frozenset(), pts}
        if all(a & b in fam and a | b in fam for a in fam for b in fam):
            out.append(FrameTopology(points, fam))
    return out


def _random_topology(rng, n):
    pts = [f"x{i}" for i in range(n)]
    fam = {frozenset(), frozenset(pts)}
    for _ in range(rng.randint(0, n + 1)):
        fam.add(frozenset(p for p in pts if rng.random() < 0.5))
    changed = True
    while changed:
        changed = False
        for a in list(fam):
            for b in list(fam):
                for c in (a & b, a | b):
                    if c not in fam:
                        fam.add(c)
                        changed = True
    return FrameTopology(pts, fam)


def test_baire(rng):
    with criterion("baire"):
        cases = []
        for pts in ("", "p", "pq", "pqr"):
            cases += _all_topologies(pts)
        cases += [_random_topology(rng, rng.randint(1, 5)) for _ in range(100)]
        for t in cases:
            core, reg_lat = comgr(t)
            assert is_dense(t, core)
            # smallest dense: the meet of the dense opens, and no dense
            # ambient element sits strictly below it
            meet = t.top()
            for u in t.opens:
                if is_dense(t, u):
                    meet &= u
            assert core == meet
            for k in range(len(t.reps) + 1):
                for s in itertools.combinations(t.reps, k):
                    assert not (is_dense(t, frozenset(s)) and frozenset(s) < core)
            # regular opens form a Boolean algebra
            regs = set(regular_opens(t))
            assert reg_lat.kind == "boolean"
            assert len(reg_lat) == len(regs)
            for u in regs:
                c = interior(t, t.top() - u)
                assert c in regs
                assert not (u & c)
                assert regularize(t, u | c) == t.top()
            # Baire decomposition with a meager witness
            for k in range(len(t.reps) + 1):
                for s in itertools.combinations(t.reps, k):
                    b = frozenset(s)
                    u, m = baire_decompose(t, b)
                    assert u in set(t.opens)
                    assert m == (b ^ u)
                    assert is_meager(t, m)


# -- 7: pruning ---------------------------------------------------------------


def _random_chain_diagram(rng, with_base=True):
    n = rng.randint(2, 4)
    sizes = [rng.randint(1, 4) for _ in range(n)]
    levels = [list(range(s)) for s in sizes]
    step = [
        {x: rng.randrange(sizes[i]) for x in levels[i + 1]} for i in range(n - 1)
    ]
    idx = FinPoset(range(n), [(i, i + 1) for i in range(n - 1)])
    maps = {}
    for hi in range(1, n):
        for lo in range(hi):
            f = {x: x for x in levels[hi]}
            for k in range(hi - 1, lo - 1, -1):
                f = {x: step[k][v] for x, v in f.items()}
            maps[(hi, lo)] = f
    base = None
    if with_base:
        y = frozenset(range(5))
        p0 = {x: rng.randrange(5) for x in levels[0]}
        ps = {0: p0}
        for i in range(1, n):
            ps[i] = {x: p0[maps[(i, 0)][x]] for x in levels[i]}
        base = (y, ps)
    return CoDiagram(
        idx,
        [(i, i + 1) for i in range(n - 1)],
        {i: levels[i] for i in range(n)},
        maps,
        base,
    )


def test_pruning(rng):
    with criterion("pruning"):
        for n in range(4):
            carrier = list(range(n))
            all_pairs = [(a, b) for a in carrier for b in carrier]
            for bits in itertools.product((0, 1), repeat=len(all_pairs)):
                r = Relation.make(
                    carrier, [p for p, bit in zip(all_pairs, bits) if bit]
                )
                v, core = rank(r)
                assert v == rank_oracle(r)
                if v == "ill-founded":
                    assert core == cycle_core(r) == oracles.cycle_core(r)
                else:
                    assert not oracles.cycle_core(r)
        for _ in range(500):
            n = rng.randint(1, 6)
            r = Relation.make(
                range(n), random_relation_pairs(rng, n, rng.uniform(0.05, 0.35))
            )
            v, core = rank(r)
            assert v == rank_oracle(r)
            if v == "ill-founded":
                assert core == cycle_core(r) == oracles.cycle_core(r)
        # pruning preserves the inverse limit and computes its image
        for _ in range(100):
            d = _random_chain_diagram(rng)
            threads = inverse_limit(d)
            stages, stab = prune_sequence(d)
            assert stab != "unstabilized"
            assert inverse_limit(stages[-1]) == threads
            for i in d.index.elements:
                assert stages[-1].levels[i] == frozenset(t[i] for t in threads)
            direct = frozenset(d.base[1][0][t[0]] for t in threads)
            assert limit_image(d) == direct


# -- 8: presentations ---------------------------------------------------------


def test_presented(rng):
    with criterion("presented"):
        one, _ = realize(Presentation(("x",), ()))
        assert len(one) == 3
        free2, _ = realize(Presentation(("x", "y"), ()))
        assert len(free2) == 6
        for _ in range(200):
            n = rng.randint(1, 3)
            gens = tuple(f"g{i}" for i in range(n))
            rels = []
            if rng.random() < 0.5 and n >= 2:
                rels.append((("var", gens[0]), ("var", gens[1])))
            p = Presentation(gens, tuple(rels))
            realized = realize(p)
            target = lower_sets(random_poset(rng, 3))
            assign = {g: rng.choice(list(target.elements)) for g in gens}
            if not check_assignment(p, assign, target):
                with pytest.raises(PreconditionError):
                    extend_hom(p, realized, assign, target)
                continue
            h = extend_hom(p, realized, assign, target)
            lat, gen_img = realized
            for g in gens:
                assert h(gen_img[g]) == assign[g]
            for h2 in enumerate_homs(lat, target):
                if all(h2(gen_img[g]) == assign[g] for g in gens):
                    assert all(h2(x) == h(x) for x in lat.elements)
        for _ in range(200):
            nx, ny, nz = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            xs = [f"x{i}" for i in range(nx)]
            ys = [f"y{i}" for i in range(ny)]
            zs = [f"z{i}" for i in range(nz)]
            f = {x: rng.choice(zs) for x in xs}
            g = {y: rng.choice(zs) for y in ys}
            pb = [(x, y) for x in xs for y in ys if f[x] == g[y]]
            p = {xy: xy[0] for xy in pb}
            hf = preimage_hom(f, xs, zs)
            hq = preimage_hom({xy: xy[1] for xy in pb}, pb, ys)
            for bits in itertools.product((0, 1), repeat=nx):
                bset = frozenset(x for x, bit in zip(xs, bits) if bit)
                lhs = frozenset(y for y in ys if g[y] in borel_image(hf, bset))
                rhs = borel_image(hq, frozenset(t for t in pb if p[t] in bset))
                assert lhs == rhs


# -- 9: command line ----------------------------------------------------------


def test_cli(monkeypatch):
    with criterion("cli"):
        golden = pathlib.Path(__file__).parent / "golden"
        schema = json.loads(
            (
                pathlib.Path(__file__).parents[1]
                / "src/localix/schemas/report.schema.json"
            ).read_text()
        )
        manifest = json.loads((golden / "manifest.json").read_text())
        assert len(manifest["cases"]) == 20
        monkeypatch.chdir(golden)
        for case in manifest["cases"]:
            buf = io.StringIO()
            old = sys.stdin
            if "stdin" in case:
                sys.stdin = io.StringIO((golden / case["stdin"]).read_text())
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli_main(case["argv"])
            finally:
                sys.stdin = old
            assert code == case["exit"], case["name"]
            assert buf.getvalue() == (golden / (case["name"] + ".out")).read_text()
            if "json" in case["argv"]:
                jsonschema.validate(json.loads(buf.getvalue()), schema)
        # parse-error positions are reported exactly
        for source, line, col in (
            ((golden / "pe1.lx").read_text(), 1, 9),
            ((golden / "pe2.lx").read_text(), 2, 19),
        ):
            from localix.dsl import parse

            with pytest.raises(ParseError) as ei:
                parse(source)
            assert (ei.value.line, ei.value.col) == (line, col)
