"""Worst inputs inside the default budgets, one test per statement kind.

Nothing may hang or run out of memory within the default budgets.  Each
test here takes a statement kind at its worst known input that the
default budgets admit, and either finishes it under a wall-clock bound
that is generous for a slow host, with a ``tracemalloc`` peak bound, or
shows that it is refused before the engine starts (the engine patched to
raise).  The bounds are far above the measured figures quoted with each
test; they catch a return to an exponential walk, not small slowdowns.
"""

import hashlib
import itertools
import json
import sys
import time
import tracemalloc

import pytest

from localix import dsl, lattice, presented, pruning
from localix.baire import FrameTopology
from localix.cli import main
from localix.errors import ResourceBudgetError, StructureError
from localix.interp import interpolate_sequent
from localix.lattice import FinLattice
from localix.order import FinPoset
from localix.budgets import DEFAULT_BUDGETS
from localix.pruning import CoDiagram, Relation, limit_image
from localix.sequent import TOP, Sequent, join_t, meet_t, nvar, var


def _measured(f):
    """``f()``, its wall-clock seconds and its traced peak in bytes."""
    tracemalloc.start()
    try:
        t = time.perf_counter()
        out = f()
        seconds = time.perf_counter() - t
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, seconds, peak


def test_interp_on_the_dnf_tautology_of_the_generator_budget():
    # |- {\/{all 64 full conjunctions over 6 generators}}, both blocks
    # all generators: 320 distinct derivation nodes, about 11,800 as a
    # tree.  Measured at 0.09 s (traced) and a 1.3 MB peak on a 2-vCPU VM.
    gens = "abcdef"
    conj = [
        meet_t(var(g) if bit else nvar(g) for g, bit in zip(gens, bits))
        for bits in itertools.product((False, True), repeat=len(gens))
    ]
    s = Sequent(frozenset(), frozenset([join_t(conj)]))
    (i, _), seconds, peak = _measured(lambda: interpolate_sequent(s, gens, gens))
    assert i is TOP
    assert seconds < 1.0
    assert peak < 16 * 2**20


GENS20 = tuple(f"g{i}" for i in range(20))


def test_realize_on_the_generator_budget_is_refused_before_any_point(monkeypatch):
    # 2^20 spectrum points, so at least 2^20 + 1 lower sets: refused on
    # the spectrum's bit count, before a point or lower set is listed.
    # Measured under 0.01 s (traced) and a peak under 3 MB, the generator
    # tables included, on a 2-vCPU VM; it took 13.1 s at a 1.5 GB peak
    # when the points were listed first.
    def no_lower_sets(*args):
        raise AssertionError("the lower sets were enumerated")

    monkeypatch.setattr(presented, "_lower_masks", no_lower_sets)

    def attempt():
        with pytest.raises(ResourceBudgetError, match="1048577 > 4096"):
            presented.realize(presented.Presentation(GENS20, ()))

    _, seconds, peak = _measured(attempt)
    assert seconds < 2.0
    assert peak < 16 * 2**20


def test_spec_on_the_generator_budget_with_a_relation_per_pair():
    # g_i & g_{i+1} <= 0: the points are the 20-bit strings with no two
    # adjacent ones, F(22) = 17,711 of them.  Measured at 0.05-0.1 s and a
    # 4-7 MB peak (traced) on a 2-vCPU VM; evaluating each relation on
    # each of the 2^20 valuations took 12.3 s.
    pv = presented.var
    rels = tuple(
        (presented.meet(pv(a), pv(b)), presented.BOT) for a, b in zip(GENS20, GENS20[1:])
    )
    p = presented.Presentation(GENS20, rels)
    model, seconds, peak = _measured(lambda: presented.spec(p))
    assert len(model.points) == 17711
    assert all(not (x and y) for pt in model.points for x, y in zip(pt, pt[1:]))
    assert seconds < 3.0
    assert peak < 64 * 2**20


def test_spec_on_twenty_free_generators_is_refused_before_any_point(monkeypatch):
    # 2^20 points, past spec's 2^16 limit: refused on the spectrum's bit
    # count.  Measured under 0.01 s and a 3 MB peak (traced) on a 2-vCPU
    # VM; listing the points took 2.9 s at 328 MB max RSS and printed 23 MB.
    def no_points(*args, **kwargs):
        raise AssertionError("the points were listed")

    monkeypatch.setattr(itertools, "product", no_points)
    script = dsl.parse(f"gens {' '.join(GENS20)};\nspec;")
    report, seconds, peak = _measured(lambda: dsl.run(script))
    assert report.exit_code == 2
    assert report.records[-1]["error"] == "budget"
    assert report.records[-1]["detail"].startswith("spec points exceeded: 1048576 > 65536")
    assert seconds < 2.0
    assert peak < 16 * 2**20


def test_prove_prints_the_dnf_tautology_of_the_generator_budget():
    # the same 64-clause tautology over 6 generators: 320 distinct
    # derivation nodes printed as a tree of about 11,800 lines.  The text is
    # pinned by its length and SHA-256, as printed when every term was
    # rendered again at every tree node, which took 8-11 s.  Measured at
    # 0.35 s and a 120 MB peak (traced), most of it the 30.8 MB text and
    # its record, on a 2-vCPU VM.
    gens = "abcdef"
    conj = [
        "(" + " & ".join(g if bit else f"!{g}" for g, bit in zip(gens, bits)) + ")"
        for bits in itertools.product((False, True), repeat=len(gens))
    ]
    script = dsl.parse(f"prove {{}} |- {{{' | '.join(conj)}}};")
    text, seconds, peak = _measured(lambda: dsl.render(dsl.run(script), "text"))
    data = text.encode()
    assert len(data) == 30_765_217
    assert hashlib.sha256(data).hexdigest() == (
        "e143308fa899abeade639e76b751e4fa2fee9274ec967ecfeee237643eba2626"
    )
    assert seconds < 10.0
    assert peak < 512 * 2**20


def _boom(*args, **kwargs):
    raise AssertionError("a diagram was built, pruned or walked in full")


def _refuse(monkeypatch, *names):
    """Patch each named pruning function, wherever the DSL reads it, to raise."""
    for name in names:
        monkeypatch.setattr(pruning, name, _boom)
        monkeypatch.setattr(dsl, name, _boom, raising=False)


def _relation_script(n, edges):
    body = ", ".join(f"{a} -> {b}" for a, b in edges)
    return f"relation R {{ {', '.join(map(str, range(n)))} : {body} }};\nprune R;"


def test_prune_on_the_complete_six_point_relation_is_refused_before_any_chain(monkeypatch):
    # 6 + 6^2 + ... + 6^7 = 335,922 chains in the stabilized stage, counted
    # and refused before one is listed.  Measured under 0.01 s and a 25 KB
    # peak (traced) on a 2-vCPU VM; listing and pruning every chain took
    # 70 s at 460 MB max RSS.
    _refuse(monkeypatch, "prune_sequence")
    monkeypatch.setattr(CoDiagram, "chain", staticmethod(_boom))
    script = dsl.parse(_relation_script(6, itertools.product(range(6), repeat=2)))
    report, seconds, peak = _measured(lambda: dsl.run(script))
    assert report.exit_code == 2
    assert report.records[-1]["detail"].startswith("diagram budget exceeded: 335922 > 64")
    assert seconds < 2.0
    assert peak < 16 * 2**20


def test_prune_on_a_forty_point_total_order():
    # rank 40 and 41 stages of 41 levels, all counted; the stabilized
    # stage is 41 empty levels.  Measured at 0.07 s and a 0.4 MB peak
    # (traced) on a 2-vCPU VM.
    script = dsl.parse(_relation_script(40, [(i + 1, i) for i in range(39)]))
    report, seconds, peak = _measured(lambda: dsl.run(script))
    (rec,) = report.records
    assert rec["verdict"] == 40
    assert rec["stage_sizes"][0] == [40 - k for k in range(40)] + [0]
    assert seconds < 5.0
    assert peak < 32 * 2**20


def test_prune_on_a_diagram_of_fifteen_hundred_empty_levels():
    # total size 0, so the diagram budget admits it at any length.  The
    # diagram keeps its 1499 step maps; a map for each of the 1.1 M
    # comparable pairs and a check on every index triple took 7.6 s (9.3 s
    # at 616 MB max RSS through ``localix run``).  Measured at 0.04 s, and
    # 0.5 s at a 4.2 MB peak traced, on a 2-vCPU VM.
    script = dsl.parse("diagram D { " + ", ".join(["[]"] * 1500) + " };\nprune D;")
    report, seconds, peak = _measured(lambda: dsl.run(script))
    (rec,) = report.records
    assert rec["stabilized_at"] == 0 and rec["stage_sizes"] == [[0] * 1500]
    assert seconds < 2.0
    assert peak < 32 * 2**20


def test_prune_chains_on_a_two_thousand_point_chain_keeps_one_map_per_step():
    # the stabilized stage of the 2001-level descending-chain diagram is
    # empty; it keeps its 2000 step maps, where 2,003,001 composites were
    # stored before (9.1 s).  Measured at 3.0 s, nearly all of it the
    # quadratic stage-size count, on a 2-vCPU VM.
    n = 2000
    r = Relation.make(range(n), [(i + 1, i) for i in range(n - 1)])
    t = time.perf_counter()
    (verdict, core), sizes, _, d = pruning._prune_chains(r, DEFAULT_BUDGETS)
    seconds = time.perf_counter() - t
    assert verdict == n and not core and len(sizes) == n + 1
    assert len(d.maps) == len(d.succ) == n and d.total_size() == 0
    assert seconds < 30.0


def test_limit_image_on_an_eight_by_eight_finite_chain(monkeypatch):
    # 64 points, inside the diagram budget; the direct limit would try
    # 8^8 = 16.8 M combinations.  Each step drops x to max(x - 1, 0), so
    # pruning runs seven stages.  Measured at 0.05 s and a 0.2 MB peak
    # (traced) on a 2-vCPU VM.
    n = 8
    idx = FinPoset(range(n), [(i, i + 1) for i in range(n - 1)])
    levels = {i: set(range(n)) for i in range(n)}
    maps = {(j, i): {x: max(x - (j - i), 0) for x in range(n)} for j in range(n) for i in range(j)}
    base = (set(range(n)), {i: {x: max(x - i, 0) for x in range(n)} for i in range(n)})

    def attempt():
        return limit_image(CoDiagram(idx, [(i, i + 1) for i in range(n - 1)], levels, maps, base))

    image, seconds, peak = _measured(attempt)
    assert image == frozenset([0])
    assert seconds < 2.0
    assert peak < 16 * 2**20


def test_prune_diagram_file_past_the_budget_is_refused_before_validation(tmp_path, monkeypatch, capsys):
    # a finite chain of 150 one-point levels: 150 > 64 points, read off the
    # JSON levels.  Validating the diagram first (functoriality over every
    # index triple) took 2.2 s before the refusal, on a 2-vCPU VM.
    n = 150
    data = {
        "kind": "finite",
        "complete": True,
        "index": {"elements": list(range(n)), "pairs": [[i, i + 1] for i in range(n - 1)]},
        "succ": [[i, i + 1] for i in range(n - 1)],
        "levels": [[i, [0]] for i in range(n)],
        "maps": [[j, i, [[0, 0]]] for j in range(n) for i in range(j)],
        "base": None,
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(CoDiagram, "__init__", _boom)
    (code, out), seconds, peak = _measured(
        lambda: (main(["prune", "--diagram", str(path)]), capsys.readouterr().out)
    )
    assert code == 2
    assert "diagram budget exceeded: 150 > 64" in out
    assert seconds < 2.0
    assert peak < 64 * 2**20



def _refuse_everywhere(monkeypatch, real):
    """Patch the function ``real``, in every ``localix`` module that binds it, to raise."""
    def refused(*args):
        raise AssertionError(f"{real.__name__} was called")

    for name, module in list(sys.modules.items()):
        if name == "localix" or name.startswith("localix."):
            for attr, val in list(vars(module).items()):
                if val is real:
                    monkeypatch.setattr(module, attr, refused)


def test_image_on_a_two_hundred_point_domain(monkeypatch):
    # the least cover of a 100-point subset along a 200-point function onto
    # 7 points.  Measured under 0.001 s and a 20 KB peak (traced) on a
    # 2-vCPU VM; the powerset path hit MemoryError from 20 domain points.
    _refuse_everywhere(monkeypatch, lattice.powerset_lattice)
    arrows = ", ".join(f"x{i} -> y{i % 7}" for i in range(200))
    cod = ", ".join(f"y{j}" for j in range(7))
    subset = ", ".join(f"x{i}" for i in range(0, 200, 2))
    script = dsl.parse(f"image {{{arrows}}} in {{{cod}}} of {{{subset}}};")
    report, seconds, peak = _measured(lambda: dsl.run(script))
    (rec,) = report.records
    assert rec["image"] == "{" + ",".join(f"y{j}" for j in range(7)) + "}"
    assert seconds < 2.0
    assert peak < 2 * 2**20


def test_baire_on_twenty_points_separated_by_nested_opens(monkeypatch):
    # the opens {x0}, {x0, x1}, ..., all 20 points: a chain of 21 opens
    # with no two points glued.  Measured at 0.007 s and a 47 KB peak
    # (traced) on a 2-vCPU VM; building the topology's ambient powerset
    # hit MemoryError from 20 points.
    _refuse_everywhere(monkeypatch, lattice.powerset_lattice)
    n = 20
    pts = ", ".join(f"x{i}" for i in range(n))
    opens = ", ".join("{" + ", ".join(f"x{i}" for i in range(k + 1)) + "}" for k in range(n))
    script = dsl.parse(f"topology T {{ {pts} : {opens} }};\nbaire T;")
    report, seconds, peak = _measured(lambda: dsl.run(script))
    (rec,) = report.records
    assert len(rec["points"]) == n and len(rec["opens"]) == n + 1
    assert rec["comgr"] == "{x0}"
    assert seconds < 2.0
    assert peak < 2 * 2**20


def test_opens_of_a_twelve_point_discrete_topology_read_no_order_pairs(monkeypatch):
    # all 4096 subsets of 12 points are open, the elements budget.  The
    # lattice of opens is the Birkhoff representation of the one the
    # topology keeps; realizing it from a subset predicate read 16.8 M
    # pairs in 5.8 s (55 s traced, at a 13.5 MB peak).  Measured at 0.3 s
    # untraced, parse included, and a 10.3 MB peak traced on a 2-vCPU VM.
    _refuse_everywhere(monkeypatch, lattice.lattice_from_abstract)
    pts = [f"x{i}" for i in range(12)]
    subsets = [frozenset(itertools.compress(pts, bits)) for bits in itertools.product((0, 1), repeat=12)]
    opens = ", ".join("{" + ", ".join(sorted(o)) + "}" for o in subsets)
    text = f"topology T {{ {', '.join(pts)} : {opens} }};\nlattice O = opens T;"
    t = time.perf_counter()
    report = dsl.run(dsl.parse(text))
    seconds = time.perf_counter() - t
    assert report.exit_code == 0 and not report.records
    assert seconds < 2.0
    _, _, peak = _measured(lambda: dsl.run(dsl.parse(text)))
    assert peak < 64 * 2**20
    lat, _ = FrameTopology(pts, subsets).opens_lattice()
    assert len(lat) == 4096 and lat.kind == "boolean"


def test_ideals_of_the_empty_coverage_on_a_six_element_base():
    # the carrier budget admits 6 base elements, so at most 2^6 ideals.
    # The lower sets of 0 <= 1 beside 2 are the 6-element lattice 2 x 3,
    # and with no covers every lower set of its element order is an
    # ideal: 10 of them, the most of any 6-element base.  The ideals are
    # not closed under union, so they are realized from their order
    # (``lattice_from_abstract``).  Measured at 1 ms, and 6 ms at a 28 KB
    # peak traced, on a 2-vCPU VM.
    script = dsl.parse("poset P { 0, 1, 2 : 0 <= 1 };\nlattice L = downsets P;\ncoverage C on L { };\nideals C;")
    report, seconds, peak = _measured(lambda: dsl.run(script))
    (rec,) = report.records
    assert rec["count"] == 10 and rec["lattice_kind"] == "distributive"
    assert seconds < 2.0
    assert peak < 4 * 2**20


def test_chain_lattice_keeps_its_elements_as_masks(monkeypatch):
    # 600 elements kept as point masks, and no element frozenset built.
    # Measured at a 0.4 MB peak (traced) on a 2-vCPU VM; building every
    # element's frozenset eagerly peaked at 11.7 MB, and at chain 4096 it
    # was most of a 418 MB max RSS.
    def eager(points, masks):
        raise AssertionError("element frozensets built")

    monkeypatch.setattr(lattice, "_frozensets", eager)
    script = dsl.parse("lattice C = chain 600;")
    report, seconds, peak = _measured(lambda: dsl.run(script))
    assert report.exit_code == 0 and all(rec["ok"] for rec in report.records)
    assert seconds < 20.0
    assert peak < 4 * 2**20


def test_homs_on_a_1024_point_chain_are_certified_by_the_column_pass(monkeypatch):
    # The 1025 lower sets of a 1024-point chain: the identity and the
    # Birkhoff unit are certified by the pullback count, and the scan of
    # the meet and join formulas, which only names a failure, never runs.
    # Measured traced on a 2-vCPU VM: the identity in 1.0 s at a 0.7 MB
    # peak (14.2 s with the scan as the certificate), the embedding in
    # 2.1 s at a 27 MB peak (20.4 s), most of the peak the 1024
    # irreducible frozensets of ``join_irreducibles``.  Untraced they take
    # 0.04 s and 0.24 s (0.32 s and 0.77 s before).
    def scan(*args):
        raise AssertionError("the formula scan ran on a hom")

    monkeypatch.setattr(lattice, "_broken_formula", scan)
    a = lattice.lower_sets(FinPoset(range(1024), [(i, i + 1) for i in range(1023)]))
    _, seconds, peak = _measured(lambda: lattice.LatticeHom.identity(a))
    assert seconds < 5.0
    assert peak < 8 * 2**20
    _, seconds, peak = _measured(lambda: lattice.birkhoff_embedding(a))
    assert seconds < 10.0
    assert peak < 64 * 2**20


def test_a_family_far_from_closed_is_refused_by_the_capped_count():
    # The empty set, the 40 singletons and the full set of a 40-point
    # antichain: 42 elements, whose down-set preorder has 2^40 down-sets.
    # The count stops past 42, after six points.  Measured at 1.4 ms
    # (traced) and a 10 KB peak on a 2-vCPU VM.
    p = FinPoset(range(40))
    family = [frozenset(), frozenset(range(40))] + [frozenset([i]) for i in range(40)]

    def refused():
        with pytest.raises(StructureError, match="not closed under intersection/union"):
            FinLattice(p, family)

    _, seconds, peak = _measured(refused)
    assert seconds < 1.0
    assert peak < 1 * 2**20


def test_prune_diagram_file_counts_a_set_level_by_its_points(tmp_path, monkeypatch, capsys):
    # one index point whose level is written as an encoded set of 100
    # points: the pre-check counts the decoded points, not the JSON object's
    # single key, so the file is refused before the diagram is validated.
    data = {
        "kind": "finite",
        "complete": True,
        "index": {"elements": [0], "pairs": []},
        "succ": [],
        "levels": [[0, {"set": list(range(100))}]],
        "maps": [],
        "base": None,
    }
    path = tmp_path / "set_level.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(CoDiagram, "__init__", _boom)
    code = main(["prune", "--diagram", str(path)])
    assert code == 2
    assert "diagram budget exceeded: 100 > 64" in capsys.readouterr().out
