"""Every budget at its edge: one table row per ``check_budget`` call.

Each row lowers one limit with ``Budgets.bumped`` so that the inputs stay
tiny.  The input of size k is accepted; the input of size k + 1 is
refused with ``ResourceBudgetError`` naming the count at that call site,
while the engine behind the check is patched to raise, which shows the
refusal comes before the work.  The table is keyed by the fields of
``Budgets``, so a new budget cannot go untested.
"""

import argparse
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import localix
from localix import cli, congruence, dsl, lattice, posite, presented, pruning, sequent
from localix.budgets import DEFAULT_BUDGETS, Budgets
from localix.errors import ResourceBudgetError
from localix.interp import maehara_interpolant
from localix.lattice import lower_sets, powerset_lattice
from localix.order import FinPoset
from localix.presented import Presentation, realize, spec
from localix.pruning import CoDiagram, Relation


class Edge(NamedTuple):
    site: str  # the ``check_budget`` call, file and function
    limit: int
    k: int  # the size of the largest input the limit admits
    build: Callable  # size -> input, built before any patch
    run: Callable  # (input, budgets) -> None, raising when refused
    engine: tuple  # (owner, attribute) of the work behind the check
    shown: str  # the count at size k + 1, as the message shows it


def _chain(s: int):
    """The lower sets of an (s - 1)-point chain: s elements, s - 1 in J."""
    return lower_sets(FinPoset(range(s - 1), [(i, i + 1) for i in range(s - 2)]))


def _chain_presentation(kind: str):
    """A presentation with s points, s - 1 generators in a chain."""

    def build(s: int) -> Presentation:
        gens = tuple(f"g{i}" for i in range(s - 1))
        rels = tuple((presented.var(b), presented.var(a)) for a, b in zip(gens, gens[1:]))
        return Presentation(gens, rels, kind)

    return build


def _literals(s: int) -> frozenset:
    """A valid one-sided sequent over s generators."""
    return frozenset([sequent.nvar("g0")] + [sequent.var(f"g{i}") for i in range(s)])


def _nested(s: int) -> frozenset:
    """A one-sided sequent whose term is s deep."""
    t = sequent.var("x")
    for _ in range(s - 1):
        t = sequent.meet_t([t, sequent.var("y")])
    return frozenset([t])


def _level(s: int) -> CoDiagram:
    return CoDiagram.chain([[f"x{i}" for i in range(s)]], [])


def _statements(text: str) -> Callable:
    """Script text, run statement by statement so that errors propagate."""

    def build(s: int):
        return dsl.parse(text.format(s=s, xs=", ".join(f"x{i}" for i in range(s))))

    return build


def _run_statements(script, budgets, named=None) -> None:
    r = dsl._Runner(budgets, dsl.Report())
    r.named.update(named or {})
    for stmt in script.statements:
        stmt.run(r)


def _prune_file(tmp_path):
    def build(s: int) -> argparse.Namespace:
        path = tmp_path / f"diagram{s}.json"
        path.write_text(_level(s).to_json())
        return argparse.Namespace(diagram=str(path), carrier=None, edges=None)

    return build


def _run_prune_file(args, budgets) -> None:
    report = cli._prune_invocation(args, budgets)
    errors = [rec for rec in report.records if rec["kind"] == "error"]
    if errors and errors[0]["error"] == "budget":
        raise ResourceBudgetError(errors[0]["detail"])
    assert report.exit_code == 0 and not errors


def _edges(tmp_path) -> dict:
    return {
        "gens": [
            Edge("presented._models", 2, 2, lambda s: Presentation(tuple(f"g{i}" for i in range(s)), ()),
                 spec, (sequent, "_gen_masks"), "3"),
        ],
        "carrier": [
            Edge("posite.saturate_coverage", 2, 2, _chain, lambda a, b: posite.saturate_coverage(a, [], b),
                 (posite, "_down"), "3"),
            Edge("posite.canonical_coverage", 2, 2, _chain, posite.canonical_coverage,
                 (lattice, "_frozensets"), "3"),
            Edge("posite.saturate_polyposet", 2, 2, range, lambda c, b: posite.saturate_polyposet(c, [], b),
                 (posite, "_entailed"), "3"),
        ],
        "elements": [
            # one congruence per subset of J: 2^|J|, then a row per element each
            Edge("congruence._check_subsets 2^|J|", 1, 1, _chain, congruence.enumerate_order_congruences,
                 (congruence, "_rule_rows"), "2^1"),
            Edge("congruence._check_subsets rows", 12, 3, _chain, congruence.enumerate_order_congruences,
                 (congruence, "_rule_rows"), "32"),
            Edge("dsl.LatticeDecl chain", 3, 3, _statements("lattice L = chain {s};"), _run_statements,
                 (dsl, "lower_sets"), "4"),
            Edge("lattice.powerset_lattice", 4, 2, range, powerset_lattice,
                 (lattice, "_new"), "2^3"),
            Edge("order._lower_masks", 3, 3, lambda s: _chain(s).spectrum, lower_sets,
                 (lattice, "_new"), "4"),
            Edge("presented.realize 2^points", 4, 2, _chain_presentation("boolean"), realize,
                 (presented, "_lower_masks"), "2^3"),
            Edge("presented.realize points + 1", 3, 2, _chain_presentation("distributive"), realize,
                 (presented, "_lower_masks"), "4"),
        ],
        "sequent_gens": [
            Edge("interp.maehara_interpolant", 2, 2,
                 lambda s: (sequent.prove(_literals(s)).derivation, [f"g{i}" for i in range(s)]),
                 lambda dg, b: maehara_interpolant(dg[0], dg[1], dg[1], budgets=b),
                 (sequent.Derivation, "validate"), "3"),
            Edge("sequent._tables", 2, 2, _literals, lambda s, b: sequent.prove(s, budgets=b),
                 (sequent, "_gen_masks"), "3"),
        ],
        "sequent_depth": [
            Edge("sequent._prove", 2, 2, _nested, lambda s, b: sequent.prove(s, budgets=b),
                 (sequent, "_tables"), "3"),
        ],
        "diagram": [
            Edge("cli._prune_invocation", 2, 2, _prune_file(tmp_path), _run_prune_file,
                 (CoDiagram, "_from_data"), "3"),
            Edge("dsl.DiagramDecl", 2, 2, _statements("diagram D {{ [{xs}] }};"), _run_statements,
                 (CoDiagram, "chain"), "3"),
            Edge("dsl.PruneQuery on a diagram", 2, 2, _level,
                 lambda d, b: _run_statements(dsl.Script((dsl.PruneQuery("D"),)), b, {"D": ("diagram", d)}),
                 (dsl, "prune_sequence"), "3"),
            # s points with a loop each: s(s + 1) chain ends on the last stage
            Edge("pruning._prune_chains", 6, 2, lambda s: Relation.make(range(s), [(i, i) for i in range(s)]),
                 pruning._prune_chains, (CoDiagram, "chain"), "12"),
        ],
    }


def _check_budget_calls() -> int:
    """The ``check_budget`` calls in the package's source, its definition aside."""
    src = Path(localix.__file__).parent
    return sum(path.read_text(encoding="utf-8").count("check_budget(") for path in src.glob("*.py")) - 1


def test_every_budget_is_refused_past_its_edge_before_its_engine_runs(monkeypatch, tmp_path):
    edges = _edges(tmp_path)
    assert edges.keys() == set(Budgets._fields) - {"unsafe"}
    assert sum(map(len, edges.values())) == _check_budget_calls() == 18
    for field, rows in edges.items():
        for e in rows:
            budgets = DEFAULT_BUDGETS.bumped(**{field: e.limit})
            calls = []
            real = getattr(*e.engine)
            with monkeypatch.context() as m:
                m.setattr(*e.engine, lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
                e.run(e.build(e.k), budgets)  # at the limit: accepted, and the engine runs
            assert calls, e.site
            past = e.build(e.k + 1)
            with monkeypatch.context() as m:

                def engine(*args, **kwargs):
                    raise AssertionError(f"{e.site}: the engine ran past the {field} budget")

                m.setattr(*e.engine, engine)
                with pytest.raises(ResourceBudgetError) as err:
                    e.run(past, budgets)
            assert str(err.value).startswith(f"{field} budget exceeded: {e.shown} > {e.limit} "), e.site
            e.run(past, budgets.bumped(unsafe=True))  # unsafe lifts it
