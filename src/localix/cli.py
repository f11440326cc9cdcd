"""Command-line driver: subcommands over the script language.

Every subcommand either parses a script (``run``) or assembles one
from its flags, executes it, and renders the report as text, JSON, or
DOT.  Output is deterministic for fixed input, flags, and seed.

Exit codes: 0 success; 1 when --strict is set and a query returned a
refutation or failed precondition; 2 on parse, input, or budget errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import dsl
from .budgets import DEFAULT_BUDGETS, budgets_from_env, check_budget
from .errors import DomainError, LocalixError, ParseError, ResourceBudgetError
from .order import _decode
from .pruning import CoDiagram

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="localix",
        description="finite-scale lattice and locale workbench",
    )
    top.add_argument("--format", choices=("text", "json", "dot"), default="text")
    top.add_argument("--strict", action="store_true", help="exit 1 on any refuted query")
    top.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    top.add_argument("--budget-gens", type=int, default=None)
    top.add_argument("--budget-carrier", type=int, default=None)
    top.add_argument("--unsafe-budgets", action="store_true")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a script file ('-' for stdin)")
    p.add_argument("script")

    p = sub.add_parser("prove", help="decide a sequent, e.g. '{x} |- {x}'")
    p.add_argument("sequent")

    p = sub.add_parser("interp", help="prove a sequent and interpolate it")
    p.add_argument("--left", required=True, help="comma-separated left generators")
    p.add_argument("--right", required=True, help="comma-separated right generators")
    p.add_argument("sequent")

    p = sub.add_parser("dissolve", help="freely complement a lattice")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--chain", type=int, help="the n-element chain")
    g.add_argument("--bool", type=int, dest="bool_atoms", help="the powerset of n atoms")

    p = sub.add_parser("baire", help="comeager core and Baire decomposition")
    p.add_argument("--points", required=True, help="comma-separated point names")
    p.add_argument("--open", action="append", default=[], dest="opens",
                   help="comma-separated open set (repeatable; '' for empty)")
    p.add_argument("--element", default=None, help="ambient element to decompose")

    p = sub.add_parser("prune", help="rank a relation or prune a diagram")
    p.add_argument("--carrier", default=None, help="comma-separated relation carrier")
    p.add_argument("--edges", default=None,
                   help="comma-separated a:b pairs (a related to b)")
    p.add_argument("--diagram", default=None, help="diagram JSON file")

    p = sub.add_parser("spec", help="spectrum of a presentation")
    p.add_argument("--gens", required=True, help="comma-separated generator names")
    p.add_argument("--rel", action="append", default=[], dest="rels",
                   help="relation, e.g. 'a & b <= 0' (repeatable)")
    p.add_argument("--boolean", action="store_true")
    p.add_argument("--realize", action="store_true", help="also build the lattice")

    p = sub.add_parser("image", help="least cover of a direct image")
    p.add_argument("--fun", required=True, help="comma-separated a:x graph pairs")
    p.add_argument("--cod", required=True, help="comma-separated codomain points")
    p.add_argument("--set", required=True, dest="subset",
                   help="comma-separated domain subset")

    sub.add_parser("selftest", help="quick deterministic engine check")
    return top


def _split(s: str) -> list[str]:
    return [x for x in s.split(",") if x != ""]


def _script_source(args) -> str:
    """Assemble script text for the flag-driven subcommands."""
    if args.command == "prove":
        return f"prove {args.sequent};"
    if args.command == "interp":
        l = ", ".join(_split(args.left))
        r = ", ".join(_split(args.right))
        return f"interp {{{l}}} {{{r}}} {args.sequent};"
    if args.command == "dissolve":
        if args.chain is not None:
            return f"lattice A = chain {args.chain};\ndissolve A;"
        return f"lattice A = bool {args.bool_atoms};\ndissolve A;"
    if args.command == "baire":
        pts = ", ".join(_split(args.points))
        opens = ", ".join("{" + ", ".join(_split(o)) + "}" for o in args.opens)
        if not opens:
            opens = "{}"
        lines = [f"topology T {{ {pts} : {opens} }};"]
        if args.element is not None:
            lines.append("baire T {" + ", ".join(_split(args.element)) + "};")
        else:
            lines.append("baire T;")
        return "\n".join(lines)
    if args.command == "spec":
        kw = "boolgens" if args.boolean else "gens"
        lines = [f"{kw} {' '.join(_split(args.gens))};"]
        lines.extend(f"rel {r};" for r in args.rels)
        lines.append("spec;")
        if args.realize:
            lines.append("realize;")
        return "\n".join(lines)
    if args.command == "image":
        fun = ", ".join(p.replace(":", " -> ") for p in _split(args.fun))
        cod = ", ".join(_split(args.cod))
        sub = ", ".join(_split(args.subset))
        return f"image {{{fun}}} in {{{cod}}} of {{{sub}}};"
    raise DomainError(f"no script form for {args.command!r}")


def _prune_invocation(args, budgets):
    if args.diagram is not None:
        with open(args.diagram, encoding="utf-8") as fh:
            text = fh.read()
        try:  # the level sizes, before validation pushes every point down the index
            data = json.loads(text)
            levels = _decode(data["levels"])
            check_budget(budgets, "diagram", sum(len(lv) for _, lv in levels))
            diagram = CoDiagram._from_data(data, levels)
        except ResourceBudgetError as e:  # the record ``dsl.run`` makes for it
            report = dsl.Report(exit_code=2)
            report.add("error", ok=False, error="budget", detail=str(e))
            return report
        except (KeyError, TypeError, ValueError) as e:  # not JSON, or not of a diagram's shape
            raise DomainError(f"malformed diagram JSON: {type(e).__name__}: {e}") from None
        script = dsl.Script((dsl.PruneQuery("D"),))
        return dsl.run(script, budgets, named={"D": ("diagram", diagram)})
    if args.carrier is None:
        raise DomainError("prune needs --carrier/--edges or --diagram")
    carrier = ", ".join(_split(args.carrier))
    edges = ", ".join(p.replace(":", " -> ") for p in _split(args.edges or ""))
    body = carrier + (f" : {edges}" if edges else "")
    source = f"relation R {{ {body} }};\nprune R;"
    return dsl.run(dsl.parse(source), budgets)


def _selftest(seed: int) -> dsl.Report:
    """A fixed battery touching every engine, deterministic per seed."""
    rng = random.Random(seed)
    gens = "xyzw"
    checks = []
    source = [
        "lattice A = chain 3;",
        "dissolve A;",
        "poset P { a, b : a <= b };",
        "lattice L = downsets P;",
        "topology T { p, q : {p} };",
        "baire T {q};",
        "relation R { 0, 1, 2 : 1 -> 0, 2 -> 1 };",
        "prune R;",
        "gens x y;",
        "rel x & y <= 0;",
        "spec;",
    ]
    for _ in range(5):
        a, b = rng.choice(gens), rng.choice(gens)
        source.append(f"prove {{{a} & {b}}} |- {{{b}}};")
    report = dsl.run(dsl.parse("\n".join(source)))
    report.add("selftest", seed=seed, checks=len(report.records))
    report.records.insert(0, report.records.pop())  # the summary leads
    return report


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        budgets = budgets_from_env(DEFAULT_BUDGETS)
        if args.budget_gens is not None:
            budgets = budgets.bumped(gens=args.budget_gens)
        if args.budget_carrier is not None:
            budgets = budgets.bumped(carrier=args.budget_carrier)
        if args.unsafe_budgets:
            budgets = budgets.bumped(unsafe=True)
        if args.command == "run":
            if args.script == "-":
                source = sys.stdin.read()
            else:
                with open(args.script, encoding="utf-8") as fh:
                    source = fh.read()
            report = dsl.run(dsl.parse(source), budgets)
        elif args.command == "selftest":
            report = _selftest(args.seed)
        elif args.command == "prune":
            report = _prune_invocation(args, budgets)
        else:
            report = dsl.run(dsl.parse(_script_source(args)), budgets)
    except ParseError as e:
        print(f"parse error at {e}")
        return 2
    except OSError as e:
        print(f"input error: {e}")
        return 2
    except LocalixError as e:
        print(f"input error: {e}")
        return 2

    try:
        out = dsl.render(report, args.format)
    except DomainError as e:
        print(f"usage error: {e}")
        return 2
    sys.stdout.write(out)
    if report.exit_code:
        return report.exit_code
    if args.strict and any(not rec["ok"] for rec in report.records):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
