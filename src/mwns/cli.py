"""Command-line front end: solve, approx, reduce, lift, verify, oracle, gen, dot."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .blockcut import block_cut_forest
from .blocker import blocker_run
from .core import Instance, is_mwns, terminals_independent
from .dot import forest_to_dot, instance_to_dot
from .gen import from_multiway_cut, random_instance
from .instance_io import format_instance, parse_instance, parse_int
from .reducer import ReductionLog, lift_solution, parse_steps, reduce_terminals
from .solver import oracle_opt_x, oracle_solve, solve

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _load(path: str) -> Instance:
    return parse_instance(Path(path).read_text())


def _vertex_set(tokens, where: str) -> frozenset[int]:
    """The vertex ids `tokens` name; a repeated or non-integer one is an error."""
    seen: set[int] = set()
    for tok in tokens:
        try:
            v = parse_int(tok)
        except ValueError:
            raise ValueError(f"{where}: {tok!r} is not a vertex id") from None
        if v in seen:
            raise ValueError(f"vertex {v} is repeated in {where}")
        seen.add(v)
    return frozenset(seen)


def _print_result(result) -> int:
    if result.is_yes:
        print("YES")
        print(" ".join(str(v) for v in sorted(result.solution)))
        return EXIT_YES
    print("NO")
    return EXIT_NO


def _cmd_solve(args) -> int:
    result = solve(_load(args.file))
    if args.trace:
        for line in result.stats.trace:
            print(line, file=sys.stderr)
    code = _print_result(result)
    if args.stats:
        for line in result.stats.lines():
            print(line)
    return code


def _cmd_approx(args) -> int:
    inst = _load(args.file)
    run = blocker_run(inst.graph, inst.terminals, args.pivot)
    if args.trace and run.iterations:
        print(f"blocker x={args.pivot}", *run.trace_lines(), sep="\n", file=sys.stderr)
    print(" ".join(str(v) for v in sorted(run.result)))
    if args.ratio:
        opt = oracle_opt_x(inst.graph, inst.terminals, args.pivot)
        ratio = len(run.result) / opt if opt else (0.0 if not run.result else float("inf"))
        print(f"opt_x={opt} ratio={ratio:.3f}")
    return EXIT_YES


def _cmd_reduce(args) -> int:
    inst = _load(args.file)
    if args.with_solution:
        s_hat = _vertex_set(Path(args.with_solution).read_text().split(), args.with_solution)
    elif not terminals_independent(inst.graph, inst.terminals):
        # deleting every non-terminal leaves the edge between two terminals
        print(format_instance(inst, comment="answer is NO: two terminals are adjacent"), end="")
        return EXIT_NO
    else:
        s_hat = frozenset(v for v in inst.graph.vertices if v not in inst.terminals)
    reduced, log, feasible = reduce_terminals(inst, s_hat)
    if not feasible:
        # more vertices are unavoidable than the budget allows: already a NO;
        # emit the untouched (trivially equivalent) instance with the certificate
        print(format_instance(inst, comment="answer is NO: essential vertices exceed the budget"), end="")
        for step in log.steps:
            print(f"# {step.serialize()}")
        return EXIT_NO
    print(format_instance(reduced), end="")
    print("# reduction log:")
    for step in log.steps:
        print(f"# {step.serialize()}")
    if args.log:
        text = format_instance(log.original) + log.serialize()
        Path(args.log).write_text(text.rstrip("\n") + "\n")
    return EXIT_YES


def _cmd_lift(args) -> int:
    lines = Path(args.logfile).read_text().splitlines()
    # whole first tokens: step lines such as "essential x=.." begin with "e"
    instance_lines = [l for l in lines
                      if l.split("#", 1)[0].split()[:1] in (["p"], ["e"], ["t"], ["k"])]
    original = parse_instance("\n".join(instance_lines))
    log = ReductionLog(original, tuple(parse_steps(lines)))
    lifted = lift_solution(log, _vertex_set(args.solution, "--solution"))
    print(" ".join(str(v) for v in sorted(lifted)))
    return EXIT_YES


def _cmd_verify(args) -> int:
    inst = _load(args.file)
    S = _vertex_set(args.solution, "--solution")
    if unknown := inst.graph.foreign(S):
        print("invalid: unknown vertices", unknown)
        return EXIT_NO
    if S & inst.terminals:
        print("invalid: deletes terminals", sorted(S & inst.terminals))
        return EXIT_NO
    if len(S) > inst.k:
        print(f"invalid: {len(S)} deletions exceed budget {inst.k}")
        return EXIT_NO
    if not is_mwns(inst.graph, inst.terminals, S):
        print("invalid: two terminals stay doubly connected")
        return EXIT_NO
    print("valid")
    return EXIT_YES


def _cmd_oracle(args) -> int:
    inst = _load(args.file)
    return _print_result(oracle_solve(inst))


def _cmd_gen(args) -> int:
    if args.kind == "random":
        inst = random_instance(args.n, args.p, args.terminals, args.k, args.seed,
                               independent=args.independent)
        comment = (f"gen random --n {args.n} --p {args.p} --terminals {args.terminals} "
                   f"--k {args.k} --seed {args.seed}")
        print(format_instance(inst, comment=comment), end="")
        return EXIT_YES
    inst = from_multiway_cut(_load(args.file))
    print(format_instance(inst, comment="gen from-multiway-cut"), end="")
    return EXIT_YES


def _cmd_important(args) -> int:
    inst = _load(args.file)
    if args.terminal not in inst.terminals:
        raise ValueError(f"{args.terminal} is not a terminal of the instance")
    budget = args.budget if args.budget is not None else inst.k + 1
    if budget < 0:
        raise ValueError(f"--budget must be non-negative, got {budget}")
    from .separators import enumerate_important_separators
    T, t = inst.terminals, args.terminal
    for sep in enumerate_important_separators(inst.graph, {t}, T - {t}, budget, undeletable=T):
        print(" ".join(str(v) for v in sorted(sep)))
    return EXIT_YES


def _cmd_dot(args) -> int:
    inst = _load(args.file)
    if args.bcf:
        print(forest_to_dot(block_cut_forest(inst.graph)), end="")
    else:
        print(instance_to_dot(inst), end="")
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwns",
        description="Find small vertex sets after whose removal every terminal "
                    "pair can be separated by deleting one more vertex.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact answer within the budget")
    p.add_argument("file")
    p.add_argument("--stats", action="store_true", help="print search statistics")
    p.add_argument("--trace", action="store_true",
                   help="print one line per search, each after its blockers' lines, to stderr")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("approx", help="14-approximate near-separator avoiding a pivot")
    p.add_argument("file")
    p.add_argument("--pivot", type=int, required=True)
    p.add_argument("--ratio", action="store_true", help="compare against the enumerated optimum")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("reduce", help="shrink the terminal set, keeping the answer")
    p.add_argument("file")
    p.add_argument("--with-solution", metavar="S_FILE",
                   help="file of vertex ids forming a known near-separator")
    p.add_argument("--log", metavar="PATH", help="write a replayable reduction log")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("lift", help="turn a reduced-instance solution into an original one")
    p.add_argument("logfile")
    p.add_argument("--solution", nargs="*", default=[], required=True)
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("verify", help="check a proposed solution")
    p.add_argument("file")
    p.add_argument("--solution", nargs="*", default=[], required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force answer (small instances)")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("gen", help="generate instances")
    gensub = p.add_subparsers(dest="kind", required=True)
    pr = gensub.add_parser("random")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--p", type=float, required=True)
    pr.add_argument("--terminals", type=int, required=True)
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--seed", type=int, required=True)
    pr.add_argument("--independent", action=argparse.BooleanOptionalAction, default=True)
    pr.set_defaults(fn=_cmd_gen)
    pm = gensub.add_parser("from-multiway-cut")
    pm.add_argument("file")
    pm.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("important",
                       help="debug dump: important separators pushing one terminal away")
    p.add_argument("file")
    p.add_argument("--terminal", type=int, required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="size limit (default: instance budget + 1)")
    p.set_defaults(fn=_cmd_important)

    p = sub.add_parser("dot", help="DOT export of the graph or its block-cut forest")
    p.add_argument("file")
    p.add_argument("--bcf", action="store_true")
    p.set_defaults(fn=_cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps everything to exit 2
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
