"""The three workloads: seeded inputs, one operation per instance, and the
checks each output must pass. Operations call `mwns` through its module
attributes, so the tracer's wrappers see them.
"""

from __future__ import annotations

import random

from checker import nx_graph, smallest_separator, violation
from families import (Spec, block_tree, edge_probability, flower, multiway_cut_encoding,
                      pendant_chain)

# random_solve: a pool drawn once from a fixed seed, solved as drawn and
# again under a relabeling drawn from `--seed`
POOL_SEED = 20231006
RANDOM_GRAPHS, GRAPH_N, GRAPH_P = 48, (20, 26), (0.10, 0.16)  # 5 terminals, k in {2, 3}
ENCODINGS, ENCODING_N, ENCODING_P = 12, (18, 24), (0.08, 0.14)  # 4 terminals, k in {2, 3}

# tree_blocker: block trees per pass (enough that the summed result size
# moves under 5% between seeds) and their size; the pendant chain stays
# below the depth at which blocker_run overflows the recursion limit
BLOCK_TREES, TREE_BLOCKS = 48, 35
SMALL_TREES, SMALL_BLOCKS = 4, 5
CHAIN_LENGTH = 300

# petal_reduce: flowers per pass (a flower's cost follows its seeded petal
# order, and three average that out); petals per hub pair (the first pair gets
# more than the k + 2 = 5 components RR3 keeps marked); petal lengths
FLOWERS = 3
PETAL_COUNTS = (6, 1, 1)
PETAL_LENGTHS = (9, 9, 10, 10, 10, 11, 11, 11)
PENDANT = 5


class Workload:
    """Specs generated from a seed; `load` turns them into `mwns` instances."""

    name = ""

    def __init__(self, seed: int):
        self.specs: list[Spec] = []
        self.instances: list = []

    def load(self, mwns) -> None:
        self.mwns = mwns
        self.instances = [mwns.instance_io.parse_instance(s.text()) for s in self.specs]
        self.graphs = [nx_graph(s.n, s.edges) for s in self.specs]

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError

    def size(self, outs: list) -> int:
        """The answer-size total of one pass (the end-to-end `result_size`)."""
        raise NotImplementedError

    def fingerprint(self, out):
        """A comparable summary of one output, equal on every pass."""
        raise NotImplementedError


def solve_pool() -> list:
    """The random_solve instances before relabeling. Instances without a
    T-cycle are answered before any search starts, so they are skipped."""
    rng = random.Random(POOL_SEED)
    pool = []
    while len(pool) < RANDOM_GRAPHS + ENCODINGS:
        if len(pool) < RANDOM_GRAPHS:
            spec = edge_probability(rng, rng.randint(*GRAPH_N), rng.uniform(*GRAPH_P),
                                    5, rng.choice((2, 3)))
        else:
            spec = multiway_cut_encoding(edge_probability(
                rng, rng.randint(*ENCODING_N), rng.uniform(*ENCODING_P), 4, rng.choice((2, 3))))
        if violation(nx_graph(spec.n, spec.edges), spec.terminals, ()) is not None:
            pool.append(spec)
    return pool


class RandomSolve(Workload):
    """`solver.solve` on edge-probability graphs and multiway-cut encodings:
    a fixed pool, once as drawn and once under a seeded relabeling of the
    vertices. The search order follows the labels, so the relabeled half
    varies the search with the seed while the half as drawn does the same
    work on every seed. Each reference verdict comes from exhaustive search
    over non-terminal subsets of size at most k, judged by the benchmark's
    own checker; relabeling keeps the verdict."""

    name = "random_solve"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        pool = solve_pool()
        self.specs = pool + [spec.relabeled(rng) for spec in pool]
        verdicts = [
            "NO" if smallest_separator(nx_graph(s.n, s.edges), s.terminals, limit=s.k) is None
            else "YES" for s in pool]
        self.verdicts = verdicts + verdicts

    def run(self, i):
        return self.mwns.solver.solve(self.instances[i])

    def check(self, i, out):
        spec, verdict = self.specs[i], self.verdicts[i]
        if not out.is_yes:
            return None if verdict == "NO" else "NO where exhaustive search finds a solution"
        if verdict != "YES":
            return "YES where exhaustive search finds no solution"
        if len(out.solution) > spec.k:
            return f"solution of size {len(out.solution)} exceeds k={spec.k}"
        return violation(self.graphs[i], spec.terminals, out.solution)

    def size(self, outs):
        return sum(len(o.solution) for o in outs if o.is_yes)

    def fingerprint(self, out):
        return out.solution


class TreeBlocker(Workload):
    """`blocker.blocker_run` on glued block trees, a few trees small enough
    for an exhaustive optimum, and one long pendant chain."""

    name = "tree_blocker"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        self.specs = [block_tree(rng, TREE_BLOCKS) for _ in range(BLOCK_TREES)]
        self.specs += [block_tree(rng, SMALL_BLOCKS) for _ in range(SMALL_TREES)]
        self.specs.append(pendant_chain(CHAIN_LENGTH))
        small = range(BLOCK_TREES, BLOCK_TREES + SMALL_TREES)
        self.optimum = {}
        for i in small:
            s = self.specs[i]
            best = smallest_separator(nx_graph(s.n, s.edges), s.terminals, avoid={s.pivot})
            self.optimum[i] = len(best)

    def run(self, i):
        spec = self.specs[i]
        return self.mwns.blocker.blocker_run(self.instances[i].graph, spec.terminals, spec.pivot)

    def check(self, i, out):
        spec, result = self.specs[i], out.result
        if spec.pivot in result:
            return f"result holds the pivot {spec.pivot}"
        bad = violation(self.graphs[i], spec.terminals, result)
        if bad:
            return bad
        if i in self.optimum and len(result) > 14 * self.optimum[i]:
            return f"|result|={len(result)} exceeds 14 * opt_x={self.optimum[i]}"
        return None

    def size(self, outs):
        return sum(len(o.result) for o in outs)

    def fingerprint(self, out):
        return out.result


class PetalReduce(Workload):
    """`reducer.reduce_terminals` on flowers with the hubs as planted
    solution, the log's text round trip that `mwns reduce --log` and
    `mwns lift` make, and `lift_solution` of the planted solution."""

    name = "petal_reduce"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        self.specs = [flower(rng, PETAL_COUNTS, PETAL_LENGTHS, PENDANT) for _ in range(FLOWERS)]

    def run(self, i):
        mw, spec = self.mwns, self.specs[i]
        reduced, log, feasible = mw.reducer.reduce_terminals(self.instances[i], spec.planted)
        text = mw.instance_io.format_instance(log.original) + log.serialize() + "\n"
        lines = text.splitlines()
        # the instance directives and the step lines share the log file; a
        # directive is a whole first token (`essential` is a step, not `e`)
        original = mw.instance_io.parse_instance(
            "\n".join(l for l in lines if l.split()[:1] in (["p"], ["e"], ["t"], ["k"])))
        steps = mw.reducer.parse_steps(lines)
        parsed = mw.reducer.ReductionLog(original, tuple(steps))
        essential = {s.x for s in steps if isinstance(s, mw.reducer.EssentialVertex)}
        lifted = mw.reducer.lift_solution(parsed, spec.planted - essential)
        return reduced, feasible, parsed, lifted

    def check(self, i, out):
        spec, g = self.specs[i], self.graphs[i]
        reduced, feasible, parsed, lifted = out
        if not feasible:
            return "planted solution judged infeasible"
        if not reduced.terminals <= spec.terminals:
            return "reduced terminals are not a subset of T"
        if reduced.k > spec.k:
            return f"k'={reduced.k} exceeds k={spec.k}"
        kept = set(reduced.graph.vertices)
        if not kept <= set(g):
            return "reduced graph has vertices outside G"
        induced = {frozenset(e) for e in g.subgraph(kept).edges()}
        if {frozenset(e) for e in reduced.graph.edges()} != induced:
            return "reduced graph is not an induced subgraph of G"
        if parsed.reduced() != reduced:
            return "the parsed log replays to another reduced instance"
        if len(lifted) > spec.k:
            return f"lifted solution of size {len(lifted)} exceeds k={spec.k}"
        return violation(g, spec.terminals, lifted)

    def size(self, outs):
        return sum(len(o[0].terminals) for o in outs)

    def fingerprint(self, out):
        reduced, _, _, lifted = out
        return reduced, lifted


WORKLOADS = {w.name: w for w in (RandomSolve, TreeBlocker, PetalReduce)}
