"""The benchmark's checker against the brute-force oracle of the test suite.

    python3 -m pytest bench/test_checker.py

`tests/brute.py` decides near-separation by enumerating simple cycles
(`mwns_condition3`); the checker uses networkx blocks. They must agree on
every deletion set of every small random graph tried here.
"""

import itertools
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "tests", ROOT / "bench"):
    sys.path.insert(0, str(path))

from brute import mwns_condition3, random_graph  # noqa: E402
from checker import nx_graph, smallest_separator, violation  # noqa: E402


def test_checker_agrees_with_cycle_enumeration():
    rng = random.Random(7)
    compared = 0
    for _ in range(120):
        n = rng.randint(3, 7)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        T = frozenset(rng.sample(range(1, n + 1), rng.randint(2, min(3, n))))
        h = nx_graph(n, g.edges())
        rest = [v for v in g.vertices if v not in T]
        for r in range(len(rest) + 1):
            for S in itertools.combinations(rest, r):
                assert (violation(h, T, S) is None) == mwns_condition3(g, T, S), (g.edges(), T, S)
                compared += 1
    assert compared > 1000


def test_checker_rejects_terminals_in_the_deletion_set():
    h = nx_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert violation(h, {1, 3}, {1}) is not None
    assert violation(h, {1, 3}, {2}) is not None  # 1 and 3 stay adjacent
    assert violation(nx_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]), {1, 3}, {2}) is None


def test_smallest_separator_is_minimum():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(4, 7)
        g = random_graph(rng, n, 0.5)
        T = frozenset(rng.sample(range(1, n + 1), 2))
        if any(g.has_edge(a, b) for a, b in itertools.combinations(T, 2)):
            continue
        best = smallest_separator(nx_graph(n, g.edges()), T)
        rest = [v for v in g.vertices if v not in T]
        sizes = [r for r in range(len(rest) + 1)
                 for S in itertools.combinations(rest, r) if mwns_condition3(g, T, S)]
        assert len(best) == min(sizes)
