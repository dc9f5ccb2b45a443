"""A fixed reference task, timed next to the operations, that gives a time at
the machine's reference speed.

This machine's speed moves with other tenants' load by up to half, for
seconds or for whole runs, and a run's process CPU time moves with it. The
reference task is plain Python of the kind `mwns` runs (copying a graph held
as a dict of sets and walking it depth-first), built without `mwns` from a
fixed seed, so no change to the program can change it. An operation's time
divided by the reference time measured around it, times `REFERENCE_S`, is
what the operation would have taken while the reference task took
`REFERENCE_S`.
"""

from __future__ import annotations

import random
import time

# sets the scale of the reported seconds: about the reference task's median
# time on a 2-vCPU KVM guest (Intel Xeon, Python 3.11.7)
REFERENCE_S = 0.005

_N, _EDGES, _ROUNDS = 400, 900, 2


def _graph() -> dict[int, set[int]]:
    rng = random.Random(1)
    adj: dict[int, set[int]] = {v: set() for v in range(_N)}
    for _ in range(_EDGES):
        a, b = rng.randrange(_N), rng.randrange(_N)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


_ADJ = _graph()


def _task() -> int:
    reached = 0
    for _ in range(_ROUNDS):
        g = {v: set(ns) for v, ns in _ADJ.items()}
        for s in range(0, _N, 40):
            seen, stack = {s}, [s]
            while stack:
                for x in g[stack.pop()]:
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
            reached += len(seen)
    return reached


_REACHED = _task()


def reference() -> float:
    """Seconds the reference task takes now."""
    start = time.perf_counter()
    reached = _task()
    took = time.perf_counter() - start
    if reached != _REACHED:
        raise RuntimeError("the reference task gave another result")
    return took
