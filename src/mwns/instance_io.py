"""Line-oriented instance files: `p mwns <n> <m>`, `e u v`, `t u`, `k <k>`."""

from __future__ import annotations

from .graph import Graph
from .core import Instance


def parse_int(tok: str) -> int:
    """The integer `tok` spells in ASCII digits after an optional leading
    "-"; a ValueError for anything else, also what `int` would take: a "+",
    underscores, surrounding blanks or non-ASCII digits."""
    if tok.isascii() and (tok.isdigit() or tok[:1] == "-" and tok[1:].isdigit()):
        return int(tok)
    raise ValueError(f"not an integer: {tok!r}")


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_instance(text: str) -> Instance:
    n = m = None
    budget = None
    edges: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()
    terminals: set[int] = set()

    def want_int(tok: str, lineno: int) -> int:
        try:
            return parse_int(tok)
        except ValueError:
            raise ParseError(lineno, f"expected an integer, got {tok!r}") from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate header")
            if len(tokens) != 4 or tokens[1] != "mwns":
                raise ParseError(lineno, "header must read 'p mwns <n> <m>'")
            n, m = want_int(tokens[2], lineno), want_int(tokens[3], lineno)
            if n < 0 or m < 0:
                raise ParseError(lineno, "vertex and edge counts must be >= 0")
        elif kind == "e":
            if n is None:
                raise ParseError(lineno, "edge before header")
            if len(tokens) != 3:
                raise ParseError(lineno, "edge line must read 'e <u> <v>'")
            u, v = want_int(tokens[1], lineno), want_int(tokens[2], lineno)
            if u == v:
                raise ParseError(lineno, f"self-loop at {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(lineno, f"edge ({u},{v}) out of range 1..{n}")
            key = (u, v) if u < v else (v, u)
            if key in seen_edges:
                raise ParseError(lineno, f"duplicate edge ({u},{v})")
            seen_edges.add(key)
            edges.append((u, v))
        elif kind == "t":
            if n is None:
                raise ParseError(lineno, "terminal before header")
            if len(tokens) != 2:
                raise ParseError(lineno, "terminal line must read 't <u>'")
            u = want_int(tokens[1], lineno)
            if not 1 <= u <= n:
                raise ParseError(lineno, f"terminal {u} out of range 1..{n}")
            if u in terminals:
                raise ParseError(lineno, f"duplicate terminal {u}")
            terminals.add(u)
        elif kind == "k":
            if len(tokens) != 2:
                raise ParseError(lineno, "budget line must read 'k <k>'")
            if budget is not None:
                raise ParseError(lineno, "duplicate budget")
            budget = want_int(tokens[1], lineno)
            if budget < 0:
                raise ParseError(lineno, "budget must be >= 0")
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
    if n is None:
        raise ParseError(0, "missing header 'p mwns <n> <m>'")
    if budget is None:
        raise ParseError(0, "missing budget line 'k <k>'")
    if len(edges) != m:
        raise ParseError(0, f"header promises {m} edges, found {len(edges)}")
    return Instance.of(Graph(range(1, n + 1), edges), terminals, budget)


def format_instance(inst: Instance, comment: str | None = None) -> str:
    g = inst.graph
    lines = []
    if comment:
        lines.append(f"# {comment}")
    # vertex ids survive reduction, so the header covers the largest id; ids
    # that were deleted reappear as isolated non-terminals, which never affect
    # the answer
    n = max(g.vertices) if g.vertices else 0
    lines.append(f"p mwns {n} {g.m}")
    for u, v in g.edges():
        lines.append(f"e {u} {v}")
    for t in sorted(inst.terminals):
        lines.append(f"t {t}")
    lines.append(f"k {inst.k}")
    return "\n".join(lines) + "\n"
