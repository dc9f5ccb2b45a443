"""DOT export of graphs and block-cut forests."""

from __future__ import annotations

from .core import Instance
from .blockcut import BlockCutForest, node_label


def instance_to_dot(inst: Instance) -> str:
    g = inst.graph
    lines = ["graph mwns {"]
    for v in g.vertices:
        shape = "doublecircle" if v in inst.terminals else "circle"
        lines.append(f'  {v} [shape={shape}];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def forest_to_dot(f: BlockCutForest) -> str:
    lines = ["graph blockcut {"]
    for nid, (s, c) in enumerate(zip(f.sets, f.cutv)):
        lines.append(f'  n{nid} [shape={"box" if c is None else "circle"},label="{node_label(s, c)}"];')
    lines += [f"  n{p} -- n{c};" for c, p in enumerate(f.parent) if p is not None]
    lines.append("}")
    return "\n".join(lines) + "\n"
