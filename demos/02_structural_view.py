#!/usr/bin/env python3
"""The structural view: all bodies glued into one graph with links.

Instead of a map from symbols to bodies, a nested term graph can be given
as a single enriched term graph: call links step into a definition,
return links step back out to the matching argument, and every vertex
points to the innermost occurrence vertex it is nested under; following
the pointers spells out its chain of enclosing occurrences.
"""

import pathlib
import sys

try:
    import ntg
except ImportError:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    import ntg

from ntg import check_sntg, export_dot, ntg_isomorphic, ntg_to_sntg, parse_rgs, sntg_to_ntg

DATA = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"

n = parse_rgs((DATA / "n.rgs").read_text())
s = ntg_to_sntg(n)

print(f"{len(s.tg)} vertices, {len(s.call)} call links, {len(s.ret)} return links")
print("\ncall links (occurrence -> definition root):")
for v in sorted(s.call, key=str):
    print(f"  {v} -> {s.call[v]}")
print("\nreturn links (input vertex -> occurrence argument):")
for v in sorted(s.ret, key=str):
    print(f"  {v} -> {s.ret[v]}")
print("\nancestor chains of the definition roots:")
for v in sorted(s.call.values(), key=str):
    print(f"  {v}: [{' '.join(s.anc[v])}]")

# The well-formedness conditions are independently checkable; a single
# fault shows up under the condition it breaks.
print("\nconditions hold:", check_sntg(s) == [])
broken_inner = dict(s.inner)
victim = next(v for v in sorted(s.anc, key=str) if len(s.anc[v]) == 2)
broken_inner[victim] = s.inner[s.inner[victim]]  # its grandparent
from ntg import Sntg

broken = Sntg(s.tg, s.call, s.ret, broken_inner)
print("after shortening one ancestor chain:")
for violation in check_sntg(broken)[:3]:
    print("  ", violation)

# The two views determine each other up to isomorphism.
back = sntg_to_ntg(s)
print("\nround trip is an isomorphism:", ntg_isomorphic(n, back) is not None)

# DOT rendering groups each definition into a cluster; call and return
# links are dashed.  Copy the digraph into Graphviz to draw it.
dot = export_dot(s)
print(f"\nDOT rendering ({len(dot.splitlines())} lines):")
print(dot, end="")
