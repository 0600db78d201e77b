#!/usr/bin/env python3
"""Homomorphism and bisimilarity, with and without stacks.

Homomorphisms witness sharing: they may merge vertices and map a defined
symbol onto one of smaller arity, but never split.  Bisimilarity is
witnessed by a specification over paired symbols whose projections are
homomorphisms.  The stack-based variant compares arbitrary (shared,
cyclic) specifications through configurations that record the nesting
history; on tree-shaped inputs both notions coincide.
"""

import pathlib
import sys

try:
    import ntg
except ImportError:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    import ntg

from ntg import (
    cross_check_theorems,
    nested_bisim,
    nested_hom,
    ntg_bisimilar,
    ntg_hom,
    ntg_isomorphic,
    parse_rgs,
    unfold_to_ntg,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"
a, b, c, d = (parse_rgs((DATA / f"chain_{x}.rgs").read_text()) for x in "abcd")

# Four variants of one specification, from most shared (a) to most
# duplicated (d).  Homomorphisms exist only toward more sharing.
print("homomorphisms along the chain (rows: source, columns: target):")
names = ["a", "b", "c", "d"]
for i, src in enumerate((a, b, c, d)):
    row = []
    for tgt in (a, b, c, d):
        row.append("yes" if ntg_hom(src, tgt) is not None else " - ")
    print(f"  {names[i]}:  " + "  ".join(row))

witness = ntg_bisimilar(a, d)
print("\na and d are bisimilar; witness symbols:", sorted(witness.witness.signature.nested))

# Stack-based comparison works directly on the shared specification,
# without unfolding it first.
r0 = parse_rgs((DATA / "r0.rgs").read_text())
u = unfold_to_ntg(r0).rgs
print("\nshared specification vs its unfolding:", nested_bisim(r0, u).verdict)
print("stack-based homomorphisms both ways:",
      nested_hom(r0, u).exists, "/", nested_hom(u, r0).exists)

# On cyclic specifications the stack-based comparisons are still exact:
# they tabulate call/return summaries per pair of entered definitions
# instead of listing stacks, which grow without bound here.  A
# homomorphism asks in addition that each such context be functional.
r1 = parse_rgs((DATA / "r1.rgs").read_text())
r1u = parse_rgs((DATA / "r1_unrolled.rgs").read_text())
res = nested_bisim(r1, r1u)
print("cyclic specification vs its two-definition unrolling:", res.verdict,
      f"({res.contexts} contexts, {res.facts} facts)")
hom = nested_hom(r1, r1u)
print("stack-based homomorphism onto the unrolling:", hom.verdict,
      f"({hom.contexts} contexts, {hom.facts} facts)")

# The minimal self-bisimulation is the diagonal over stack-prefixed
# visits, so it grows with the unfolding: on acyclic input the relation is
# expanded from the summaries, context by context.  The witness read off
# the summaries stays as shared as the specification, and unfolding it
# gives the unfolding of the specification.
rel = nested_bisim(r0, r0).relation
print(f"minimal self-bisimulation: {len(rel)} configurations, "
      f"max stack depth {rel.max_stack_depth()}")
print("the unfolded self-witness is the unfolding:",
      ntg_isomorphic(unfold_to_ntg(nested_bisim(r0, r0).witness.witness).rgs, u) is not None)

# Executable coincidence checks: the stack-based deciders must agree with
# the scoped and first-order ones on the unfoldings; a disagreement would
# be an implementation bug.
print("\ncross-checks on (a, d):")
print(cross_check_theorems(a, d))
