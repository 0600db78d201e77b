"""Randomized invariants, driven by hypothesis over generator seeds."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ntg import (
    Rgs,
    check_sntg,
    interpret,
    is_rg_member,
    ntg_isomorphic,
    ntg_to_sntg,
    parse_rgs,
    print_rgs,
    represent,
    sntg_to_ntg,
    tg_bisimilar,
    nested_bisim,
    unfold_to_ntg,
    validate_rgs,
    is_ntg,
)
from generators import mutate_ntg, random_acyclic_rgs, random_ntg

seeds = st.integers(0, 10**9)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_print_parse_identity(seed):
    rng = random.Random(seed)
    r = random_acyclic_rgs(rng)
    assert print_rgs(parse_rgs(print_rgs(r))) == print_rgs(r)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_retraction(seed):
    n = random_ntg(random.Random(seed))
    assert ntg_isomorphic(n, represent(interpret(n))) is not None


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_structural_roundtrip(seed):
    n = random_ntg(random.Random(seed))
    s = ntg_to_sntg(n)
    assert check_sntg(s) == []
    assert ntg_isomorphic(n, sntg_to_ntg(s)) is not None


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_unfolding_is_valid_and_bisimilar(seed):
    r = random_acyclic_rgs(random.Random(seed))
    res = unfold_to_ntg(r)
    fresh = Rgs(res.rgs.signature, res.rgs.rec)  # checked here, not given by the unfolding
    assert validate_rgs(fresh) == [] and is_ntg(fresh).ok
    assert nested_bisim(r, fresh).bisimilar


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_stackless_and_flattened_bisimilarity_agree(seed):
    rng = random.Random(seed)
    n1 = random_ntg(rng)
    n2 = mutate_ntg(rng, n1) if rng.random() < 0.6 else random_ntg(rng)
    nested = nested_bisim(n1, n2).bisimilar
    flat = tg_bisimilar(interpret(n1), interpret(n2))
    assert nested == flat


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_interpretations_are_members(seed):
    assert is_rg_member(interpret(random_ntg(random.Random(seed))))
