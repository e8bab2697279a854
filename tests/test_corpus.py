"""Tests for seeded corpus generation: parameter box enforcement,
determinism, validity, and the advertised one-periodic sub-corpus."""

import random

import pytest

from hdflow.corpus import (
    ALLOWED_PRIMES,
    CorpusParamError,
    CorpusParams,
    generate,
    one_periodic_instances,
    random_lifting,
    random_nilpotent_higgs,
    random_witt_tuple,
)
from hdflow.curves import ProjectiveLine
from hdflow.flow import FlowPolicy, run_flow
from hdflow.ringmath import Zmod
from hdflow.serialize import canonical_bytes, graded_to_json
from hdflow.witt import gn_construct

from oracles import nilpotency_index


# -- parameter box -----------------------------------------------------------


def test_params_reject_out_of_box():
    with pytest.raises(CorpusParamError):
        CorpusParams(p=4, rank=2, weight=1, count=1, seed=0)
    with pytest.raises(CorpusParamError):
        CorpusParams(p=11, rank=2, weight=1, count=1, seed=0)
    with pytest.raises(CorpusParamError):
        CorpusParams(p=3, rank=5, weight=1, count=1, seed=0)
    with pytest.raises(CorpusParamError):
        CorpusParams(p=3, rank=3, weight=2, count=1, seed=0)
    with pytest.raises(CorpusParamError):
        CorpusParams(p=5, rank=2, weight=2, count=1, seed=0)
    with pytest.raises(CorpusParamError):
        CorpusParams(p=3, rank=2, weight=1, count=0, seed=0)
    with pytest.raises(CorpusParamError):
        CorpusParams(p=3, rank=2, weight=1, count=1, seed=0, curve="E")
    with pytest.raises(CorpusParamError):
        CorpusParams(p=3, rank=2, weight=1, count=1, seed=0, max_exp=7)


def test_params_accept_box_corners():
    CorpusParams(p=7, rank=4, weight=3, count=1, seed=0)
    CorpusParams(p=3, rank=1, weight=0, count=1, seed=0)
    CorpusParams(p=5, rank=4, weight=3, count=1, seed=0, curve="A1")


# -- generation --------------------------------------------------------------


def test_generate_deterministic_and_seed_sensitive():
    params = CorpusParams(p=3, rank=2, weight=1, count=5, seed=7)
    a = [canonical_bytes(graded_to_json(G)) for G in generate(params)]
    b = [canonical_bytes(graded_to_json(G)) for G in generate(params)]
    assert a == b
    other = CorpusParams(p=3, rank=2, weight=1, count=5, seed=8)
    c = [canonical_bytes(graded_to_json(G)) for G in generate(other)]
    assert a != c


def test_generate_valid_instances():
    params = CorpusParams(p=3, rank=2, weight=1, count=10, seed=7)
    out = generate(params)
    assert len(out) == 10
    for G in out:
        G.validate()
        assert G.rank == 2
        assert G.weight == 1
        for P in G.pieces:
            assert all(abs(a) <= 6 for a in P.splitting_type())


def test_generate_rank4_nilpotency_bounded():
    for weight in (1, 2, 3):
        params = CorpusParams(p=5, rank=4, weight=weight, count=4, seed=11)
        for G in generate(params):
            H = G.total()
            assert nilpotency_index(H) is not None
            assert nilpotency_index(H) <= 4


def test_generate_affine_instances():
    params = CorpusParams(p=7, rank=3, weight=2, count=4, seed=2, curve="A1")
    for G in generate(params):
        G.validate()
        assert not G.curve.is_projective
        assert G.rank == 3


# -- one-periodic sub-corpus -------------------------------------------------


def test_one_periodic_instances_have_period_one():
    for p in ALLOWED_PRIMES:
        entries = one_periodic_instances(p)
        assert [name for name, _ in entries] == [
            "trivial-rank-%d" % r for r in (1, 2, 3, 4)
        ]
        ranks = (1, 2, 3, 4) if p == 3 else (2,)
        for name, G in entries:
            if G.rank not in ranks:
                continue
            trace = run_flow(G, FlowPolicy(max_steps=2))
            rep = trace.periodicity
            assert (rep.preperiod, rep.period) == (0, 1)


# -- auxiliary generators ----------------------------------------------------


def test_random_nilpotent_higgs_valid():
    rng = random.Random(5)
    for p, rank, kind in [(3, 2, "P1"), (5, 3, "A1"), (7, 3, "P1")]:
        H = random_nilpotent_higgs(rng, p, rank, curve=kind)
        H.validate()
        assert nilpotency_index(H) is not None
        assert H.bundle.rank == rank
        assert H.bundle.curve.is_projective == (kind == "P1")


def test_random_witt_tuple_valid_and_liftable():
    rng = random.Random(6)
    for p, n, ranks in [(3, 2, (1, 1)), (3, 2, (2, 1)), (5, 2, (1, 1, 1))]:
        tup = random_witt_tuple(rng, p, n, ranks)
        assert tup.n == n
        assert tup.ranks == ranks
        gn_construct(tup)


def test_random_witt_tuple_level_one():
    tup = random_witt_tuple(random.Random(1), 3, 1, (1, 1))
    assert tup.abar is None and tup.psibar is None
    gn_construct(tup)


def test_random_lifting_polynomial_and_deterministic():
    curve = ProjectiveLine(Zmod(3, 1))
    a = random_lifting(random.Random(9), curve)
    b = random_lifting(random.Random(9), curve)
    assert a.h == b.h
    assert len(a.h) == 2
    for h in a.h:
        assert all(e >= 0 for e in h.coeffs)
