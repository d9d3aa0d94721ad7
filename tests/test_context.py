"""One Context object per signature.

Context(even, odd) hash-conses on its ordered generator names, so every
producer of contexts (the constructor, script context statements,
from_json, product_context and liealg._extended) hands back the one live
object of a signature, and contexts compare and hash by identity.  Copies
and pickles come back as that object, a construction that fails registers
nothing, dropped contexts leave the weak registry, even without the cycle
collector once they have printed, and threads racing on a new signature
still get one object.
"""

import copy
import gc
import json
import pickle
import random
import sys
import threading
import weakref

import pytest

from helpers import random_poly, random_supermatrix
from supergeom import Context, SuperMatrix, SuperPoly, product_context
from supergeom.liealg import RESERVED, _extended
from supergeom.poly import _CONTEXTS
from supergeom.script import Interpreter
from supergeom.serialize import from_json, to_json


# -- one object per signature -------------------------------------------------


def test_the_constructor_returns_one_object_per_signature():
    ctx = Context(["t"], ["a"])
    assert Context(("t",), ("a",)) is ctx
    assert Context(even=iter(["t"]), odd=iter(["a"])) is ctx
    assert Context(odd=["a"], even=("t",)) is ctx
    assert Context(["t", "s"], ["a"]) is not ctx
    assert Context(["a"], ["t"]) is not ctx
    assert Context(["t"], ["a", "b"]) is not ctx


def test_the_order_of_names_is_part_of_the_signature():
    assert Context(["s", "t"]) is not Context(["t", "s"])
    assert Context(["s", "t"]) != Context(["t", "s"])


def test_two_script_context_statements_give_one_object():
    interp = Interpreter()
    interp.execute(1, "context A even=[t] odd=[a, b]")
    interp.execute(2, "context B even=[t]  odd=[a,b]")
    assert interp.contexts["A"] is interp.contexts["B"]
    assert interp.contexts["A"] is Context(["t"], ["a", "b"])


def test_two_from_json_loads_give_one_object():
    text = json.dumps(to_json(Context(["u_json"], ["a_json"])))
    gc.collect()
    first = from_json(json.loads(text))
    second = from_json(json.loads(text))
    assert first is second
    assert first.even == ("u_json",) and first.odd == ("a_json",)


def test_product_context_and_extended_give_one_object():
    ctx = Context(["t"], ["a"])
    assert product_context(ctx) is product_context(Context(["t"], ["a"]))
    assert product_context(ctx) is Context(["t", "tp"], ["a", "ap"])
    assert _extended(ctx) is _extended(ctx)
    assert _extended(ctx) is Context(["t"], ("a",) + RESERVED)


def test_contexts_compare_by_identity():
    assert "__eq__" not in Context.__dict__
    assert "__hash__" not in Context.__dict__
    ctx = Context(["t"], ["a"])
    assert {ctx: 1}[Context(["t"], ["a"])] == 1


# -- copies and pickles --------------------------------------------------------


def fields(ctx):
    return ctx.even, ctx.odd, dict(ctx._texts)


@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    lambda v: pickle.loads(pickle.dumps(v)),
])
def test_copies_keep_the_registered_object(clone):
    ctx = Context(["t", "s"], ["a", "b"])
    rng = random.Random(2101)
    p = random_poly(rng, ctx, n_terms=4)
    m = random_supermatrix(rng, ctx, (1, 1), (1, 1))
    str(p), str(m)
    before = fields(ctx)
    assert clone(ctx) is ctx
    q = clone(p)
    assert q.ctx is ctx and q == p and str(q) == str(p)
    n = clone(m)
    assert n.ctx is ctx and n == m
    assert all(e.ctx is ctx for row in n.rows for e in row)
    assert fields(ctx) == before


def test_the_empty_context_is_left_alone_by_copies():
    empty = Context()
    ctx = Context(["t"], ["a"])
    copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))
    assert (empty.even, empty.odd, empty.names) == ((), (), ())
    assert Context() is empty


# -- the registry --------------------------------------------------------------


def test_a_failed_construction_registers_nothing():
    gc.collect()
    start = len(_CONTEXTS)
    with pytest.raises(ValueError, match="generator names must be distinct"):
        Context(["dup_t", "dup_t"], [])
    with pytest.raises(ValueError, match="generator names must be distinct"):
        Context(["dup_t"], ["dup_t"])
    assert len(_CONTEXTS) == start
    assert all("dup_t" not in ctx.names for ctx in _CONTEXTS.values())


def test_dropped_contexts_leave_the_registry():
    gc.collect()
    start = len(_CONTEXTS)
    for k in range(2000):
        ctx = Context([f"drop{k}"], [f"alpha{k}"])
        str(SuperPoly.var(ctx, f"drop{k}") * SuperPoly.var(ctx, f"alpha{k}"))
    del ctx
    gc.collect()
    assert len(_CONTEXTS) == start


def test_a_dropped_context_that_printed_dies_without_the_collector():
    # its print memo must not refer back to it: a reference cycle would
    # keep it registered until the next collection
    ctx = Context(["refcount_t"], ["refcount_a"])
    str(ctx.var("refcount_t") * ctx.var("refcount_a") + 1)
    assert len(ctx._texts) == 2
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def test_threads_racing_on_a_new_signature_get_one_object():
    # more threads than cores, switching often, each round on a new
    # signature; an unlocked check-then-insert hands out two objects
    count = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            names = ([f"race{round_}_t{i}" for i in range(6)],
                     [f"race{round_}_a{i}" for i in range(6)])
            barrier = threading.Barrier(count)
            got = [None] * count

            def build(k):
                barrier.wait(timeout=10)
                got[k] = Context(*names)

            threads = [threading.Thread(target=build, args=(k,)) for k in range(count)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert got[0] is not None
            assert all(ctx is got[0] for ctx in got)
            assert got[0] is Context(*names)
    finally:
        sys.setswitchinterval(interval)


# -- values loaded from JSON ---------------------------------------------------


def test_matrices_loaded_apart_share_one_context_and_multiply():
    ctx = Context(["t"], ["theta1", "theta2", "theta3", "theta4"])
    rng = random.Random(2102)
    s = random_supermatrix(rng, ctx, (2, 2), (2, 2))
    t = random_supermatrix(rng, ctx, (2, 2), (2, 2))
    s_json, t_json = (json.dumps(to_json(m)) for m in (s, t))
    ls = from_json(json.loads(s_json))
    lt = from_json(json.loads(t_json))
    assert isinstance(ls, SuperMatrix) and isinstance(lt, SuperMatrix)
    assert ls.ctx is lt.ctx is ctx
    assert all(e.ctx is ctx for m in (ls, lt) for row in m.rows for e in row)
    assert ls @ lt == s @ t
    assert str(ls @ lt) == str(s @ t)
