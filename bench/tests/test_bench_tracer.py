"""Tracer: self-time arithmetic and rebinding across modules."""

import types

import numpy as np
import pytest

from tracer import Tracer, install


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds mid [1, 7], which holds leaf [2, 5]; then a
    # second leaf [8, 9] directly under outer.
    tracer = Tracer(clock=_clock(0.0, 1.0, 2.0, 5.0, 7.0, 8.0, 9.0, 10.0))
    leaf = tracer.wrap("m.leaf", lambda: None)
    mid = tracer.wrap("m.mid", leaf)

    def body():
        mid()
        leaf()

    tracer.wrap("m.outer", body)()
    summary = tracer.summary()
    assert summary["m.outer"]["self_ms"] == pytest.approx(1e3 * (10 - 6 - 1))
    assert summary["m.mid"]["self_ms"] == pytest.approx(1e3 * (6 - 3))
    assert summary["m.leaf"] == {"calls": 2, "points": 0,
                                 "self_ms": pytest.approx(1e3 * (3 + 1))}


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=_clock(0.0, 2.0))

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("m.fail", fail)()
    assert tracer.summary()["m.fail"]["self_ms"] == pytest.approx(2e3)
    assert tracer._open == []


def test_install_rebinds_every_holder_and_patches_methods():
    lib = types.ModuleType("lib")
    exec("def grid(n):\n    return [0.0] * n\n"
         "class Table:\n    def index(self, x):\n        return x\n",
         lib.__dict__)
    user = types.ModuleType("user")
    user.grid = lib.grid  # as `from .lib import grid` binds it
    exec("def run():\n    return grid(3)\n", user.__dict__)

    tracer = Tracer()
    replaced = install(tracer, {"lib": lib, "user": user},
                       traced=(("lib", "grid", False),
                               ("lib", "Table.index", True)))
    assert replaced == 3
    assert user.run() == [0.0, 0.0, 0.0]
    assert lib.Table().index(np.zeros((2, 5))).shape == (2, 5)
    summary = tracer.summary()
    assert summary["lib.grid"]["calls"] == 1
    assert (summary["lib.index"]["calls"],
            summary["lib.index"]["points"]) == (1, 10)
