"""Tests of the benchmark's span recorder and CSV gate: ``python3 -m pytest perfbench``."""

import sys
import types

import pytest

import run
import spans


def _span(id, start, end, parent=None, name="f"):
    return spans.Span(id, name, start, end, parent)


def test_self_time_subtracts_covered_child_time_once():
    tree = [
        _span(0, 0.0, 10.0, name="outer"),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps span 1: [1, 5] covered once
        _span(3, 9.0, 12.0, parent=0),  # clipped to the parent's end
        _span(4, 1.5, 2.5, parent=1),  # grandchild: only its parent's self time drops
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    table = spans.summarize(tree)
    assert table["outer"] == {"calls": 1, "s": 10.0, "self_s": pytest.approx(5.0)}
    assert table["f"]["calls"] == 4
    assert table["f"]["self_s"] == pytest.approx(1.0 + 3.0 + 3.0 + 1.0)


@pytest.fixture
def fake_package():
    """``fakepkg.a`` defines ``inner``; ``fakepkg.b`` imports it by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    exec("def inner(x):\n    return x + 1\n", vars(a))
    b.inner = a.inner
    exec("def outer(x):\n    return inner(x) * 2\n", vars(b))
    pkg.inner = a.inner
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield pkg, a, b
    for name in mods:
        del sys.modules[name]


def test_wraps_every_binding_and_restores(fake_package):
    pkg, a, b = fake_package
    inner, outer = a.inner, b.outer
    rec = spans.Recorder(
        [("fakepkg.a", "inner"), ("fakepkg.b", "outer")],
        package="fakepkg",
        probes={"a.inner": lambda args, result: {"x": args["x"], "result": result}},
    )
    with rec:
        assert a.inner is not inner and b.inner is a.inner and pkg.inner is a.inner
        assert b.outer(3) == 8
    assert (a.inner, b.inner, pkg.inner, b.outer) == (inner, inner, inner, outer)
    assert [s.name for s in rec.spans] == ["b.outer", "a.inner"]
    assert rec.spans[1].parent == rec.spans[0].id
    assert rec.spans[1].attrs == {"x": 3, "result": 4}
    assert rec.spans[0].start <= rec.spans[1].start <= rec.spans[1].end <= rec.spans[0].end


def test_restores_when_the_block_raises(fake_package):
    _, a, b = fake_package
    inner = a.inner
    with pytest.raises(ZeroDivisionError):
        with spans.Recorder([("fakepkg.a", "inner")], package="fakepkg"):
            b.outer(1) / 0
    assert a.inner is inner and b.inner is inner


def test_csv_gate_tolerance_and_blank_cells():
    ref = "strategy,F_hat,pred\nmove,0.025,0.024\nbuy_hold,0.02,\n"
    assert run.compare_csv(ref, ref) == {
        "byte_identical": True, "max_rel_diff": 0.0, "problems": []
    }
    near = ref.replace("0.025", "0.02500000000000001")
    result = run.compare_csv(near, ref)
    assert not result["byte_identical"] and not result["problems"]
    assert 0 < result["max_rel_diff"] <= 1e-12
    assert run.compare_csv(ref.replace("0.025", "0.0250001"), ref)["problems"]
    assert run.compare_csv(ref.replace("0.02,", "0.02,0.01"), ref)["problems"]
    assert run.compare_csv(ref.replace("0.024", ""), ref)["problems"]
    assert run.compare_csv(ref + "extra,1,2\n", ref)["problems"]
