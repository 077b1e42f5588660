"""The library surface other code relies on: the benchmark's traced targets,
and the one element cap every public enumeration takes."""

import ast
import importlib
from pathlib import Path

import pytest

from tracezero import gf
from tracezero.counting import CountEngine
from tracezero.oracle import enum_f_count, enum_i_count, enum_irreducible_total, verify_all
from tracezero.sequences import omega_members

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_targets() -> list[tuple[str, str]]:
    """(module, attribute path) of every TARGETS entry, read without importing."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_every_traced_target_resolves():
    # as the tracer looks it up: the last name in the owner's own namespace
    targets = _traced_targets()
    assert targets
    missing = []
    for module, path in targets:
        owner = importlib.import_module(f"tracezero.{module}")
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module}.{path}")
    assert missing == []


@pytest.mark.parametrize("cap", [0, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda cap: enum_f_count(2, 3, cap),
        lambda cap: verify_all(2, 1, cap),
        lambda cap: CountEngine(gf.make_field(2, 1), max_elements=cap),
        lambda cap: omega_members(3, 5, cap),
        lambda cap: enum_i_count(3, 1, cap, method="orbit"),
        lambda cap: enum_irreducible_total(3, 1, cap),
    ],
    ids=[
        "enum_f_count",
        "verify_all",
        "CountEngine",
        "omega_members",
        "enum_i_count_orbit_n1",
        "enum_irreducible_total_n1",
    ],
)
def test_non_positive_cap_is_refused(call, cap):
    with pytest.raises(ValueError, match="the element cap must be positive"):
        call(cap)
