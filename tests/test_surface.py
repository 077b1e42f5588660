"""The library surface other code relies on: the benchmark's traced targets,
the module layering, and the one element cap every public enumeration takes."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from tracezero import gf
from tracezero.counting import CountEngine
from tracezero.curves import CurveSpec, count_points_naive
from tracezero.oracle import enum_f_count, enum_i_count, enum_irreducible_total, verify_all
from tracezero.sequences import omega_members

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "tracezero"
# the closed forms and their substrate; the checks and the front end sit above
LOWER = {"counting", "curves", "fastfield", "gf", "lpoly", "numtheory", "errors"}
UPPER = {"oracle", "sequences", "cli"}


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


def test_benchmark_selfcheck_passes():
    # a toy run of every workload, traced and untraced, against the oracles
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--selfcheck"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]


def _imported_modules(node: ast.AST) -> set[str]:
    """Last dotted name of every module an import statement under node reads."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            names |= {alias.name.rsplit(".", 1)[-1] for alias in sub.names}
        elif isinstance(sub, ast.ImportFrom):
            if sub.module:
                names.add(sub.module.rsplit(".", 1)[-1])
            if sub.level and not sub.module:  # from . import gf
                names |= {alias.name for alias in sub.names}
    return names


def test_module_layering():
    # a function-level import hides a cycle; the lower modules, the closed
    # forms among them, must not depend on the checks held against them
    paths = sorted(PACKAGE.glob("*.py"))
    assert {path.stem for path in paths} >= LOWER | UPPER
    nested, upward = [], []
    for path in paths:
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for sub in ast.walk(fn):
                    if isinstance(sub, (ast.Import, ast.ImportFrom)):
                        nested.append(f"{path.name}:{sub.lineno}")
        if path.stem in LOWER:
            upward += [f"{path.stem} -> {m}" for m in sorted(_imported_modules(tree) & UPPER)]
    assert nested == [] and upward == []


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
        lambda cap: count_points_naive(CurveSpec(gf.make_field(3, 1), 1, 1), 1, max_pairs=cap),
    ],
    ids=[
        "enum_f_count",
        "verify_all",
        "CountEngine",
        "omega_members",
        "enum_i_count_orbit_n1",
        "enum_irreducible_total_n1",
        "count_points_naive",
    ],
)
def test_non_positive_cap_is_refused(call, cap):
    with pytest.raises(ValueError, match="the element cap must be positive"):
        call(cap)
