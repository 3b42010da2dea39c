"""Smoke test of the demos and the README quick start: every name they use resolves, and the fast demos run."""

import builtins
import importlib.util
import re
import symtable
from pathlib import Path

import pytest

import peierls

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: Demos that finish in about a second or two; the others run Monte Carlo or
#: the length-12 census.
FAST = {"contour_census.py", "truncated_polynomial.py"}


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _global_references(path: Path) -> set[str]:
    """Names that some scope of the script reads from the module or builtins."""
    names, scopes = set(), [symtable.symtable(path.read_text(), str(path), "exec")]
    while scopes:
        scope = scopes.pop()
        scopes.extend(scope.get_children())
        at_module = scope.get_type() == "module"
        names |= {s.get_name() for s in scope.get_symbols() if s.is_referenced() and (at_module or s.is_global())}
    return names


def test_fast_demos_exist():
    assert FAST <= {p.name for p in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_names_resolve(path):
    module = _load(path)
    missing = {n for n in _global_references(path) if not hasattr(module, n) and not hasattr(builtins, n)}
    assert not missing, f"{path.name} uses undefined names {sorted(missing)}"
    assert callable(module.main)


@pytest.mark.parametrize("path", [p for p in DEMOS if p.name in FAST], ids=lambda p: p.name)
def test_fast_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a plot, if matplotlib is installed, lands here
    _load(path).main()
    assert capsys.readouterr().out.count("\n") > 10


def test_readme_quick_start_names_are_exported():
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Library quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    names = set(re.findall(r"\bp\.(\w+)", quick_start))
    missing = names - set(peierls.__all__)
    assert names and not missing, f"README quick start uses unexported names {sorted(missing)}"
