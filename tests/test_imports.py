"""Import hygiene: lazy package exports and where scipy may load.

A served worker and a dataset build never call scipy, so importing the
modules they use must not load it (about 0.35 s and 26 MiB of peak RSS
for scipy.special, over 1 s and 50 MiB for scipy.signal). The checks
that look at ``sys.modules`` run in a fresh interpreter, because this
test process has long since imported everything.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The one module allowed to import scipy when it is imported:
#: ``spearman``'s p-value needs ``scipy.special.betainc``.
SCIPY_AT_IMPORT = {"repro/stats/correlation.py"}

LAZY_PACKAGES = ("repro", "repro.pipeline", "repro.serve", "repro.incidents", "repro.stats")


def _run(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` first on its path."""
    result = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}",
         *args],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _import_time_imports(tree: ast.Module):
    """Import statements that run when the module is imported."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _names_scipy(node: ast.Import | ast.ImportFrom) -> bool:
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""] if node.level == 0 else []
    else:
        names = [alias.name for alias in node.names]
    return any(name == "scipy" or name.startswith("scipy.") for name in names)


def test_no_module_imports_scipy_at_import_time():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in SCIPY_AT_IMPORT:
            continue
        for node in _import_time_imports(ast.parse(path.read_text(), filename=rel)):
            if _names_scipy(node):
                offenders.append(f"{rel}:{node.lineno}")
    assert not offenders, (
        "import scipy inside the function that calls it: " + ", ".join(offenders)
    )


def test_lazy_packages_resolve_every_export():
    report = json.loads(_run(f"""
import importlib, json
out = {{}}
for name in {LAZY_PACKAGES!r}:
    package = importlib.import_module(name)
    exported = list(package.__all__)
    listed = dir(package)
    out[name] = {{
        "unresolved": [n for n in exported if getattr(package, n, None) is None],
        "lazy_not_exported": sorted(set(package._LAZY_ATTRS) - set(exported)),
        "not_in_dir": [n for n in exported if n not in listed],
    }}
print(json.dumps(out))
"""))
    for package, problems in report.items():
        assert problems == {
            "unresolved": [], "lazy_not_exported": [], "not_in_dir": [],
        }, package


def test_unknown_lazy_name_raises_attribute_error():
    import repro.stats

    with pytest.raises(AttributeError, match="'repro.stats' has no attribute 'no_such_name'"):
        repro.stats.no_such_name  # noqa: B018


def test_repro_stats_imports_no_scipy_until_a_correlation_is_asked_for():
    report = json.loads(_run("""
import json
import repro.stats
from repro.stats.distributions import ECDF
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
rho = repro.stats.spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]).statistic
print(json.dumps({"before": before, "rho": rho,
                  "special": "scipy.special" in sys.modules}))
"""))
    assert report["before"] == []
    assert report["rho"] == 0.8 and report["special"]


def test_dataset_build_imports_no_scipy_signal(tmp_path):
    report = json.loads(_run("""
import json
from repro.pipeline import build_dataset
dataset = build_dataset("emmy", seed=1, num_nodes=16, num_users=8,
                        horizon_s=2 * 86400, max_traces=5, cache_dir=sys.argv[1])
print(json.dumps({"traces": len(dataset.traces),
                  "signal": sorted(m for m in sys.modules
                                   if m.startswith("scipy.signal"))}))
""", str(tmp_path)))
    assert report["traces"] > 0
    assert report["signal"] == []


def _names_analysis(node: ast.Import | ast.ImportFrom) -> bool:
    if isinstance(node, ast.ImportFrom):
        if node.level or node.module is None:
            return False
        names = [node.module]
        if node.module == "repro":
            names += [f"repro.{alias.name}" for alias in node.names]
    else:
        names = [alias.name for alias in node.names]
    return any(name == "repro.analysis" or name.startswith("repro.analysis.")
               for name in names)


def test_serving_never_imports_the_analysis_layer():
    """Not at import time and not inside a function: ``repro.analysis``
    loads ``scipy.special``, which a serving process never needs."""
    offenders = []
    for path in sorted((SRC / "repro" / "serve").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=rel)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and _names_analysis(node):
                offenders.append(f"{rel}:{node.lineno}")
    assert not offenders, "repro.serve imports repro.analysis: " + ", ".join(offenders)


def test_training_a_served_model_imports_no_scipy(tmp_path):
    from repro.pipeline import build_dataset
    from repro.spec import ScenarioSpec

    spec = ScenarioSpec("emmy", seed=3, num_nodes=24, num_users=10, horizon_days=2,
                        max_traces=10)
    build_dataset(**spec.dataset_kwargs(), cache_dir=tmp_path)
    report = json.loads(_run("""
import json
from repro.serve.registry import ModelRegistry
from repro.spec import ScenarioSpec
registry = ModelRegistry(cache_dir=sys.argv[1])
spec = ScenarioSpec("emmy", seed=3, num_nodes=24, num_users=10, horizon_days=2,
                    max_traces=10)
registry.get(spec, "BDT")
print(json.dumps({"trained": registry.stats()["trained"],
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
""", str(tmp_path)))
    assert report["trained"] == 1
    assert report["scipy"] == []
