#!/usr/bin/env python
"""Documentation gate: every public symbol is documented, twice.

Fails (exit 1) if any name in ``repro.__all__``:

* lacks a docstring (module-level constants are exempt — their meaning
  is documented where they are defined and in docs/API.md), or
* does not appear in docs/API.md.

Also checks the ``repro.pipeline.__all__`` surface for docstrings and
coverage in docs/PIPELINE.md, and that every module listed in the
package docstring's layer map has a module docstring; that every
top-level module under ``src/repro`` appears in
docs/ARCHITECTURE.md's module index; that the serving surface
(``repro.serve.__all__``) is covered by docs/SERVICE.md; that the
model-lifecycle surface (``repro.serve.lifecycle.__all__``) is covered
by docs/LIFECYCLE.md; that the incident-benchmark surface
(``repro.incidents.__all__``) is covered by docs/INCIDENTS.md; and that
the heterogeneous-scenario catalog (every registered system, every
evaluation track, every exit-code constant) is covered by
docs/SCENARIOS.md; that every row of docs/SERVICE.md's Knobs table
names a ``repro serve`` flag or a parameter of ``create_server``,
``ForkingServer`` or ``PredictionService``; and that the metric catalog in docs/OBSERVABILITY.md
has one row, with the right kind, for each ``repro_…`` family the source
registers and no other. Finally, README.md and docs/*.md may name only HTTP
routes the server serves (the route table in ``repro.serve.http``), and
they and the verify skill may name only ``tools/*.py`` scripts that
exist, ``make`` targets the Makefile defines and baseline or scorecard
JSON files (``SCORECARD_gpu.json`` and the like) present at the
repository root.
Run via ``make docs-check``.
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
API_DOC = REPO_ROOT / "docs" / "API.md"
PIPELINE_DOC = REPO_ROOT / "docs" / "PIPELINE.md"
FAULTS_DOC = REPO_ROOT / "docs" / "FAULTS.md"
OBS_DOC = REPO_ROOT / "docs" / "OBSERVABILITY.md"
ARCH_DOC = REPO_ROOT / "docs" / "ARCHITECTURE.md"
SERVICE_DOC = REPO_ROOT / "docs" / "SERVICE.md"
LIFECYCLE_DOC = REPO_ROOT / "docs" / "LIFECYCLE.md"
INCIDENTS_DOC = REPO_ROOT / "docs" / "INCIDENTS.md"
SCENARIOS_DOC = REPO_ROOT / "docs" / "SCENARIOS.md"
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
SKILL_DOC = REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"

#: A ``/v1/...`` path as docs write it; the match stops at a query string.
_V1_PATH = re.compile(r"/v1(?:/[\w-]+)+")
#: Fenced blocks and inline code spans: where docs spell out commands.
_CODE = re.compile(r"```.*?```|`[^`]+`", re.S)
_TOOL = re.compile(r"tools/(\w+\.py)")
_MAKE = re.compile(r"\bmake\s+([\w-]+)")
#: A committed baseline or scorecard name (or glob) at the repository root.
_ROOT_JSON = re.compile(r"\b((?:BENCH|SCORECARD)_[\w*]+\.json)")
#: A metric family registration, e.g. ``REGISTRY.counter(\n    "repro_x"``.
_METRIC_REGISTRATION = re.compile(r"\.(counter|gauge|histogram)\(\s*\"(repro_\w+)\"")
#: A metric catalog row: ``| `repro_x{labels}` | kind | ...``.
_METRIC_ROW = re.compile(r"^\|\s*`(repro_\w+)(?:\{[^}]*\})?`\s*\|\s*(\w+)\s*\|", re.M)
#: A Knobs table row of docs/SERVICE.md: ``| `--max-batch` | 64 | ...``.
_KNOB_ROW = re.compile(r"^\|\s*`([\w-]+)`\s*\|", re.M)


def check_docstrings(module_name: str) -> list[str]:
    """Names in ``<module>.__all__`` whose objects lack a docstring."""
    module = importlib.import_module(module_name)
    missing = []
    for name in module.__all__:
        obj = getattr(module, name)
        if not (inspect.isclass(obj) or callable(obj) or inspect.ismodule(obj)):
            continue  # constants (EMMY, MEGGIE, version strings, ...)
        if not inspect.getdoc(obj):
            missing.append(f"{module_name}.{name}")
    return missing


def check_api_doc() -> list[str]:
    """Names in ``repro.__all__`` that docs/API.md never mentions."""
    if not API_DOC.is_file():
        return ["docs/API.md is missing entirely"]
    text = API_DOC.read_text()
    module = importlib.import_module("repro")
    return [name for name in module.__all__ if name not in text]


def check_pipeline_doc() -> list[str]:
    """The pipeline surface must be covered by docs/PIPELINE.md."""
    if not PIPELINE_DOC.is_file():
        return ["docs/PIPELINE.md is missing entirely"]
    text = PIPELINE_DOC.read_text()
    module = importlib.import_module("repro.pipeline")
    return [name for name in module.__all__ if name not in text]


def check_faults_doc() -> list[str]:
    """The fault-injection surface must be covered by docs/FAULTS.md."""
    if not FAULTS_DOC.is_file():
        return ["docs/FAULTS.md is missing entirely"]
    text = FAULTS_DOC.read_text()
    module = importlib.import_module("repro.faults")
    return [name for name in module.__all__ if name not in text]


def check_obs_doc() -> list[str]:
    """The observability surface must be covered by docs/OBSERVABILITY.md."""
    if not OBS_DOC.is_file():
        return ["docs/OBSERVABILITY.md is missing entirely"]
    text = OBS_DOC.read_text()
    module = importlib.import_module("repro.obs")
    return [name for name in module.__all__ if name not in text]


def check_architecture_doc() -> list[str]:
    """Every top-level repro module must appear in ARCHITECTURE.md.

    The module index in docs/ARCHITECTURE.md is the map a new
    contributor navigates by; a module that exists on disk but not in
    the map is undiscoverable. Private modules (``_version``) and the
    ``__main__`` shim are exempt.
    """
    if not ARCH_DOC.is_file():
        return ["docs/ARCHITECTURE.md is missing entirely"]
    text = ARCH_DOC.read_text()
    missing = []
    for entry in sorted(PACKAGE_ROOT.iterdir()):
        if entry.name.startswith("_"):
            continue
        if entry.is_dir():
            name = entry.name
        elif entry.suffix == ".py":
            name = entry.stem
        else:
            continue
        if f"repro.{name}" not in text:
            missing.append(name)
    return missing


def check_service_doc() -> list[str]:
    """The serving surface must be covered by docs/SERVICE.md."""
    if not SERVICE_DOC.is_file():
        return ["docs/SERVICE.md is missing entirely"]
    text = SERVICE_DOC.read_text()
    module = importlib.import_module("repro.serve")
    return [name for name in module.__all__ if name not in text]


def check_lifecycle_doc() -> list[str]:
    """The model-lifecycle surface must be covered by docs/LIFECYCLE.md."""
    if not LIFECYCLE_DOC.is_file():
        return ["docs/LIFECYCLE.md is missing entirely"]
    text = LIFECYCLE_DOC.read_text()
    module = importlib.import_module("repro.serve.lifecycle")
    return [name for name in module.__all__ if name not in text]


def check_incidents_doc() -> list[str]:
    """The incident-benchmark surface must be covered by docs/INCIDENTS.md."""
    if not INCIDENTS_DOC.is_file():
        return ["docs/INCIDENTS.md is missing entirely"]
    text = INCIDENTS_DOC.read_text()
    module = importlib.import_module("repro.incidents")
    return [name for name in module.__all__ if name not in text]


def check_scenarios_doc() -> list[str]:
    """The scenario catalog must be covered by docs/SCENARIOS.md.

    Source docstrings and serve-time error messages point users at
    docs/SCENARIOS.md for every heterogeneous extension, so the doc
    must name every registered system, every evaluation track, and
    every exit-code constant of the failure model.
    """
    if not SCENARIOS_DOC.is_file():
        return ["docs/SCENARIOS.md is missing entirely"]
    text = SCENARIOS_DOC.read_text()
    cluster = importlib.import_module("repro.cluster")
    tracks = importlib.import_module("repro.ml.tracks")
    failures = importlib.import_module("repro.workload.failures")
    missing = [f"system `{name}`" for name in cluster.known_systems()
               if f"`{name}`" not in text]
    missing += [f"track `{name}`" for name in tracks.known_tracks()
                if f"`{name}`" not in text]
    missing += [f"exit code {code}" for code in failures.EXIT_CODES
                if f"`{code}`" not in text]
    return missing


def check_metrics_doc() -> list[str]:
    """The metric catalog in docs/OBSERVABILITY.md against the source.

    Scans ``src/repro`` statically for ``.counter(``, ``.gauge(`` and
    ``.histogram(`` registrations of a ``repro_…`` family (through
    ``REGISTRY`` or any other registry). Every registered family needs a
    catalog row that gives its kind, and every row must name a
    registered family.
    """
    if not OBS_DOC.is_file():
        return ["docs/OBSERVABILITY.md is missing entirely"]
    registered = {
        name: kind
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        for kind, name in _METRIC_REGISTRATION.findall(path.read_text())
    }
    rows = dict(_METRIC_ROW.findall(OBS_DOC.read_text()))
    problems = [
        f"{name} ({kind}) has no catalog row"
        for name, kind in sorted(registered.items()) if name not in rows
    ]
    for name, kind in sorted(rows.items()):
        if name not in registered:
            problems.append(f"{name} has a catalog row but is never registered")
        elif kind != registered[name]:
            problems.append(f"{name} is a {registered[name]}, the catalog says {kind}")
    return problems


def check_service_knobs() -> list[str]:
    """Rows of docs/SERVICE.md's Knobs table that name no settable knob.

    A row names a ``repro serve`` flag (``--max-batch``) or a parameter
    of ``create_server``, ``ForkingServer`` or ``PredictionService``
    (``max_queue``). A row naming anything else documents a value no
    caller can set, such as a parameter that became a constant.
    """
    import argparse

    from repro.cli import build_parser
    from repro.serve import ForkingServer, PredictionService, create_server

    text = SERVICE_DOC.read_text() if SERVICE_DOC.is_file() else ""
    if "\n## Knobs\n" not in text:
        return ["docs/SERVICE.md has no ## Knobs section"]
    table = text.split("\n## Knobs\n", 1)[1].split("\n## ", 1)[0]
    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    settable = {
        flag
        for action in subcommands.choices["serve"]._actions
        for flag in action.option_strings
    }
    for target in (create_server, ForkingServer, PredictionService):
        settable.update(inspect.signature(target).parameters)
    return [
        f"`{name}` is neither a `repro serve` flag nor a parameter of "
        "create_server, ForkingServer or PredictionService"
        for name in _KNOB_ROW.findall(table)
        if name not in settable
    ]


def check_routes() -> list[str]:
    """HTTP routes that README.md or docs/*.md name but nobody serves.

    Two mistakes are caught, in prose, in backticks and in ``curl``
    examples alike: an unversioned twin of a ``/v1`` route (``/predict``
    for ``/v1/predict``), and a ``/v1/...`` path that is not in
    :data:`repro.serve.http.ROUTES`. A twin followed by a file suffix or
    a deeper path segment (``metrics.py``, ``/models/``) is not a route.
    """
    from repro.serve.http import ROUTES

    served = {path for _method, path in ROUTES}
    twins = sorted({path[len("/v1"):] for path in served}, key=len, reverse=True)
    twin = re.compile(
        r"(?<!/v1)(" + "|".join(map(re.escape, twins)) + r")(?![\w/-]|\.\w)"
    )
    problems = []
    for doc in (REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))):
        for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
            where = f"{doc.relative_to(REPO_ROOT)}:{lineno}"
            problems += [
                f"{where}: unversioned {m.group(1)}" for m in twin.finditer(line)
            ]
            problems += [
                f"{where}: {m.group(0)} is not served"
                for m in _V1_PATH.finditer(line)
                if m.group(0) not in served
            ]
    return problems


def check_tools() -> list[str]:
    """Scripts, ``make`` targets and root JSON files the docs name but lack.

    README.md, docs/*.md and the verify skill may name only scripts that
    exist under ``tools/``, targets the Makefile defines and baseline or
    scorecard JSON files at the repository root, so a deleted script,
    target or baseline fails here until its last mention goes too.
    Targets are read from code spans only, where prose cannot say "make
    sure".
    """
    makefile = (REPO_ROOT / "Makefile").read_text()
    targets = set(re.findall(r"^([\w-]+):", makefile, re.M))
    docs = (REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md")), SKILL_DOC)
    problems = []
    for doc in (d for d in docs if d.is_file()):
        text = doc.read_text()
        where = doc.relative_to(REPO_ROOT)
        problems += [
            f"{where}: tools/{name} does not exist"
            for name in sorted(set(_TOOL.findall(text)))
            if not (REPO_ROOT / "tools" / name).is_file()
        ]
        problems += [
            f"{where}: `make {name}` is not a Makefile target"
            for name in sorted(set(_MAKE.findall(" ".join(_CODE.findall(text)))))
            if name not in targets
        ]
        problems += [
            f"{where}: {name} does not exist at the repository root"
            for name in sorted(set(_ROOT_JSON.findall(text)))
            if not any(REPO_ROOT.glob(name))
        ]
    return problems


def main() -> int:
    problems: list[str] = []
    for module_name in ("repro", "repro.pipeline", "repro.faults", "repro.obs",
                        "repro.serve", "repro.incidents"):
        for name in check_docstrings(module_name):
            problems.append(f"missing docstring: {name}")
    for name in check_api_doc():
        problems.append(f"absent from docs/API.md: repro.{name}")
    for name in check_pipeline_doc():
        problems.append(f"absent from docs/PIPELINE.md: repro.pipeline.{name}")
    for name in check_faults_doc():
        problems.append(f"absent from docs/FAULTS.md: repro.faults.{name}")
    for name in check_obs_doc():
        problems.append(f"absent from docs/OBSERVABILITY.md: repro.obs.{name}")
    for name in check_architecture_doc():
        problems.append(f"absent from docs/ARCHITECTURE.md: repro.{name}")
    for name in check_service_doc():
        problems.append(f"absent from docs/SERVICE.md: repro.serve.{name}")
    for name in check_lifecycle_doc():
        problems.append(
            f"absent from docs/LIFECYCLE.md: repro.serve.lifecycle.{name}"
        )
    for name in check_incidents_doc():
        problems.append(f"absent from docs/INCIDENTS.md: repro.incidents.{name}")
    for name in check_scenarios_doc():
        problems.append(f"absent from docs/SCENARIOS.md: {name}")
    for problem in check_service_knobs():
        problems.append(f"docs/SERVICE.md knob: {problem}")
    for problem in check_metrics_doc():
        problems.append(f"metric catalog: {problem}")
    for problem in check_routes():
        problems.append(f"route not served: {problem}")
    for problem in check_tools():
        problems.append(f"stale reference: {problem}")

    if problems:
        print(f"docs-check: {len(problems)} problem(s)", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    n = len(importlib.import_module("repro").__all__)
    print(f"docs-check: OK ({n} public symbols documented)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
