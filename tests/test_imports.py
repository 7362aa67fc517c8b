"""Import boundaries and lazy package exports, checked in fresh interpreters.

Package exports load on first use and every CLI command imports what it
runs, so a command pays only for the subsystems it uses.  These tests
pin that down where it matters (``import repro.cli``, ``repro analyze``
and ``repro campaign``, neither of which may load the serving layer or
its ranking kernel) and check that laziness hides no name: every ``__all__`` entry
of every package resolves, is listed by ``dir()`` and is bound by ``from
package import *``, and ``python -m repro --help`` works.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core.io import save_result

SRC = pathlib.Path(repro.__file__).resolve().parents[1]
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)


def _python(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a fresh interpreter that imports this checkout."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), path)))}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def _loaded(prefixes: tuple[str, ...], modules: list[str]) -> list[str]:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


#: Modules only ``serve-bench`` (and the prediction report) should load.
SERVING = ("repro.service", "repro.core.oracle")

#: Runs ``repro.cli.main`` on the arguments, then prints the loaded modules.
MAIN_THEN_MODULES = (
    "import json, sys\n"
    "from repro.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def test_cli_import_loads_no_command_subsystems():
    proc = _python("-c", "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert "repro.cli" in modules
    assert _loaded(
        ("repro.world", "repro.service", "repro.timeline", "repro.scenarios",
         "repro.analysis", "repro.core.sweep", "repro.core.montecarlo"),
        modules,
    ) == []


def test_analyze_without_seed_loads_no_world_stack(small_campaign_result, tmp_path):
    path = tmp_path / "result.npz"
    save_result(small_campaign_result, path)
    proc = _python("-c", MAIN_THEN_MODULES, "analyze", str(path), "--report", "full")
    assert proc.returncode == 0, proc.stderr
    assert "campaign report" in proc.stdout
    modules = json.loads(proc.stderr.splitlines()[-1])
    assert "repro.analysis.report" in modules
    assert _loaded(
        ("repro.world", "repro.topology", "repro.routing", "repro.latency",
         "repro.measurement", "repro.datasets", *SERVING),
        modules,
    ) == []


def test_campaign_loads_no_serving_layer(tmp_path):
    proc = _python(
        "-c", MAIN_THEN_MODULES, "campaign", "--countries", "8", "--rounds", "1",
        "--no-world-cache", "--out", str(tmp_path / "result.npz"),
    )
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stderr.splitlines()[-1])
    assert "repro.core.campaign" in modules
    assert _loaded(SERVING, modules) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    proc = _python(
        "-c",
        "import importlib, json, sys\n"
        "package = importlib.import_module(sys.argv[1])\n"
        "listed = set(dir(package))\n"
        "star = {}\n"
        "exec(f'from {sys.argv[1]} import *', star)\n"
        "print(json.dumps({\n"
        "    'missing': [n for n in package.__all__ if not hasattr(package, n)],\n"
        "    'unlisted': [n for n in package.__all__ if n not in listed],\n"
        "    'unbound': [n for n in package.__all__ if n not in star],\n"
        "}))\n",
        package,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"missing": [], "unlisted": [], "unbound": []}


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro, "no_such_name")


def test_module_help_exits_zero():
    proc = _python("-m", "repro", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "analyze" in proc.stdout
