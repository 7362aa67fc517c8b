#!/usr/bin/env python
"""Guard the public API surfaces (CI lint job).

Three checks, each cheap and loud:

1. The README's API bullet list for each guarded package (lines shaped
   ``- `Name` — ...`` under its ``### <X> API`` heading) must name
   exactly the package's ``__all__`` — the documented surface and the
   exported surface cannot drift apart.
2. Every name in the ``__all__`` of every ``repro`` package must resolve
   on the package (no stale exports, no typo in a lazy export table), and
   a guarded package's ``__all__`` must be sorted.
3. ``examples/`` and ``tests/`` must not import ``_``-private names from
   ``repro`` (``from repro.x import _y`` or ``from repro.x._y import``)
   — everything they need is supposed to be on the public surface.
   (Test modules for private helpers import the *module* and call
   ``module._helper``; importing private names directly is the pattern
   this rejects.)

Guarded packages: ``repro.service`` ("Service API"), ``repro.scenarios``
("Scenario API"), ``repro.analysis`` ("Analysis API") and ``repro.obs``
("Observability API").

Exits non-zero with a per-failure report.  Run from the repo root:
``python scripts/check_api_surface.py``.
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

#: README heading -> guarded package, in README order.
SECTIONS = (
    ("Service API", "repro.service"),
    ("Scenario API", "repro.scenarios"),
    ("Analysis API", "repro.analysis"),
    ("Observability API", "repro.obs"),
)

#: ``- `Name` — description`` bullets inside an API section.
_BULLET = re.compile(r"^- `([A-Za-z_][A-Za-z0-9_]*)` — ")

#: ``from repro... import ...`` with any ``_``-private leaf in either the
#: module path or the imported names (``as`` aliases notwithstanding).
_PRIVATE_IMPORT = re.compile(
    r"^\s*from\s+repro(?:\.\w+)*(?:\.(_\w+))?\s+import\s+(.+)$"
)


def documented_surface(readme: pathlib.Path, heading: str) -> list[str]:
    """The names the README documents under ``### <heading>``, in order."""
    names: list[str] = []
    in_section = False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith(f"### {heading}"):
            in_section = True
            continue
        if in_section and line.startswith("#"):
            break
        if in_section:
            match = _BULLET.match(line)
            if match:
                names.append(match.group(1))
    return names


def private_imports(tree: pathlib.Path) -> list[str]:
    """``file:line`` locations importing private repro names."""
    hits: list[str] = []
    for path in sorted(tree.rglob("*.py")):
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            match = _PRIVATE_IMPORT.match(line)
            if match is None:
                continue
            private_module, imported = match.groups()
            names = [
                part.split(" as ")[0].strip(" ()")
                for part in imported.split(",")
            ]
            if private_module or any(n.startswith("_") for n in names):
                hits.append(f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}")
    return hits


def check_package(heading: str, package_name: str) -> tuple[list[str], int]:
    """``(failures, exported-count)`` for one guarded package."""
    import importlib

    package = importlib.import_module(package_name)
    failures: list[str] = []
    exported = list(package.__all__)

    documented = documented_surface(ROOT / "README.md", heading)
    if not documented:
        failures.append(f"README.md has no '### {heading}' bullet list")
    missing = sorted(set(exported) - set(documented))
    extra = sorted(set(documented) - set(exported))
    if missing:
        failures.append(
            f"{package_name}: exported but not documented under "
            f"'### {heading}': {missing}"
        )
    if extra:
        failures.append(
            f"{package_name}: documented under '### {heading}' but not "
            f"exported: {extra}"
        )

    if exported != sorted(exported):
        failures.append(f"{package_name}.__all__ is not sorted")
    return failures, len(exported)


def unresolved_exports() -> list[str]:
    """Failures for ``__all__`` names that do not resolve, in every package."""
    import importlib

    src = ROOT / "src"
    failures: list[str] = []
    for init in sorted((src / "repro").rglob("__init__.py")):
        package_name = ".".join(init.parent.relative_to(src).parts)
        package = importlib.import_module(package_name)
        for name in package.__all__:
            try:
                getattr(package, name)
            except (AttributeError, ImportError) as exc:
                failures.append(
                    f"{package_name}.__all__ names missing symbol {name!r} ({exc})"
                )
    return failures


def main() -> int:
    failures: list[str] = []
    total = 0
    for heading, package_name in SECTIONS:
        package_failures, exported = check_package(heading, package_name)
        failures.extend(package_failures)
        total += exported
    failures.extend(unresolved_exports())

    for tree in (ROOT / "examples", ROOT / "tests"):
        for hit in private_imports(tree):
            failures.append(f"private import outside the package: {hit}")

    if failures:
        for failure in failures:
            print(f"api-surface: {failure}", file=sys.stderr)
        return 1
    print(
        f"api-surface: ok ({total} symbols documented across "
        f"{len(SECTIONS)} packages, every package's exports resolve, "
        f"no private imports in examples/ or tests/)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
