"""Run one ``repro`` command in-process with the calls into each layer traced.

    PYTHONPATH=src python benchmarks/e2e/traced.py --out trace.json -- \\
        campaign --seed 11 --rounds 6 --no-world-cache --out result.json

Every public call listed in ``WRAPPED`` is wrapped where its module
defines it, as soon as the module is imported, so the command runs the
same code with one span recorded per call.  Spans stay in memory until
the command returns; then ``--out`` receives them as Chrome trace-event
JSON (open it in https://ui.perfetto.dev).  Each event's ``args`` hold
the span ``id`` and its ``parent`` id, so ``bench.py`` can rebuild the
tree and take self times.  ``otherData`` holds the process's first-line
and last-line ``time.perf_counter()`` readings, which the parent
compares with its own spawn and reap times.

``--inject SPAN:FACTOR`` stretches every call recorded as SPAN to FACTOR
times its duration (by sleeping before the span closes).  It is how the
benchmark shows its regression guard catching a slowdown in one layer
without editing the program.

The exit code is the command's.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

#: module -> ((attribute, span name), ...): the public call through which
#: the command enters each layer.  ``WorldCache.load`` records no span of
#: its own; on a hit it renames the enclosing ``world.build`` span.
WRAPPED = {
    "repro.cli": (
        ("build_world", "world.build"),
        ("save_result", "io.save"),
        ("load_result", "io.load"),
    ),
    "repro.world": (("World.ensure_routing_fabric", "fabric"),),
    "repro.core.worldcache": (("WorldCache.load", None),),
    "repro.core.campaign": (("MeasurementCampaign.run_round", "campaign.round"),),
    "repro.core.sweep": (("run_sweep", "sweep.run"),),
    "repro.analysis.report": (("full_report", "analysis.report"),),
    "repro.service.service": (
        ("ShortcutService.from_campaign", "directory.compile"),
        ("ShortcutService.save", "service.snapshot.save"),
        ("ShortcutService.load", "service.snapshot.load"),
        ("ShortcutService.route_many", "service.route"),
    ),
    "repro.service.loadgen": (("QueryStream.generate", "loadgen.synth"),),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, inject: tuple[str, float] | None = None) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._inject = inject

    def open(self, name: str) -> dict:
        span = {
            "name": name,
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "args": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        end = time.perf_counter()
        if self._inject is not None and span["name"] == self._inject[0]:
            time.sleep((self._inject[1] - 1.0) * (end - span["start"]))
            end = time.perf_counter()
        span["end"] = end
        self._stack.pop()

    def current(self) -> dict | None:
        return self._stack[-1] if self._stack else None

    def chrome(self, t_end: float) -> dict:
        events = [
            {
                "name": s["name"],
                "ph": "X",
                "ts": (s["start"] - T0) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": os.getpid(),
                "tid": 0,
                "args": {"id": s["id"], "parent": s["parent"], **s["args"]},
            }
            for s in self.spans
            if s["end"] is not None
        ]
        return {"traceEvents": events, "otherData": {"t0": T0, "t_end": t_end}}


def _annotate(span: dict, args: tuple) -> None:
    """Per-span details the call's arguments carry."""
    if span["name"] == "campaign.round" and args[1] == 0:
        # the first round also runs the one-time colo pipeline
        span["name"] = "campaign.round0"
    elif span["name"] == "io.save":
        span["args"]["mb"] = os.path.getsize(args[1]) / 1e6
    elif span["name"] == "service.snapshot.save" and hasattr(args[1], "tell"):
        span["args"]["mb"] = args[1].tell() / 1e6


def _wrap(fn, name: str | None, tracer: Tracer):
    if name is None:

        def mark_restore(*args, **kwargs):
            snapshot = fn(*args, **kwargs)
            enclosing = tracer.current()
            if snapshot is not None and enclosing is not None:
                enclosing["name"] = "world.restore"
            return snapshot

        return mark_restore

    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            _annotate(span, args)
            return result
        finally:
            tracer.close(span)

    return traced


def _patch(module, tracer: Tracer) -> None:
    for attribute, name in WRAPPED[module.__name__]:
        owner_name, _, attr = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[attr] if owner_name else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(raw.__func__, name, tracer)))
        else:
            setattr(owner, attr, _wrap(raw, name, tracer))


class _PatchOnImport:
    """Meta-path finder that patches each ``WRAPPED`` module once loaded."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname not in WRAPPED:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self._tracer

        def exec_and_patch(module):
            exec_module(module)
            _patch(module, tracer)

        spec.loader.exec_module = exec_and_patch
        return spec


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: traced.py [--out PATH] [--inject SPAN:FACTOR] -- COMMAND ...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="traced.py")
    parser.add_argument("--out", default=None, help="Chrome trace-event JSON path")
    parser.add_argument("--inject", default=None, metavar="SPAN:FACTOR")
    opts = parser.parse_args(argv[:split])
    inject = None
    if opts.inject is not None:
        span, _, factor = opts.inject.rpartition(":")
        inject = (span, float(factor))
    tracer = Tracer(inject)
    sys.meta_path.insert(0, _PatchOnImport(tracer))
    code = 1
    try:
        span = tracer.open("import")
        import repro.cli

        tracer.close(span)
        span = tracer.open("command")
        try:
            code = repro.cli.main(argv[split + 1:])
        finally:
            tracer.close(span)
    finally:
        t_end = time.perf_counter()
        if opts.out is not None:
            with open(opts.out, "w", encoding="utf-8") as fh:
                json.dump(tracer.chrome(t_end), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
