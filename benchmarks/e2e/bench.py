"""End-to-end benchmark of the commands users run, with per-layer times.

Four workloads run as real ``python -m repro ...`` subprocesses, timed
from spawn to reap with tracing off.  Each workload then runs again
under ``traced.py``, which times the calls into every layer, so the
per-layer table sums to the traced process's wall time and names the
unattributed rest.  See ``README.md`` beside this file for the protocol,
the workloads and why each metric exists.

Run from anywhere in a checkout (the program is the checkout's ``src/``)::

    python3 benchmarks/e2e/bench.py                  # 8 runs + 3 traced runs per workload
    python3 benchmarks/e2e/bench.py --check          # compare against recorded.json
    python3 benchmarks/e2e/bench.py --record         # append to recorded.json, rewrite BENCHMARK.json
    python3 benchmarks/e2e/bench.py --check --workload campaign-full --inject io.save:1.3
    python3 benchmarks/e2e/bench.py --workload serve-full --seed 7 --seconds 15 --trace 0

With ``--seconds`` one workload runs for that long and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
RECORDED = BENCH_DIR / "recorded.json"
MANIFEST = ROOT / "BENCHMARK.json"
TMP_ROOT = ROOT / ".bench_tmp"
TRACED = BENCH_DIR / "traced.py"

SCHEMA = "repro.bench.e2e/1"
RUN_SECONDS = 20  #: the time box ``BENCHMARK.json`` asks for
SETUP_REPEATS = 3  #: set-up runs per workload; ``setup_s`` is their median
MIN_RUNS = 3  #: a time box always measures at least this many runs
DRIFT_PCT = 10.0  #: a layer drifts when it moves more than this ...
DRIFT_FLOOR_S = 0.01  #: ... and, for times, by more than this many seconds

# --------------------------------------------------------------- metrics


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    #: end-to-end: allowed worsening, as a share of the baseline median, of
    #: a time-boxed ``--seconds`` invocation (BENCHMARK.json's ``bound``) ...
    bound: float | None = None
    #: ... and of an interleaved ``--runs`` invocation under ``--check``
    check_pct: float | None = None
    module: str = ""  # per-layer: where the timed call lives
    call: str = ""  # what is measured
    moves: tuple[str, ...] = ()  # per-layer: end-to-end metrics it should move
    workloads: str = ""  # where it does most work / where no change is predicted


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.24, 10,
           call="spawn to reap of the command's process"),
    Metric("peak_rss_mb", "MB", "lower", 0.05, 5,
           call="largest resident set in the process tree (os.wait4)"),
    Metric("output_mb", "MB", "lower", 0.01, 1,
           call="size of what the command writes: result, report, artifact"),
    Metric("items_per_s", "1/s", "higher", 0.24, 10,
           call="work items per second: pings, observations, seed-rounds, "
                "queries (serve-bench's replay.queries_per_s)"),
    Metric("setup_s", "s", "lower", 0.25, 25,
           call=f"median of {SETUP_REPEATS} set-ups into fresh directories"),
)

_S = ("wall_s",)
LAYERS = (
    Metric("startup.s", "s", "lower", module="python",
           call="parent spawn -> child's first line", moves=_S,
           workloads="all alike"),
    Metric("import.s", "s", "lower", module="repro.cli", call="import repro.cli",
           moves=_S, workloads="largest share on analyze-full"),
    Metric("world.build.s", "s", "lower", module="repro.world",
           call="build_world, cache off or missed", moves=_S,
           workloads="campaign-full / sweep-warm, serve-full"),
    Metric("world.restore.s", "s", "lower", module="repro.core.worldcache",
           call="build_world on a snapshot hit", moves=_S,
           workloads="serve-full / campaign-full"),
    Metric("fabric.s", "s", "lower", module="repro.routing.fabric",
           call="World.ensure_routing_fabric", moves=_S,
           workloads="campaign-full / serve-full (restored world)"),
    Metric("campaign.round0.s", "s", "lower", module="repro.core.campaign",
           call="first MeasurementCampaign.run_round (with the colo pipeline)",
           moves=_S, workloads="campaign-full, serve-full / analyze-full"),
    Metric("campaign.round.s", "s", "lower", module="repro.core.campaign",
           call="median later MeasurementCampaign.run_round", moves=_S,
           workloads="campaign-full, serve-full / analyze-full"),
    Metric("campaign.pings", "count", "lower", module="repro.core.campaign",
           call="campaign.pings counter (must repeat exactly)", moves=_S,
           workloads="campaign-full / analyze-full"),
    Metric("campaign.pings_per_s", "1/s", "higher", module="repro.core.campaign",
           call="pings / total campaign.round span time", moves=_S,
           workloads="campaign-full / analyze-full"),
    *(
        Metric(f"campaign.{phase}.s", "s", "lower", module="repro.core.campaign",
               call=f"total of the program's campaign.{phase} spans", moves=_S,
               workloads="campaign-full, sweep-warm / analyze-full")
        for phase in ("pair_grid", "measure_direct", "assemble_relays",
                      "feasibility", "measure_legs", "stitch")
    ),
    Metric("io.save.s", "s", "lower", module="repro.core.io", call="save_result",
           moves=("wall_s", "output_mb", "peak_rss_mb"),
           workloads="campaign-full / sweep-warm, serve-full"),
    Metric("io.save.mb", "MB", "lower", module="repro.core.io",
           call="size of the file save_result wrote", moves=("output_mb",),
           workloads="campaign-full / sweep-warm, serve-full"),
    Metric("io.load.s", "s", "lower", module="repro.core.io", call="load_result",
           moves=("wall_s", "peak_rss_mb"), workloads="analyze-full / campaign-full"),
    Metric("analysis.report.s", "s", "lower", module="repro.analysis.report",
           call="full_report", moves=_S, workloads="analyze-full / campaign-full"),
    Metric("sweep.run.s", "s", "lower", module="repro.core.sweep",
           call="run_sweep, parent side", moves=_S,
           workloads="sweep-warm / campaign-full"),
    Metric("sweep.seed_world.s", "s", "lower", module="repro.core.sweep",
           call="median per-seed world_build_s of the artifact", moves=_S,
           workloads="sweep-warm / campaign-full"),
    Metric("sweep.seed_campaign.s", "s", "lower", module="repro.core.sweep",
           call="median per-seed campaign_s of the artifact", moves=_S,
           workloads="sweep-warm / campaign-full"),
    Metric("sweep.busy.frac", "fraction", "higher", module="repro.core.sweep",
           call="sum of per-seed time / (workers x sweep.run.s)", moves=_S,
           workloads="sweep-warm / campaign-full"),
    Metric("worldcache.hit.frac", "fraction", "higher",
           module="repro.core.worldcache",
           call="world.cache.hits / (hits + misses) counters",
           moves=("wall_s", "setup_s"), workloads="sweep-warm, serve-full (1.0)"),
    Metric("directory.compile.s", "s", "lower", module="repro.service.directory",
           call="ShortcutService.from_campaign", moves=_S,
           workloads="serve-full / campaign-full"),
    Metric("service.snapshot.save.s", "s", "lower", module="repro.service.service",
           call="ShortcutService.save", moves=("wall_s", "peak_rss_mb"),
           workloads="serve-full / campaign-full"),
    Metric("service.snapshot.load.s", "s", "lower", module="repro.service.service",
           call="ShortcutService.load", moves=("wall_s", "peak_rss_mb"),
           workloads="serve-full / campaign-full"),
    Metric("service.snapshot.mb", "MB", "lower", module="repro.service.service",
           call="bytes ShortcutService.save wrote", moves=("peak_rss_mb",),
           workloads="serve-full / campaign-full"),
    Metric("loadgen.synth.s", "s", "lower", module="repro.service.loadgen",
           call="QueryStream.generate (outside the replay timer)", moves=_S,
           workloads="serve-full / campaign-full"),
    Metric("service.route.p50_us", "us", "lower", module="repro.service.service",
           call="median ShortcutService.route_many call",
           moves=("items_per_s",), workloads="serve-full / campaign-full"),
    Metric("service.route.p99_us", "us", "lower", module="repro.service.service",
           call="99th percentile ShortcutService.route_many call",
           moves=("items_per_s",), workloads="serve-full / campaign-full"),
    Metric("service.route.qps", "1/s", "higher", module="repro.service.service",
           call="queries / total route_many time", moves=("items_per_s",),
           workloads="serve-full / campaign-full"),
    Metric("service.relay_answer.frac", "fraction", "higher",
           module="repro.service.loadgen",
           call="replay.relay_answer_frac (quality guard, must not move)",
           workloads="serve-full"),
    Metric("service.tier.country.frac", "fraction", "lower",
           module="repro.service.loadgen",
           call="country-tier answers / queries (quality guard, must not move)",
           workloads="serve-full"),
    Metric("shutdown.s", "s", "lower", module="python",
           call="child's last line (span file written) -> reap", moves=_S,
           workloads="all; largest where the heap is largest"),
    Metric("unattributed.s", "s", "lower", module="harness",
           call="traced wall minus startup, import, top-level spans, shutdown",
           workloads="all (harness health)"),
    Metric("attributed.frac", "fraction", "higher", module="harness",
           call="share of the traced wall the layers above account for",
           workloads="all (harness health, >= 0.90)"),
    Metric("trace_overhead.pct", "%", "lower", module="harness",
           call="median of traced wall / wall of the untraced run before it",
           workloads="all (harness health, within the wall_s bound)"),
)

# ------------------------------------------------------------- workloads

SWEEP_SEEDS = tuple(str(s) for s in range(11, 19))


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  #: ``repro`` arguments; ``{tmp}`` / ``{seed}`` filled in
    setup: tuple[tuple[str, ...], ...]  #: commands that prepare ``{tmp}``
    output: str | None  #: file the command writes under ``{tmp}``; None = stdout
    why: str  #: one line, for BENCHMARK.json
    takes_metrics: bool = True  #: traced runs add ``--metrics`` (program spans)
    verify: tuple[str, ...] | None = None  #: run once on the first run's output
    reference_is_verify: bool = False  #: recorded digest is verify's stdout


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "campaign-full",
            ("campaign", "--seed", "11", "--rounds", "6", "--no-world-cache",
             "--out", "{tmp}/result.json"),
            setup=(("scenarios",),),
            output="result.json",
            why="The paper's campaign as users run it: cold world build, fabric, "
                "6 rounds and the 23 MB result write that dominates.",
            verify=("analyze", "{tmp}/result.json", "--report", "summary"),
            reference_is_verify=True,
        ),
        Workload(
            "analyze-full",
            ("analyze", "{tmp}/stored.json", "--report", "full"),
            setup=(("campaign", "--seed", "11", "--rounds", "6",
                    "--no-world-cache", "--out", "{tmp}/stored.json"),),
            output=None,
            why="The read side of the same result: load_result plus the column "
                "analyses; no world, no campaign.",
            takes_metrics=False,
        ),
        Workload(
            "sweep-warm",
            ("sweep", "--seeds", *SWEEP_SEEDS, "--rounds", "4", "--workers", "2",
             "--world-cache", "{tmp}/wc", "--out", "{tmp}/sweep.json"),
            setup=(("sweep", "--seeds", *SWEEP_SEEDS, "--rounds", "1",
                    "--workers", "2", "--world-cache", "{tmp}/wc"),),
            output="sweep.json",
            why="Eight worlds on both cores: pool fan-out, snapshot restore and "
                "32 campaign rounds; writes no result file.",
            verify=("scenarios", "--verify", "{tmp}/sweep.json"),
        ),
        Workload(
            "serve-full",
            ("serve-bench", "--seed", "11", "--scenario", "baseline", "--rounds",
             "6", "--queries", "2000000", "--batch-size", "1024",
             "--loadgen-seed", "{seed}", "--world-cache", "{tmp}/wcs",
             "--json-out", "{tmp}/serve.json"),
            setup=(("serve-bench", "--seed", "11", "--scenario", "baseline",
                    "--rounds", "1", "--queries", "1024", "--world-cache",
                    "{tmp}/wcs", "--json-out", "{tmp}/setup.json"),),
            output="serve.json",
            why="Overlay serving on the full-world directory: compile, snapshot "
                "round trip, 1,954 closed-loop route_many batches.",
        ),
    )
}


def _fill(argv: tuple[str, ...], tmp: Path, seed: int) -> list[str]:
    return [a.format(tmp=tmp, seed=seed) for a in argv]


def _blake(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _output_path(w: Workload, tmp: Path) -> Path:
    return tmp / w.output if w.output else tmp / "stdout"


def outcome(w: Workload, tmp: Path, wall: float) -> tuple[str | None, float, dict]:
    """``(digest, items per second, output report)`` of one run.

    The digest is what must repeat across runs: the result bytes, the
    report text, the sweep artifact minus ``timing``, or the served
    answers.  ``None`` means the output failed its check.  Items are
    pings sent, observations analysed, seed-rounds swept per second of
    wall, or the replay's own queries per second."""
    path = _output_path(w, tmp)
    if w.name == "campaign-full":
        pings = re.findall(r"(\d+) pings", (tmp / "stderr").read_text())
        return _blake(path.read_bytes()), sum(map(int, pings)) / wall, {}
    if w.name == "analyze-full":
        text = path.read_text()
        cases = re.search(r"total cases: (\d+)", text)
        if cases is None:
            return None, 0.0, {}
        return _blake(text.encode()), int(cases.group(1)) / wall, {}
    report = json.loads(path.read_text())
    if w.name == "sweep-warm":
        artifact = {k: v for k, v in report.items() if k != "timing"}
        items = len(report["config"]["seeds"]) * report["config"]["rounds"]
        return _blake(json.dumps(artifact, sort_keys=True).encode()), items / wall, report
    digest = report["replay"]["answers_digest"] if report.get("ok") else None
    return digest, report["replay"]["queries_per_s"], report


# ----------------------------------------------------------------- stats


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def self_times(events: list[dict]) -> dict[int, float]:
    """Span id -> seconds of its duration its child spans do not cover."""
    children: dict[int, float] = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + e["dur"]
    return {
        e["args"]["id"]: (e["dur"] - children.get(e["args"]["id"], 0.0)) / 1e6
        for e in events
    }


def attribution(trace: dict, spawned: float, reaped: float) -> dict[str, float]:
    """Startup, shutdown and the unattributed rest of one traced process.

    Attributed time is interpreter start-up, ``import repro.cli``, every
    span directly under the ``command`` span and the shutdown after the
    child's last line; the rest of spawn-to-reap is unattributed."""
    events = trace["traceEvents"]
    wall = reaped - spawned
    startup = trace["otherData"]["t0"] - spawned
    shutdown = reaped - trace["otherData"]["t_end"]
    command = [e["args"]["id"] for e in events if e["name"] == "command"]
    top = sum(
        e["dur"] / 1e6
        for e in events
        if e["name"] == "import" or e["args"]["parent"] in command
    )
    attributed = startup + top + shutdown
    return {
        "startup.s": startup,
        "shutdown.s": shutdown,
        "unattributed.s": wall - attributed,
        "attributed.frac": attributed / wall,
    }


def layer_values(
    trace: dict, spawned: float, reaped: float, metrics: dict | None, report: dict
) -> dict[str, float]:
    """Every per-layer metric except ``trace_overhead.pct`` for one traced run."""
    events = trace["traceEvents"]
    own = self_times(events)
    total: dict[str, float] = {}
    for e in events:
        total[e["name"]] = total.get(e["name"], 0.0) + own[e["args"]["id"]]
    values = {m.name: 0.0 for m in LAYERS if m.name != "trace_overhead.pct"}
    for name in ("import", "world.build", "world.restore", "fabric", "campaign.round0",
                 "io.save", "io.load", "analysis.report", "sweep.run",
                 "directory.compile", "service.snapshot.save",
                 "service.snapshot.load", "loadgen.synth"):
        values[f"{name}.s"] = total.get(name, 0.0)
    rounds = [own[e["args"]["id"]] for e in events if e["name"] == "campaign.round"]
    if rounds:
        values["campaign.round.s"] = statistics.median(rounds)
    for e in events:
        if e["name"] == "io.save":
            values["io.save.mb"] += e["args"].get("mb", 0.0)
        elif e["name"] == "service.snapshot.save":
            values["service.snapshot.mb"] += e["args"].get("mb", 0.0)
    if metrics is not None:
        counters = metrics["structural"]["counters"]
        timings = metrics["timings"]
        pings = counters.get("campaign.pings", 0)
        values["campaign.pings"] = float(pings)
        round_s = timings.get("campaign.round", {}).get("total_ms", 0.0) / 1e3
        if round_s > 0:
            values["campaign.pings_per_s"] = pings / round_s
        for phase in ("pair_grid", "measure_direct", "assemble_relays",
                      "feasibility", "measure_legs", "stitch"):
            values[f"campaign.{phase}.s"] = (
                timings.get(f"campaign.{phase}", {}).get("total_ms", 0.0) / 1e3
            )
        hits = counters.get("world.cache.hits", 0)
        misses = counters.get("world.cache.misses", 0)
        if hits + misses:
            values["worldcache.hit.frac"] = hits / (hits + misses)
    timing = report.get("timing")
    if timing is not None and values["sweep.run.s"] > 0:
        values["sweep.seed_world.s"] = statistics.median(timing["world_build_s"])
        values["sweep.seed_campaign.s"] = statistics.median(timing["campaign_s"])
        values["sweep.busy.frac"] = sum(timing["per_seed_s"]) / (
            timing["workers"] * values["sweep.run.s"]
        )
    route = [e["dur"] for e in events if e["name"] == "service.route"]
    if len(route) >= 2:
        values["service.route.p50_us"] = statistics.median(route)
        values["service.route.p99_us"] = statistics.quantiles(route, n=100)[98]
    replay = report.get("replay")
    if replay is not None:
        if route:
            values["service.route.qps"] = replay["queries"] / (sum(route) / 1e6)
        values["service.relay_answer.frac"] = replay["relay_answer_frac"]
        values["service.tier.country.frac"] = (
            replay["tier_counts"]["country"] / replay["queries"]
        )
    values.update(attribution(trace, spawned, reaped))
    return values


# ------------------------------------------------------------- processes


@dataclass
class Exit:
    code: int
    spawned: float
    reaped: float
    rss_mb: float

    @property
    def wall(self) -> float:
        return self.reaped - self.spawned


def _child_env() -> dict[str, str]:
    """The caller's environment, minus anything that could redirect the
    program or its world cache: children import only this checkout's
    ``src/`` and never read ``$REPRO_WORLD_CACHE``."""
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("REPRO_WORLD_CACHE", "PYTHONPATH", "PYTHONHOME")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], tmp: Path) -> Exit:
    """Run one process to completion; stdout and stderr land in ``tmp``."""
    with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, cwd=ROOT, env=_child_env(),
            start_new_session=True,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        reaped = time.perf_counter()
    # reaped by wait4 above, so Popen must not try to wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, spawned, reaped, usage.ru_maxrss * 1024 / 1e6)


# ------------------------------------------------------------ a workload


class SetupError(RuntimeError):
    pass


@dataclass
class Tally:
    """Everything measured for one workload in one invocation."""

    setup_s: list[float] = field(default_factory=list)
    e2e: dict[str, list[float]] = field(default_factory=dict)
    layers: dict[str, list[float]] = field(default_factory=dict)
    #: traced wall / wall of the untraced run just before it
    overhead: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reference: str | None = None  #: digest compared with recorded.json
    failures: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        self.failures.append(why)

    def results(self) -> dict:
        e2e = {name: summarize(v) for name, v in self.e2e.items() if v}
        if self.setup_s:
            e2e["setup_s"] = summarize(self.setup_s)
        layers = {name: summarize(v) for name, v in self.layers.items() if v}
        if self.overhead:
            layers["trace_overhead.pct"] = summarize(
                [100.0 * (ratio - 1.0) for ratio in self.overhead]
            )
        return {
            "end_to_end": e2e,
            "layers": layers,
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / self.attempted if self.attempted else 1.0,
            "reference_digest": self.reference,
        }


class Runner:
    """Set-up, untraced runs and traced runs of one workload."""

    def __init__(self, w: Workload, seed: int, scratch: Path,
                 inject: str | None, recorded: dict | None) -> None:
        self.w = w
        self.seed = seed
        self.tmp = scratch / w.name
        self.inject = inject
        self.tally = Tally()
        self._digest: str | None = None
        self._expected = _recorded_digest(recorded, w, seed)
        self._last_wall: float | None = None  #: of the latest good timed run

    def _cmd(self, argv: tuple[str, ...], tmp: Path) -> list[str]:
        return [sys.executable, "-m", "repro", *_fill(argv, tmp, self.seed)]

    def setup(self) -> None:
        """Run the set-up ``SETUP_REPEATS`` times into fresh directories; the
        last one's directory is the workload's."""
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp.mkdir(parents=True)
            elapsed = 0.0
            for argv in self.w.setup:
                done = spawn(self._cmd(argv, self.tmp), self.tmp)
                if done.code != 0:
                    raise SetupError(
                        f"{self.w.name}: set-up {' '.join(argv[:1])} exited "
                        f"{done.code}: {_tail(self.tmp / 'stderr')}"
                    )
                elapsed += done.wall
            self.tally.setup_s.append(elapsed)

    def _check(self, done: Exit, tag: str) -> tuple[str | None, float, dict]:
        """Count the run and check its output; a None digest means it failed."""
        t = self.tally
        t.attempted += 1
        if done.code != 0:
            t.fail(f"{tag} run exited {done.code}: {_tail(self.tmp / 'stderr')}")
            return None, 0.0, {}
        try:
            digest, items_per_s, report = outcome(self.w, self.tmp, done.wall)
        except (OSError, ValueError, KeyError) as exc:
            t.fail(f"{tag} run output unreadable: {exc!r}")
            return None, 0.0, {}
        if digest is None:
            t.fail(f"{tag} run output failed its check")
        elif self._digest is None:
            self._digest = digest
            failure = self._verify(digest)
            if failure is not None:
                t.fail(failure)
                digest = None
        elif digest != self._digest:
            t.fail(f"{tag} run output differs from the first run's")
            digest = None
        return digest, items_per_s, report

    def _verify(self, digest: str) -> str | None:
        """Once per invocation: the workload's extra check and the recorded
        reference digest.  Returns why they failed, or None."""
        reference = digest
        if self.w.verify is not None:
            scratch = self.tmp / "verify"
            scratch.mkdir(exist_ok=True)
            done = spawn(self._cmd(self.w.verify, self.tmp), scratch)
            if done.code != 0:
                return f"{' '.join(self.w.verify[:2])} exited {done.code}"
            if self.w.reference_is_verify:
                reference = _blake((scratch / "stdout").read_bytes())
        self.tally.reference = reference
        if self._expected is not None and reference != self._expected:
            return f"output digest {reference} differs from recorded {self._expected}"
        return None

    def run(self, timed: bool = True) -> None:
        """One untraced run (through ``traced.py`` under ``--inject``)."""
        if self.inject:
            argv = [sys.executable, str(TRACED), "--inject", self.inject, "--",
                    *_fill(self.w.argv, self.tmp, self.seed)]
        else:
            argv = self._cmd(self.w.argv, self.tmp)
        done = spawn(argv, self.tmp)
        digest, items_per_s, _ = self._check(done, "timed" if timed else "warm-up")
        self._last_wall = done.wall if digest is not None and timed else None
        if digest is not None and timed:
            size = _output_path(self.w, self.tmp).stat().st_size / 1e6
            for name, value in (("wall_s", done.wall), ("peak_rss_mb", done.rss_mb),
                                ("output_mb", size), ("items_per_s", items_per_s)):
                self.tally.e2e.setdefault(name, []).append(value)

    def traced_run(self) -> None:
        trace = self.tmp / "trace.json"
        metrics = self.tmp / "metrics.json"
        for stale in (trace, metrics):
            stale.unlink(missing_ok=True)
        argv = [sys.executable, str(TRACED), "--out", str(trace)]
        if self.inject:
            argv += ["--inject", self.inject]
        argv += ["--", *_fill(self.w.argv, self.tmp, self.seed)]
        if self.w.takes_metrics:
            argv += ["--metrics", str(metrics)]
        done = spawn(argv, self.tmp)
        digest, _, report = self._check(done, "traced")
        if digest is not None:
            values = layer_values(
                json.loads(trace.read_text()), done.spawned, done.reaped,
                json.loads(metrics.read_text()) if self.w.takes_metrics else None,
                report,
            )
            for name, value in values.items():
                self.tally.layers.setdefault(name, []).append(value)
            if self._last_wall is not None:
                self.tally.overhead.append(done.wall / self._last_wall)


def _tail(path: Path, lines: int = 3) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])
    except OSError:
        return ""


def _recorded_digest(recorded: dict | None, w: Workload, seed: int) -> str | None:
    """The recorded reference digest, when it applies to this seed."""
    if not recorded:
        return None
    entry = recorded.get("workloads", {}).get(w.name, {})
    digest = entry.get("reference_digest")
    if digest is None:
        return None
    seed_dependent = any("{seed}" in a for a in w.argv)
    if seed_dependent and entry.get("digest_seed") != seed:
        return None
    return digest


# ----------------------------------------------------------------- modes


def time_box(runner: Runner, seconds: float, trace: bool) -> None:
    """Warm up, then measure runs (or untraced/traced pairs) until the next
    one would end after ``seconds``; at least ``MIN_RUNS``."""
    runner.run(timed=False)
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t = time.perf_counter()
        runner.run()
        if trace:
            runner.traced_run()
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_RUNS and elapsed + statistics.median(durations) > seconds:
            return


def interleaved(runners: list[Runner], runs: int, trace_runs: int) -> None:
    """One warm-up each, then rounds over all workloads, alternating order.

    In the first ``trace_runs`` rounds each untraced run is followed by a
    traced one, so tracing overhead is a ratio of neighbouring runs."""
    for r in runners:
        r.run(timed=False)
    for i in range(max(runs, trace_runs)):
        for r in runners if i % 2 == 0 else runners[::-1]:
            if i < runs:
                r.run()
            if i < trace_runs:
                r.traced_run()


def _metric(name: str) -> Metric:
    return next(m for m in END_TO_END + LAYERS if m.name == name)


def check(results: dict, recorded: dict) -> tuple[list[str], list[str]]:
    """``(regressions, drifts)`` of fresh results against the last recorded
    invocation: an end-to-end median worse than its ``check_pct``, a
    per-layer median moved by more than max(DRIFT_PCT, the recorded
    quartile spread)."""
    regressions: list[str] = []
    drifts: list[str] = []
    baseline = recorded["results"][-1]["workloads"]
    for wname, fresh in results.items():
        if wname not in baseline:
            continue
        base = baseline[wname]
        if fresh["failed"]:
            regressions.append(
                f"{wname} error_rate: {fresh['failed']}/{fresh['attempted']} runs failed"
            )
        for name, stats in fresh["end_to_end"].items():
            old = base["end_to_end"].get(name)
            if old is None or old["median"] == 0:
                continue
            m = _metric(name)
            change = stats["median"] / old["median"] - 1.0
            worse = change if m.better == "lower" else -change
            if 100 * worse > m.check_pct:
                regressions.append(
                    f"{wname} {name}: {stats['median']:.6g} {m.unit} vs recorded "
                    f"{old['median']:.6g} ({100 * change:+.1f}%, bound "
                    f"{m.check_pct:g}%)"
                )
        for name, stats in fresh["layers"].items():
            old = base["layers"].get(name)
            m = _metric(name)
            if old is None or m.module == "harness":
                continue
            delta = stats["median"] - old["median"]
            if m.unit == "s" and abs(delta) <= DRIFT_FLOOR_S:
                continue
            if old["median"] == 0:
                moved = delta != 0
                pct = float("inf")
            else:
                pct = 100 * delta / abs(old["median"])
                spread = 100 * (old["q3"] - old["q1"]) / abs(old["median"])
                moved = abs(pct) > max(DRIFT_PCT, spread)
            if moved:
                drifts.append(
                    f"{wname} {name}: {stats['median']:.6g} {m.unit} vs recorded "
                    f"{old['median']:.6g} ({pct:+.1f}%)"
                )
    return regressions, drifts


def manifest() -> dict:
    """``BENCHMARK.json``: how to run this benchmark, and its metrics."""
    return {
        "command": ["python3", "benchmarks/e2e/bench.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYERS
        ],
    }


def _machine() -> dict:
    from importlib.metadata import version

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), "",
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
    }


def record(results: dict, seed: int, runs: int, trace_runs: int,
           recorded: dict | None) -> None:
    """Append this invocation to ``recorded.json`` (keeping the last two)
    and rewrite ``BENCHMARK.json``."""
    previous = (recorded or {}).get("results", [])
    data = {
        "schema": SCHEMA,
        "paths": manifest()["paths"],
        "command": manifest()["command"],
        "seed": seed,
        "runs": runs,
        "trace_runs": trace_runs,
        "machine": _machine(),
        "end_to_end": {
            m.name: {"unit": m.unit, "better": m.better,
                     "bound_pct": m.check_pct, "time_box_bound": m.bound,
                     "measures": m.call,
                     "workloads": list(WORKLOADS)}
            for m in END_TO_END
        },
        "layers": {
            m.name: {"unit": m.unit, "better": m.better, "module": m.module,
                     "call": m.call, "moves": list(m.moves),
                     "workloads": m.workloads}
            for m in LAYERS
        },
        "workloads": {
            w.name: {
                "argv": ["python", "-m", "repro", *w.argv],
                "setup": [["python", "-m", "repro", *s] for s in w.setup],
                "why": w.why,
                "reference_digest": results[w.name]["reference_digest"],
                "digest_seed": seed,
            }
            for w in WORKLOADS.values()
        },
        "results": (previous + [{
            "seed": seed, "runs": runs, "trace_runs": trace_runs,
            "workloads": results,
        }])[-2:],
    }
    RECORDED.write_text(json.dumps(data, indent=2) + "\n")
    MANIFEST.write_text(json.dumps(manifest(), indent=2) + "\n")


def _format(results: dict) -> str:
    lines = []
    for wname, res in results.items():
        lines.append(
            f"== {wname}: {res['failed']}/{res['attempted']} runs failed "
            f"(error_rate {res['error_rate']:.3f})"
        )
        for section in ("end_to_end", "layers"):
            for name, s in res[section].items():
                unit = _metric(name).unit
                lines.append(
                    f"  {name:<26} {s['median']:>14.6g} {unit:<8} "
                    f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']}]"
                )
    return "\n".join(lines)


def _load_recorded() -> dict | None:
    try:
        return json.loads(RECORDED.read_text())
    except (OSError, ValueError):
        return None


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", nargs="+", default=list(WORKLOADS),
                        choices=list(WORKLOADS), metavar="NAME")
    parser.add_argument("--seed", type=int, default=11,
                        help="seeds serve-full's query stream")
    parser.add_argument("--runs", type=int, default=8,
                        help="untraced runs per workload, interleaved")
    parser.add_argument("--trace-runs", type=int, default=3,
                        help="traced runs per workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-box one workload and print one JSON line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --seconds: report per-layer metrics")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an end-to-end regression against recorded.json")
    parser.add_argument("--inject", default=None, metavar="SPAN:FACTOR",
                        help="stretch one traced call (e.g. io.save:1.3); "
                             "timed runs then go through traced.py")
    parser.add_argument("--record", action="store_true",
                        help="append the results to recorded.json, rewrite BENCHMARK.json")
    parser.add_argument("--json-out", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    if args.seconds is not None and len(args.workload) != 1:
        parser.error("--seconds takes exactly one --workload")
    if args.record and (args.seconds is not None or args.inject
                        or set(args.workload) != set(WORKLOADS)):
        parser.error("--record takes every workload, without --seconds or --inject")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    recorded = _load_recorded()
    signal.signal(signal.SIGTERM, _terminate)
    TMP_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        runners = [
            Runner(WORKLOADS[name], args.seed, scratch, args.inject, recorded)
            for name in args.workload
        ]
        for r in runners:
            r.setup()
        if args.seconds is not None:
            time_box(runners[0], args.seconds, bool(args.trace))
        else:
            interleaved(runners, args.runs, args.trace_runs)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    results = {r.w.name: r.tally.results() for r in runners}
    for r in runners:
        for failure in r.tally.failures:
            print(f"{r.w.name}: FAILED: {failure}", file=sys.stderr)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(results, indent=2) + "\n")

    if args.seconds is not None:
        res = results[args.workload[0]]
        section = res["layers"] if args.trace else res["end_to_end"]
        wanted = LAYERS if args.trace else END_TO_END
        if any(m.name not in section for m in wanted):
            print("error: no successful run to report", file=sys.stderr)
            return 1
        print(_format(results), file=sys.stderr)
        print(json.dumps({
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {
                m.name: {"value": section[m.name]["median"], "unit": m.unit}
                for m in wanted
            },
        }))
        return 0

    print(_format(results))
    code = 0 if all(r["failed"] == 0 for r in results.values()) else 1
    if args.check:
        if not recorded:
            print(f"error: --check needs {RECORDED}", file=sys.stderr)
            return 1
        regressions, drifts = check(results, recorded)
        for line in drifts:
            print(f"DRIFT {line}")
        for line in regressions:
            print(f"REGRESSION {line}")
        print("check: " + ("FAILED" if regressions else "ok"))
        code = 1 if regressions else code
    if args.record:
        if code != 0:
            print("error: not recording an invocation with failures", file=sys.stderr)
            return code
        record(results, args.seed, args.runs, args.trace_runs, recorded)
    return code


if __name__ == "__main__":
    sys.exit(main())
