"""Print what the compiled backend decided for every design in the repo.

For each target — the lint targets (every channel preset and every
``examples/*.py`` with a ``build_for_lint()``), the out-of-order FP system
and the five systems of ``benchmarks/e2e/workloads.py`` — this builds the
design on ``backend="compiled"`` and prints, as one JSON object:

* ``source``: the sha256 of ``sim.generated_source`` with the line
  number of each template's provenance comment (``# template k: ...
  (module:line)``) left out, so a change that only shifts a model file's
  lines keeps every hash (:func:`source_hash`);
* ``placements``: each process's ``[label, kind, reason]`` from
  :func:`repro.hdl.compile.frontend.place`, in declaration order (the
  same call the ``compile.fallback`` lint rule makes);
* ``counters``: the placement counters of ``sim.kernel_stats``;
* ``run`` (e2e systems only): per backend, ``sim.now``, the run counters
  of ``sim.kernel_stats`` and ``steps`` (the ``sim.step`` calls: the
  host's pump chunks) after the workload's first ``RUN_REQUESTS`` seeded
  requests through a ``Session``, each checked against its oracle.

Diffing the output of two checkouts shows whether a change moved any
placement, any generated line or any stepping counter::

    PYTHONPATH=src python ci/fingerprint.py > after.json
    (cd ../parent && PYTHONPATH=src python ci/fingerprint.py) > before.json
    diff before.json after.json

Positional arguments limit the run to the named targets.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import re
import sys
from pathlib import Path
from typing import Any, Callable

from repro.analysis.lint.model import build_design
from repro.hdl import Simulator
from repro.hdl.compile.frontend import place
from repro.hdl.compile.vector import absorbed_procs
from repro.host import Session
from repro.messages.channel import PRESETS
from repro.system import build_system

ROOT = Path(__file__).resolve().parents[1]

#: the ``KernelStats`` fields a build's placement sets
COUNTERS = ("compiled_procs", "fallback_procs", "translated_procs",
            "tracked_procs", "always_procs", "vectorized_cells",
            "masks_elided", "branches_folded")

#: the ``KernelStats`` fields a run moves, printed per e2e system
RUN_COUNTERS = ("edge_calls", "skipped_cycles", "wheel_jumps", "seq_runs",
                "settle_calls")
#: requests, and the seed of their stream, each e2e system runs
RUN_REQUESTS = 8
RUN_SEED = 1

#: the ``:line`` of a template's ``(module:line)`` provenance comment
_PROVENANCE_LINE = re.compile(r"^(# template \d+: .* \([\w.]+):\d+\)$", re.M)


def _module(path: Path) -> Any:
    spec = importlib.util.spec_from_file_location(f"_fp_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _example(path: Path) -> Callable[[], tuple]:
    def build() -> tuple:
        made = _module(path).build_for_lint()
        top = getattr(made, "soc", made)
        sim = getattr(made, "sim", None)
        if sim is None or sim.backend != "compiled":
            sim = Simulator(top, backend="compiled")
            sim.reset()
        return top, sim
    return build


def _system(make: Callable[[], Any]) -> Callable[[], tuple]:
    def build() -> tuple:
        system = make()
        return system.soc, system.sim
    return build


def run_counters(workload: Any, backend: str) -> dict:
    """``sim.now``, the run counters and the ``sim.step`` calls after the
    workload's first ``RUN_REQUESTS`` requests on ``backend``."""
    system = workload.build(backend)
    sim = system.sim
    steps = 0
    step = sim.step

    def counting(*args: Any) -> int:
        nonlocal steps
        steps += 1
        return step(*args)

    sim.step = counting
    session = Session(system)
    client = workload.open(session)
    requests = workload.requests(RUN_SEED)
    for _ in range(RUN_REQUESTS):
        req = next(requests)
        if workload.execute(client, session, req) != workload.expected(req):
            raise AssertionError(f"{workload.name} on {backend}: wrong result")
    stats = sim.kernel_stats
    return {"now": sim.now, **{name: getattr(stats, name) for name in RUN_COUNTERS},
            "steps": steps}


def targets(workloads: dict) -> dict[str, Callable[[], tuple]]:
    """Target name -> a build returning ``(top, compiled simulator)``;
    ``workloads`` are the e2e benchmark's, by name."""
    out: dict[str, Callable[[], tuple]] = {}
    for name in sorted(PRESETS):
        out[name] = _system(lambda name=name: build_system(
            channel=PRESETS[name], backend="compiled", lint="off"))
    for path in sorted((ROOT / "examples").glob("*.py")):
        out[f"examples/{path.name}"] = _example(path)
    out["ooo-fp"] = _system(lambda: build_system(
        ooo=True, fp_units=True, backend="compiled", lint="off"))
    for name, workload in sorted(workloads.items()):
        out[f"e2e/{name}"] = _system(
            lambda workload=workload: workload.build("compiled"))
    return out


def source_hash(source: str) -> str:
    """The sha256 of generated ``source`` with provenance line numbers
    normalized: only the generated statements and what binds them count."""
    normalized = _PROVENANCE_LINE.sub(r"\1:_)", source)
    return hashlib.sha256(normalized.encode()).hexdigest()


def fingerprint(build: Callable[[], tuple]) -> dict:
    """The source hash, placements and placement counters of one build."""
    top, sim = build()
    design = build_design(top, sim=sim, probe=False)
    managed = set(design.signals)
    absorbed = absorbed_procs(top)
    placements = []
    for rec in design.procs:
        where = place(lambda: rec.resolved, seq=rec.kind == "seq",
                      always=rec.always, pure=rec.pure,
                      absorbed=id(rec.fn) in absorbed, managed=managed)
        placements.append([rec.label, where.kind, where.reason])
    source = source_hash(sim.generated_source)
    stats = sim.kernel_stats
    return {"source": source, "placements": placements,
            "counters": {name: getattr(stats, name) for name in COUNTERS}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="targets to fingerprint "
                        "(default: all)")
    args = parser.parse_args(argv)
    workloads = _module(ROOT / "benchmarks" / "e2e" / "workloads.py").WORKLOADS
    builds = targets(workloads)
    unknown = sorted(set(args.names) - set(builds))
    if unknown:
        parser.error(f"unknown targets {', '.join(unknown)}; known: "
                     f"{', '.join(builds)}")
    chosen = args.names or list(builds)
    report = {}
    for name in chosen:
        report[name] = entry = fingerprint(builds[name])
        if name.startswith("e2e/"):
            workload = workloads[name.removeprefix("e2e/")]
            entry["run"] = {backend: run_counters(workload, backend)
                            for backend in ("event", "compiled")}
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
