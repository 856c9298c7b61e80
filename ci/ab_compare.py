"""Compare two ``src/repro`` trees in one process, in interleaved blocks.

Separate benchmark processes of the same code can differ by a third in
ops/s on a small shared VM, which hides a change of a few percent.  This
script imports both trees into one process, as two packages (``repro_a``
and ``repro_b``; ``src/repro`` uses relative imports only, so a tree works
under any package name), builds one system per side and runs one
workload's requests (from ``benchmarks/e2e/workloads.py``) against both
in alternating blocks: each side's block runs right next to the other's,
so slow stretches of the host hit both alike.  Each side draws the same
seeded requests and checks every answer against the workload's oracle.

    python ci/ab_compare.py --a ../parent --b . --workload scalar_rt \\
        --backend compiled --blocks 40 --requests 200

``--a``/``--b`` are repository roots (holding ``src/repro``).  Prints each
side's median ops/s with its quartiles, the blocks each side won, the
median gain of B over A, and ``sim.now`` per side, which must agree for a
cycle-exact change.  It then prints each side's link and engine counters
from ``counters_for`` (host retransmits and NACKs; per faulty line and for
the RTM's receiver, CRC failures, dropped words, flipped bits and words
stalled after death), which must agree too.  Exits 1 on a wrong answer, 0
otherwise.

``--setup`` compares warm set-ups instead, timed as the benchmark's worker
times them (``Setup`` in ``benchmarks/e2e/worker.py``): after one untimed
cold build per side, each block times one set-up per side, covering the
workload's build, the ``Session``, its client and request 0.  It prints
each side's median milliseconds with quartiles, the blocks each side won
and the median gain of B over A (A's time over B's, minus one)::

    python ci/ab_compare.py --a ../parent --b . --workload scalar_rt \\
        --backend compiled --setup --blocks 60
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import re
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "benchmarks" / "e2e" / "workloads.py"

#: ``counters_for`` engine counters, then link counters in every link section
#: (fault-injecting lines, the RTM's reliable receiver) that has them
ENGINE_COUNTERS = ("retransmits", "nacks")
LINK_COUNTERS = ("crc_failures", "words_dropped", "bits_flipped",
                 "stalled_after_death")

#: an absolute import of the package itself, which would bind to whichever
#: tree is on ``sys.path`` instead of the one being loaded
_ABSOLUTE = re.compile(r"^\s*(from|import)\s+repro\b", re.MULTILINE)


def load_tree(root: Path, name: str) -> ModuleType:
    """Import ``root/src/repro`` as the package ``name``."""
    package = root / "src" / "repro"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(package: str) -> ModuleType:
    """``workloads.py`` with its ``repro`` imports bound to ``package``."""
    source = WORKLOADS.read_text()
    bound = re.sub(r"^(\s*from\s+)repro\b", rf"\g<1>{package}", source, flags=re.MULTILINE)
    if _ABSOLUTE.search(bound):
        raise SystemExit(f"{WORKLOADS}: an import of repro this script cannot rebind")
    module = ModuleType(f"{package}_workloads")
    module.__file__ = str(WORKLOADS)
    sys.modules[module.__name__] = module
    exec(compile(bound, str(WORKLOADS), "exec"), module.__dict__)
    return module


class Side:
    """One tree's system, session and request stream."""

    def __init__(self, label: str, root: Path, workload: str,
                 backend: str, seed: int) -> None:
        self.label = label
        package = f"repro_{label.lower()}"
        pkg = load_tree(root, package)
        self.workload = load_workloads(package).WORKLOADS[workload]
        system = self.workload.build(None if backend == "event" else backend)
        self.system = system
        self.counters_for = importlib.import_module(f"{package}.analysis").counters_for
        self.session = pkg.Session(system)
        self.client = self.workload.open(self.session)
        self.requests = self.workload.requests(seed)
        self.sim = system.sim
        self.rates: list[float] = []
        self.wrong = 0

    def block(self, n: int) -> float:
        """Run the next ``n`` requests; returns their ops/s."""
        w = self.workload
        batch = [next(self.requests) for _ in range(n)]
        start = time.perf_counter()
        answers = [w.execute(self.client, self.session, req) for req in batch]
        elapsed = time.perf_counter() - start
        self.wrong += sum(a != w.expected(r) for a, r in zip(answers, batch))
        rate = n * w.ops_per_request / elapsed
        self.rates.append(rate)
        return rate

    def counters(self) -> dict:
        """The link and engine counters, flattened to ``section.name``."""
        report = self.counters_for(self.system, self.session.driver)
        out = {name: report.engine[name] for name in ENGINE_COUNTERS}
        for section, stats in sorted(report.link.items()):
            out.update((f"{section}.{name}", stats[name])
                       for name in LINK_COUNTERS if name in stats)
        return out


class SetupSide:
    """One tree's warm set-ups of one workload."""

    def __init__(self, label: str, root: Path, workload: str,
                 backend: str, seed: int) -> None:
        self.label = label
        package = f"repro_{label.lower()}"
        self.session_cls = load_tree(root, package).Session
        self.workload = load_workloads(package).WORKLOADS[workload]
        self.backend = None if backend == "event" else backend
        self.seed = seed
        self.times: list[float] = []
        self.wrong = 0
        self.setup()  # the untimed cold build: imports, first-use caches
        self.times.clear()

    def setup(self) -> float:
        """One timed set-up: build, session, client and request 0."""
        w = self.workload
        self.sim = None  # the previous system is collected before timing
        gc.collect()
        requests = w.requests(self.seed)
        start = time.perf_counter()
        system = w.build(self.backend)
        session = self.session_cls(system)
        client = w.open(session)
        req = next(requests)
        answer = w.execute(client, session, req)
        elapsed = time.perf_counter() - start
        self.wrong += answer != w.expected(req)
        self.sim = system.sim
        self.times.append(elapsed)
        return elapsed


def compare_setups(args: argparse.Namespace) -> int:
    a = SetupSide("A", args.a.resolve(), args.workload, args.backend, args.seed)
    b = SetupSide("B", args.b.resolve(), args.workload, args.backend, args.seed)
    wins = 0
    for i in range(args.blocks):
        first, second = (a, b) if i % 2 == 0 else (b, a)
        first.setup()
        second.setup()
        wins += b.times[-1] < a.times[-1]

    print(f"workload {args.workload} on {args.backend}: {args.blocks} warm "
          f"set-ups per side, seed {args.seed}")
    for side in (a, b):
        q1, q2, q3 = quartiles([t * 1e3 for t in side.times])
        print(f"  {side.label}: median {q2:.2f} ms (quartiles {q1:.2f}, {q3:.2f}), "
              f"sim.now {side.sim.now}, wrong answers {side.wrong}")
    gains = [ta / tb - 1 for ta, tb in zip(a.times, b.times)]
    print(f"  B won {wins} of {args.blocks} blocks; "
          f"median gain of B over A {statistics.median(gains):+.1%}")
    if a.sim.now != b.sim.now:
        print("  sim.now differs between the sides")
    return 1 if a.wrong or b.wrong else 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="baseline repository root")
    parser.add_argument("--b", type=Path, required=True, help="changed repository root")
    parser.add_argument("--workload", default="scalar_rt")
    parser.add_argument("--backend", default="compiled", choices=("event", "compiled"))
    parser.add_argument("--blocks", type=int, default=40)
    parser.add_argument("--requests", type=int, default=200, help="requests per block")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--setup", action="store_true",
                        help="compare warm set-ups instead of requests")
    args = parser.parse_args(argv)
    if args.setup:
        return compare_setups(args)

    a = Side("A", args.a.resolve(), args.workload, args.backend, args.seed)
    b = Side("B", args.b.resolve(), args.workload, args.backend, args.seed)
    wins = 0
    for i in range(args.blocks):
        gc.collect()
        # alternate which side goes first, so neither always follows a collection
        first, second = (a, b) if i % 2 == 0 else (b, a)
        first.block(args.requests)
        second.block(args.requests)
        wins += b.rates[-1] > a.rates[-1]

    print(f"workload {args.workload} on {args.backend}: {args.blocks} blocks "
          f"of {args.requests} requests, seed {args.seed}")
    for side in (a, b):
        q1, q2, q3 = quartiles(side.rates)
        print(f"  {side.label}: median {q2:.1f} ops/s (quartiles {q1:.1f}, {q3:.1f}), "
              f"sim.now {side.sim.now}, wrong answers {side.wrong}")
    gains = [rb / ra - 1 for ra, rb in zip(a.rates, b.rates)]
    print(f"  B won {wins} of {args.blocks} blocks; "
          f"median gain of B over A {statistics.median(gains):+.1%}")
    if a.sim.now != b.sim.now:
        print("  sim.now differs between the sides")
    counters = [side.counters() for side in (a, b)]
    for side, values in zip((a, b), counters):
        print(f"  {side.label} counters: "
              + ", ".join(f"{name} {v}" for name, v in values.items()))
    if counters[0] != counters[1]:
        print("  counters differ between the sides")
    return 1 if a.wrong or b.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
