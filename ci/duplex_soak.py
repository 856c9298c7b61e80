"""Soak the reliable link with word faults in both directions.

Drives 2000 synchronous ``Session.compute`` calls over ``FAST_BUS`` with
``reliable=True`` and drop and flip rates of 0.005 in each direction, for
the downstream/upstream fault seed pairs 1/2 and 7/8, on the event kernel,
the event kernel with the time wheel off, and the compiled backend.  Every
result is checked against Python arithmetic.  The link only loses and
damages words, so any raise (a false ``LinkDownError`` above all) or wrong
result is a failure.

    PYTHONPATH=src python ci/duplex_soak.py

Exits 1 on the first failing run, 0 when every run completed.
"""

from __future__ import annotations

import random
import sys
import time

from repro import Session, build_system
from repro.isa.opcodes import ArithOp
from repro.messages import FAST_BUS, FaultSpec

CALLS = 2000
RATE = 0.005
SEED_PAIRS = ((1, 2), (7, 8))
BACKENDS = {
    "event": {},
    "wheel-off": dict(wheel=False),
    "compiled": dict(backend="compiled"),
}


def soak(down: int, up: int, backend: str) -> str:
    """Run one soak; returns an empty string on success, else the failure."""
    system = build_system(
        channel=FAST_BUS, reliable=True, lint="off",
        faults=FaultSpec(seed=down, drop_rate=RATE, flip_rate=RATE),
        upstream_faults=FaultSpec(seed=up, drop_rate=RATE, flip_rate=RATE),
        **BACKENDS[backend],
    )
    session = Session(system)
    rng = random.Random(1)
    for call in range(1, CALLS + 1):
        x, y = rng.getrandbits(32), rng.getrandbits(32)
        try:
            got = session.compute(ArithOp.ADD, x, y)
        except Exception as error:  # any raise fails the soak
            return f"call {call} raised {type(error).__name__}: {error}"
        if got != (x + y) & 0xFFFF_FFFF:
            return f"call {call}: {x:#x} + {y:#x} gave {got:#x}"
    return ""


def main() -> int:
    for down, up in SEED_PAIRS:
        for backend in BACKENDS:
            start = time.perf_counter()
            failure = soak(down, up, backend)
            took = time.perf_counter() - start
            label = f"seeds {down}/{up} {backend}"
            if failure:
                print(f"FAIL {label}: {failure}", flush=True)
                return 1
            print(f"ok   {label}: {CALLS} calls in {took:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
