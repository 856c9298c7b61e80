"""``ci/ab_compare.py`` runs two source trees side by side in one process.

That works only while ``src/repro`` imports itself relatively: an absolute
``repro`` import would bind to whichever tree is on ``sys.path``, and both
sides would quietly share it.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"


def test_package_never_imports_itself_absolutely():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n == "repro" or n.startswith("repro.") for n in names):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert offenders == []


def test_head_against_head_smoke():
    out = subprocess.run(
        [sys.executable, str(ROOT / "ci" / "ab_compare.py"), "--a", str(ROOT),
         "--b", str(ROOT), "--blocks", "2", "--requests", "2"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "workload scalar_rt on compiled: 2 blocks of 2 requests, seed 1"
    # the same tree on both sides: same cycles, right answers
    assert "A: median" in lines[1] and "B: median" in lines[2]
    now_a = lines[1].split("sim.now ")[1].split(",")[0]
    now_b = lines[2].split("sim.now ")[1].split(",")[0]
    assert now_a == now_b == "104"
    assert "wrong answers 0" in lines[1] and "wrong answers 0" in lines[2]
    assert "B won" in lines[3]
    # link and engine counters per side, equal on the same tree; no link
    # section on the fault-free integrated link
    assert lines[4] == "  A counters: retransmits 0, nacks 0"
    assert lines[5] == "  B counters: retransmits 0, nacks 0"
    assert len(lines) == 6  # no "differ" line
