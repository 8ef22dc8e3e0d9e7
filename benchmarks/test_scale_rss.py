"""Peak-RSS ceiling of the 250k-node SoA build.

The vectorised build keeps per-node memory small: a 250k-node SoA
point (synthesis, estimation, construction and a 2-day run) peaks
around 530 MB on a 2-vCPU x86-64 Linux VM.  A peak over the ceiling
means per-node memory regressed to object-graph territory.  Timing is
not asserted here; ``python -m bench`` measures it in calibrated
reference seconds.

The point runs in a fresh subprocess because peak RSS (``getrusage``)
is a process-lifetime high-water mark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Peak-RSS ceiling for the 250k-node SoA scale point (MB).
RSS_CEILING_MB = 2048.0


def test_250k_soa_build_stays_under_rss_ceiling():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.scale",
         "--nodes", "250000", "--backend", "soa", "--json"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    point = json.loads(proc.stdout)
    assert point["nodes"] == 250_000 and point["backend"] == "soa"
    assert point["events"] > 0
    assert point["peak_rss_mb"] <= RSS_CEILING_MB, (
        f"250k-node soa point peaked at {point['peak_rss_mb']:.0f} MB "
        f"(ceiling {RSS_CEILING_MB:.0f} MB)"
    )
