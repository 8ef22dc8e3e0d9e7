"""Every experiment that simulates wires each run through ``prepare``.

So the ambient state the CLI's ``--faults`` and ``--trace`` install
reaches every run of every experiment, serially and on a process pool:
under ``fault_injection(plan)`` each run installs the plan, and under
``trace_output(path)`` each run writes its own trace file.  The plan
crashes every node often enough that each run's trace records at least
one ``fault.crash`` -- the visible proof that the run installed it.
(E15's grid points carry their own plans, which win over the ambient
one, so its runs are held to recording some ``fault.*`` event.)
"""

import pytest

from repro.core.scheme import SchemeRuntime
from repro.experiments import EXPERIMENTS
from repro.experiments.config import DAY, Settings
from repro.experiments.runner import fault_injection, trace_output
from repro.faults.plan import FaultPlan

#: E1 and E2 describe the trace; every other experiment simulates
SIMULATING = [exp_id for exp_id in EXPERIMENTS if exp_id not in ("E1", "E2")]

SETTINGS = Settings.fast().with_(seeds=(1,), duration=DAY / 3)

PLAN = FaultPlan(crash_rate_per_day=12.0, mean_downtime_s=600.0,
                 crash_scope="all")


def _run_faulted_and_traced(exp_id, jobs, directory):
    directory.mkdir()
    with trace_output(directory / "run.jsonl") as sink, fault_injection(PLAN):
        EXPERIMENTS[exp_id](SETTINGS, jobs=jobs)
    return sink


@pytest.mark.parametrize("exp_id", SIMULATING)
def test_every_run_installs_the_plan_and_writes_its_trace(exp_id, tmp_path,
                                                         monkeypatch):
    runs = []
    original = SchemeRuntime.run

    def counting_run(self, until=None):
        runs.append(self)
        return original(self, until=until)

    monkeypatch.setattr(SchemeRuntime, "run", counting_run)
    serial = _run_faulted_and_traced(exp_id, 1, tmp_path / "serial")
    monkeypatch.setattr(SchemeRuntime, "run", original)
    pooled = _run_faulted_and_traced(exp_id, 2, tmp_path / "pooled")

    assert runs, f"{exp_id} ran no simulation"
    assert len(serial.entries) == len(runs)
    assert ([entry["path"] for entry in pooled.entries]
            == [entry["path"] for entry in serial.entries])
    fault_record = '"kind": "fault.' if exp_id == "E15" else '"fault.crash"'
    for sink in (serial, pooled):
        for entry in sink.entries:
            path = (sink.output if len(sink.entries) == 1
                    else sink.path.parent / entry["path"])
            assert path.exists(), f"{exp_id}: {entry} wrote no trace"
            assert fault_record in path.read_text(encoding="utf-8"), (
                f"{exp_id}: {entry} ran without the fault plan"
            )
