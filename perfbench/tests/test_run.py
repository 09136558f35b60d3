import json
import shutil
import subprocess
import sys
import types

import pytest

from conftest import BENCH, ROOT


class TinyWorkload:
    """A stand-in workload whose output check can be made to fail."""

    name = "paper_tables"

    def __init__(self, broken: bool) -> None:
        self.broken = broken

    def setup(self, seed):
        return {"seed": seed}

    def run(self, inputs, k, rec=None):
        from workloads import Outcome

        return Outcome(wall_s=0.01 + k, items=10, phases={},
                       outputs={"v": inputs["seed"]}, attempted=4)

    def check(self, inputs, outcome):
        from workloads import Check

        return [Check("tiny output", 4, 1 if self.broken else 0)]

    def same(self, a, b):
        return a.outputs == b.outputs

    def report(self, outcome):
        return {}

    def teardown(self, inputs):
        return None


@pytest.mark.parametrize("broken, code", [(False, 0), (True, 1)])
def test_failing_output_check_exits_nonzero(monkeypatch, capsys, tmp_path, broken, code):
    import run
    import workloads

    monkeypatch.setitem(workloads.WORKLOADS, "paper_tables",
                        lambda: TinyWorkload(broken))
    args = types.SimpleNamespace(workload="paper_tables", seed=3, seconds=0.0, trace=0)
    assert run.measure(args, tmp_path) == code
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is (not broken)
    assert last["failed"] == (1 if broken else 0)
    assert last["attempted"] == 4
    assert set(last["metrics"]) == {"items_per_s", "setup_s", "peak_rss_mb"}


def test_without_program_sources_exits_nonzero_silently(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "net_storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src/repro" in proc.stderr


def test_probes_record_and_restore():
    import probes
    from repro.core.ring import RingSpace
    from repro.stats.trials import CellSpec, run_cell
    from repro.sweeps import runner
    from spans import SpanRecorder

    originals = (RingSpace.__dict__["random"], runner.run_cell)
    rec = SpanRecorder()
    byte_totals = []
    with probes.installed(rec, byte_totals):
        with rec.span("root"):
            runner.run_cell(CellSpec("ring", 256, 2), 4, seed=1)
    assert (RingSpace.__dict__["random"], runner.run_cell) == originals
    table = rec.table()
    assert table.calls("stats.run_cell") == 1
    assert table.calls("core.ring.build") == 4
    assert table.calls("core.multitrial.run_fused") == 1
    assert table.main_self_total() == pytest.approx(table.root_wall())
    # the same call untraced gives the same distribution
    assert run_cell(CellSpec("ring", 256, 2), 4, seed=1).counts


def test_capture_cells_keeps_per_trial_maxima():
    import probes
    from repro.stats.trials import CellSpec
    from repro.sweeps import runner

    cells = []
    with probes.capture_cells(cells):
        dist = runner.submit_cell(CellSpec("ring", 128, 2), 5, seed=9, cache="off")
    (spec, trials, seed, maxima, got), = cells
    assert (spec.n, trials, seed) == (128, 5, 9)
    assert len(maxima) == 5 and got is dist
    assert sum(dist.counts.values()) == 5
