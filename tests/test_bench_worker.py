"""The benchmark's worker process against the program as it stands: the
micro-battery and a traced suite round read names, call shapes and memo
dicts of the program from outside it, so a change to any of them shows
here rather than only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"


def run_worker(job: dict) -> dict:
    job = dict(job, src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(WORKER), json.dumps(job)], capture_output=True,
                          text=True, timeout=120, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_micro_battery_checks_hold():
    result = run_worker({"kind": "micro", "seed": 1})
    failed = [c for c in result["checks"] if not c[1]]
    assert result["checks"] and not failed, failed


def test_traced_suite_round_writes_spans(tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = run_worker({"kind": "suite", "ops": [["m-split-2", 0], ["chain-regroup", 1]],
                         "trace": str(spans)})
    assert [op[2] for op in result["ops"]] == ["pass", "pass"]
    lines = [json.loads(line) for line in spans.read_text(encoding="utf-8").splitlines()]
    assert any("name" in line for line in lines)
