"""Self-checks of the benchmark: short runs of every workload.

Run from the checkout root (they take a few minutes)::

    python3 -m pytest -q perfbench

Each test runs ``perfbench/run.py`` as a benchmark run does, from the
root of a scratch checkout that holds copies of the benchmark files and
links the program, so a test can corrupt the reference without touching
the committed one.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHORT_S = 4


@pytest.fixture
def checkout(tmp_path):
    """A checkout holding the benchmark files, with the program linked in."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for name in ("src", "benchmarks"):
        os.symlink(os.path.join(ROOT, name), tmp_path / name)
    return tmp_path


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _start(cwd, workload: str, trace: int = 0, seconds: int = SHORT_S):
    return subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True)


def _finish(proc) -> tuple[dict, str]:
    out, _ = proc.communicate(timeout=180)
    assert proc.returncode == 0, out[-2000:]
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_unit_and_samples(checkout, workload, trace):
    result, out = _finish(_start(checkout, workload, trace))
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        line = re.search(rf"^#\s+{re.escape(metric['name'])}\s+(\S+)\s+"
                         rf"{re.escape(metric['unit'])}\s+n=(\d+)", out,
                         re.MULTILINE)
        assert line, metric["name"]
        if not trace:
            assert got["value"] > 0 and int(line.group(2)) >= 1
    assert "# diagnostics " in out


def test_corrupt_reference_digest_fails_ops(checkout):
    path = checkout / "perfbench" / "reference.json"
    ref = json.loads(path.read_text())
    ref["digests"][3] = "0" * 64
    path.write_text(json.dumps(ref))
    result, _ = _finish(_start(checkout, "reproduce"))
    assert not result["correct"]
    # Every fresh child, warm round and reload hands back the bad id.
    assert result["failed"] == result["attempted"]


def _shard_pids(cwd) -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline") as fh:
                argv = fh.read().split("\0")
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            if os.readlink(f"/proc/{entry}/cwd") != str(cwd):
                continue
            with open(f"/proc/{ppid}/cmdline") as fh:
                parent = fh.read().split("\0")
        except (OSError, ValueError, IndexError):
            continue
        if "cluster" in argv and "cluster" in parent:
            pids.append(int(entry))
    return pids


def test_killed_shard_fails_ops(checkout):
    proc = _start(checkout, "serve-hot", seconds=12)
    deadline = time.monotonic() + 120
    while not _shard_pids(checkout) and time.monotonic() < deadline:
        time.sleep(0.2)
    shards = _shard_pids(checkout)
    assert shards, "cluster never started"
    time.sleep(9)  # past start-up and promotion warm-up, into the load
    os.kill(shards[0], signal.SIGKILL)
    result, out = _finish(proc)
    assert not result["correct"]
    assert result["failed"] > 0, out[-3000:]
