#!/usr/bin/env bash
# CI-style gate: tier-1 tests + greenlint in strict mode.
#
# Usage:  tools/check.sh
#
# Exits non-zero on the first failing stage.  This is the same pair of
# checks the test suite itself enforces (tests/test_lint_self.py runs
# the linter as a tier-1 test), packaged for pre-push / CI use.

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== placement benches (energy shapes of the extension placements) =="
# testpaths is tests/, so no other stage runs these.  Each asserts the
# energy shape of a placement family (sampling hybrid, cluster strong
# scaling, Cinema image database, 3-D ray-casting, deep-memory dump
# staging); together they take about 12 s and write no files.
python -m pytest -q benchmarks/bench_abl_sampling.py \
    benchmarks/bench_abl_cluster_scaling.py benchmarks/bench_ext_cinema.py \
    benchmarks/bench_ext_volume3d.py benchmarks/bench_ext_deepmem.py

echo "== greenlint (strict: warnings fail too) =="
python -m repro.cli lint --strict src/repro

echo "== greenlint whole-program (GL6-GL18, baselined) =="
# On failure, leave the machine-readable findings where CI can pick
# them up as an artifact (see .github/workflows/ci.yml) — both the
# stable JSON contract and SARIF for code-host diff annotation.
PROJECT_RULES=GL6,GL7,GL8,GL9,GL10,GL11,GL12,GL13,GL14,GL15,GL16,GL17,GL18
mkdir -p tools/out
if ! python -m repro.cli lint --strict \
    --select "$PROJECT_RULES" \
    --baseline tools/greenlint-baseline.json \
    src tests tools; then
  python -m repro.cli lint --json \
      --select "$PROJECT_RULES" \
      src tests tools > tools/out/greenlint-findings.json || true
  python -m repro.cli lint --format sarif \
      --select "$PROJECT_RULES" \
      src tests tools > tools/out/greenlint-findings.sarif || true
  echo "findings written to tools/out/greenlint-findings.json" \
       "and tools/out/greenlint-findings.sarif" >&2
  exit 1
fi

echo "== greenlint runtime budget (full rule set, warm cache) =="
# The linter is a tier-1 test, so its own latency is a gated quantity:
# a full 18-rule run over src/repro must finish inside the budget.  The
# first run above has warmed the per-file cache; the JSON stats double
# as a CI artifact next to the findings file.
python - <<'PY'
import json
import time

from repro.lint import lint_paths

BUDGET_S = 6.0
start = time.perf_counter()
result = lint_paths(["src/repro"],
                    cache_dir="tools/out/lint-cache")
elapsed = time.perf_counter() - start
stats = {
    "elapsed_s": round(elapsed, 3),
    "budget_s": BUDGET_S,
    "files_checked": result.files_checked,
    "cache": {"hits": result.cache_hits, "misses": result.cache_misses},
}
with open("tools/out/lint-cache-stats.json", "w") as fh:
    json.dump(stats, fh, indent=2)
    fh.write("\n")
print(f"lint src/repro: {elapsed:.2f}s (budget {BUDGET_S:.1f}s, "
      f"{result.cache_hits} hits / {result.cache_misses} misses)")
raise SystemExit(0 if elapsed <= BUDGET_S else 1)
PY

echo "== serve smoke (in-process service, coalescing) =="
python - <<'PY'
import threading

from repro.service import ExperimentService, ServiceConfig

with ExperimentService(ServiceConfig(jobs=2)) as service:
    # A storm of identical concurrent queries must coalesce onto one
    # underlying compute; repeats after it must hit the memory tier.
    n_threads = 8
    barrier = threading.Barrier(n_threads)

    def request():
        barrier.wait()
        service.serve("fig4")

    threads = [threading.Thread(target=request) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    repeat = service.serve("fig4")
    stats = service.stats()

print(f"serve: computed={stats['computed']} coalesced={stats['coalesced']} "
      f"memory_hits={stats['memory']['hits']} repeat_source={repeat.source}")
assert stats["computed"] == 1, stats
assert stats["coalesced"] + stats["memory"]["hits"] == n_threads, stats
assert repeat.source == "memory", repeat
PY

echo "== cluster smoke (router + shards, byte-identity, one-hop hot read) =="
python - <<'PY'
import http.client
import json
import tempfile

from repro.cluster import ClusterConfig, LocalCluster
from repro.experiments.engine import warm_lab
from repro.rng import DEFAULT_SEED
from repro.service.client import ServiceClient
from repro.service.http import result_digest
from repro.experiments.figures import Lab
from repro.experiments.registry import run_experiment


def shard_requests(stats):
    return {name: shard["requests"] for name, shard in stats["shards"].items()}


def raw_run(address, experiment_id):
    """One /run body off the router's socket, as stock http.client reads it."""
    conn = http.client.HTTPConnection(*address, timeout=60)
    try:
        conn.request("POST", "/run", body=json.dumps(
            {"experiment": experiment_id, "seed": DEFAULT_SEED}))
        reply = conn.getresponse()
        assert reply.status == 200, reply.status
        return reply.read()
    finally:
        conn.close()


with tempfile.TemporaryDirectory() as cache_dir:
    warm_lab(DEFAULT_SEED, cache_dir)
    # Threshold 1: the repeat's cached hit promotes fig4 and the router
    # holds that reply, so the third read must make no shard hop.
    config = ClusterConfig(shards=2, jobs=1, cache_dir=cache_dir,
                           hot_threshold=1)
    with LocalCluster(config) as cluster:
        client = ServiceClient(*cluster.router_address)
        reply = client.run("fig4", DEFAULT_SEED)
        repeat = client.run("fig4", DEFAULT_SEED)
        stats = client.stats()
        third = client.run("fig4", DEFAULT_SEED)
        # The router writes a held reply from stored bytes: two reads off
        # its socket must be byte-identical, canonical JSON.
        bodies = [raw_run(cluster.router_address, "fig4") for _ in range(2)]
        after = client.stats()
        client.close()

expected = result_digest(run_experiment("fig4", Lab(seed=DEFAULT_SEED)))
print(f"cluster: shards={len(stats['shards'])} "
      f"first={reply['source']} repeat={repeat['source']} "
      f"computed={stats['totals']['computed']} "
      f"shard requests before/after held reads={shard_requests(stats)}/"
      f"{shard_requests(after)}")
assert reply["digest"] == expected, (reply["digest"], expected)
assert repeat["digest"] == expected
assert third["digest"] == expected
assert stats["totals"]["computed"] == 1, stats["totals"]
assert repeat["source"] == "memory", repeat["source"]
assert (third["source"], third["attempts"]) == ("memory", 1), third
assert shard_requests(after) == shard_requests(stats), "a held read hopped"
held = json.loads(bodies[0])
print(f"held bodies: {len(bodies[0])} bytes, identical={bodies[0] == bodies[1]} "
      f"source={held['source']}")
assert bodies[0] == bodies[1], "held bodies differ"
assert bodies[0] == json.dumps(held, sort_keys=True).encode(), "not canonical"
assert (held["source"], held["digest"]) == ("memory", expected), held
PY

echo "== cli cluster smoke (repro cluster + repro query processes, ^C, TERM) =="
# The deployment perfbench drives: the CLI forks shard processes, a
# separate `repro query` process reads through the router, and one
# SIGINT, or one SIGTERM, must tear the whole tree down with exit
# status 0.
python - <<'PY'
import json
import os
import re
import select
import signal
import subprocess
import sys
import tempfile
import time

from repro.experiments.figures import Lab
from repro.experiments.registry import run_experiment
from repro.service.http import result_digest

STARTUP = re.compile(r"routing \d+ experiments on http://[\d.]+:(\d+) ")
TIMEOUT_S = 60.0


def tree(pid):
    """``pid`` and its descendants (Linux /proc)."""
    out, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        out.append(current)
        for task in os.listdir(f"/proc/{current}/task"):
            with open(f"/proc/{current}/task/{task}/children") as fh:
                frontier.extend(int(c) for c in fh.read().split())
    return out


def alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def smoke(cache_dir, signum):
    """Start the cluster, query it, stop it with ``signum``."""
    cluster = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "cluster", "--port", "0",
         "--cache", cache_dir],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONUNBUFFERED="1"))
    try:
        port = None
        deadline = time.monotonic() + TIMEOUT_S
        while port is None and time.monotonic() < deadline:
            ready, _, _ = select.select([cluster.stdout], [], [], 1.0)
            if ready:
                line = cluster.stdout.readline()
                if not line:
                    break
                match = STARTUP.search(line)
                port = int(match.group(1)) if match else None
        assert port is not None, "repro cluster printed no startup line"
        query = subprocess.run(
            [sys.executable, "-m", "repro.cli", "query", "fig10", "--json",
             "--port", str(port)],
            capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
        reply = json.loads(query.stdout)
        assert reply["digest"] == expected, (reply["digest"], expected)
        processes = tree(cluster.pid)
        assert len(processes) >= 3, processes  # the CLI and its shards
        cluster.send_signal(signum)
        status = cluster.wait(timeout=TIMEOUT_S)
        left = [pid for pid in processes if alive(pid)]
    finally:
        if cluster.poll() is None:
            for pid in tree(cluster.pid):
                os.kill(pid, signal.SIGKILL)
            cluster.wait()
        cluster.stdout.close()
    print(f"cli cluster {signal.Signals(signum).name}: "
          f"shard processes={len(processes) - 1} source={reply['source']} "
          f"exit={status} left={left}")
    assert status == 0, status
    assert not left, f"processes outlived {signal.Signals(signum).name}: {left}"


expected = result_digest(run_experiment("fig10", Lab()))
with tempfile.TemporaryDirectory() as cache_dir:
    for signum in (signal.SIGINT, signal.SIGTERM):
        smoke(cache_dir, signum)
PY

echo "== cache-directory smoke (repro run --cache, corrupt files recompute) =="
# The one check that sends all 18 results through the fork pool's pipe
# (tier-1 sends 2 ids).  With the last byte of every entry and of the
# Lab snapshot flipped, the next run must miss all 18 and print the
# same text; an unusable cache directory must still exit 0.
python - <<'PY'
import glob
import os
import subprocess
import sys
import tempfile


def run(*args):
    return subprocess.run([sys.executable, "-m", "repro.cli", "run", *args],
                          capture_output=True, text=True, timeout=600)


def run_all(cache, *extra):
    """(cache line, result text) of one `repro run all --cache`."""
    proc = run("all", "--cache", cache, *extra)
    assert proc.returncode == 0, proc.stderr
    head, _, text = proc.stdout.partition("\n")
    return head, text


with tempfile.TemporaryDirectory() as tmp:
    cache = os.path.join(tmp, "cache")
    head, cold = run_all(cache, "--jobs", "2")
    assert head == "cache: 0 hit(s), 18 miss(es)", head
    files = (glob.glob(os.path.join(cache, "*.pkl"))
             + glob.glob(os.path.join(cache, "lab-*.snap")))
    assert len(files) == 19, files
    for path in files:
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)[0]
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last ^ 0x01]))
    head, recomputed = run_all(cache, "--jobs", "2")
    assert head == "cache: 0 hit(s), 18 miss(es)", head
    assert recomputed == cold, "recomputed text differs"
    head, loaded = run_all(cache)
    assert head == "cache: 18 hit(s), 0 miss(es)", head
    assert loaded == cold, "loaded text differs"
    not_a_dir = os.path.join(tmp, "file")
    open(not_a_dir, "wb").close()
    proc = run("fig4", "--cache", os.path.join(not_a_dir, "sub"))
    assert proc.returncode == 0, proc.stderr
print(f"cache dir: {len(files)} files flipped -> 18 misses, same text; "
      "18 hits on reload; unusable --cache exits 0")
PY

echo "== cluster benchmark gate (committed JSON self-consistency) =="
# The committed BENCH_serve.json must pass its own cluster gate: the
# storm computed exactly once cluster-wide, digests agree across
# cluster sizes, and the scaling factor clears the core-aware floor
# recorded alongside it.  CI additionally compares a fresh run against
# this baseline (see .github/workflows/ci.yml, serve-regression).
python benchmarks/compare_cluster.py \
    benchmarks/output/BENCH_serve.json benchmarks/output/BENCH_serve.json

echo "== perf smoke (run_all under time and peak-RSS ceilings) =="
python - <<'PY'
import os
import resource
import time
from repro.experiments.registry import run_all

# Raw-speed ceiling: with the fused kernels, science cache, and memoized
# Lab the suite's first in-process run lands around 2 s on the
# reference container (1.9-2.1 s over three runs; 14.77 s at the
# pre-optimization baseline); tripping 3 s means a real regression, not
# scheduler noise.  Shared CI runners are far noisier than the reference
# container, so the workflow raises the ceiling via REPRO_PERF_CEILING_S
# instead of weakening the default.
CEILING_S = float(os.environ.get("REPRO_PERF_CEILING_S", "3.0"))
# Peak RSS of this process, fixed (no override): one buffer per dumped
# field puts a fresh run-all at ~282 MiB on the reference container
# (482 MiB when each dumped field was held twice, as a snapshot and as
# a container blob).
RSS_CEILING_MIB = 384
start = time.perf_counter()
run_all()
elapsed = time.perf_counter() - start
rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"run_all: {elapsed:.2f}s (ceiling {CEILING_S:.1f}s), "
      f"peak RSS {rss_mib:.0f} MiB (ceiling {RSS_CEILING_MIB} MiB)")
raise SystemExit(0 if elapsed <= CEILING_S
                 and rss_mib <= RSS_CEILING_MIB else 1)
PY

echo "All checks passed."
