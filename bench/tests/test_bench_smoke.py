"""The whole benchmark, briefly: every metric BENCHMARK.json names comes
out with its unit, and the driver's contract holds."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT


def run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def manifest():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_smoke_suite_emits_every_metric(manifest, tmp_path):
    out = tmp_path / "smoke.json"
    proc = run(["--smoke", "--trace", "--out", str(out)])
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
    runs = json.loads(out.read_text())["runs"]
    e2e = {s["name"] for s in manifest["end_to_end"]}
    per_layer = {s["name"]: s["unit"] for s in manifest["per_layer"]}
    seen_layers = set()
    for record in runs:
        assert record["correct"], record
        if record["trace"]:
            seen_layers |= set(record["layers"])
        else:
            assert e2e <= set(record["metrics"]), record["workload"]
            assert all(record["metrics"][m] > 0 for m in e2e)
    assert {r["workload"] for r in runs} == \
        {w["name"] for w in manifest["workloads"]}
    # Every per-layer row exists on this build (all three kernels and
    # rings are still here), and is printed by name with its unit.
    assert set(per_layer) <= seen_layers
    for name, unit in per_layer.items():
        assert any(name in line and line.rstrip().endswith(unit)
                   for line in proc.stdout.splitlines()), name
    for spec in manifest["end_to_end"]:
        assert any(line.split()[:1] == [spec["name"]] and spec["unit"] in line
                   for line in proc.stdout.splitlines()), spec["name"]
    # The budget tables close.
    assert proc.stdout.count("closes within 10%") == 2
    assert "DOES NOT CLOSE" not in proc.stdout
    assert (BENCH / "out" / "trace.json").exists()


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line(manifest, trace):
    proc = run(["--workload", "paced_mix", "--seed", "7", "--seconds", "3",
                "--trace", str(trace)])
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    specs = manifest["per_layer"] if trace else manifest["end_to_end"]
    assert set(last["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        got = last["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_nothing_to_measure_is_an_error_not_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(["--workload", "fwd_small", "--seed", "1", "--seconds", "2",
                "--trace", "0"], cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_a_crashing_workload_fails_instead_of_hanging(monkeypatch):
    sys.path.insert(0, str(BENCH))
    import run as bench_run
    monkeypatch.setattr(bench_run, "CHILD", BENCH / "no_such_child.py")
    record = bench_run.run_workload("fwd_small", 1, 1.0, trace=False,
                                    n_setups=1, probe_seconds=0.0)
    assert record["failed_share"] == 1.0 and not record["correct"]
    assert record["problems"]


def fake_child_result():
    return {"setup_s": 0.4, "attempted": 10, "failed": 0, "reasons": {},
            "effective": {}, "info": {}, "metrics": {"fwd_kfps": 1.0}}


def test_set_up_probes_never_eat_the_measured_runs_time(monkeypatch):
    import types
    sys.path.insert(0, str(BENCH))
    import run as bench_run
    now = [1000.0]
    timeouts = []

    def hanging_probe_spawn(child_args, timeout):
        """Every set-up probe uses its whole timeout; the run is quick."""
        is_probe = "--setup-only" in child_args
        timeouts.append((is_probe, timeout))
        if is_probe:
            now[0] += timeout
            return {"survivors": [], "held_shm": set(),
                    "error": f"hung: no result within {timeout:.0f} s"}
        return {"survivors": [], "held_shm": set(),
                "result": fake_child_result()}

    monkeypatch.setattr(bench_run, "spawn", hanging_probe_spawn)
    monkeypatch.setattr(bench_run, "time",
                        types.SimpleNamespace(monotonic=lambda: now[0]))
    record = bench_run.run_workload("fwd_small", 1, 27.0, trace=False,
                                    n_setups=5, probe_seconds=0.0)
    probes = [t for is_probe, t in timeouts if is_probe]
    assert len(probes) == 4 and max(probes) <= 60.0
    # The measured run is still given its seconds and the reserve.
    assert timeouts[-1][0] is False
    assert timeouts[-1][1] >= 27.0 + bench_run.MAIN_RESERVE_S - 1e-6
    assert not record["correct"]            # hung probes are failures
    # A budget already spent: no probes at all, the run still goes ahead.
    del timeouts[:]
    monkeypatch.setattr(bench_run, "HARD_LIMIT_S",
                        27.0 + bench_run.MAIN_RESERVE_S)
    record = bench_run.run_workload("fwd_small", 1, 27.0, trace=False,
                                    n_setups=5, probe_seconds=0.0)
    assert [is_probe for is_probe, _t in timeouts] == [False]
    assert record["setup_probes_skipped"] == 4 and record["correct"]
    assert record["setup_samples"] == [0.4]


def test_only_the_workloads_own_shm_segments_are_unlinked():
    from multiprocessing import shared_memory
    sys.path.insert(0, str(BENCH))
    import run as bench_run
    before = bench_run.shm_segments()
    # Somebody else on the host creates a segment meanwhile and uses it.
    foreign = shared_memory.SharedMemory(create=True, size=4096)
    # One the workload's killed processes had mapped, and one that
    # nobody maps any more but that cannot be pinned on the workload.
    held = shared_memory.SharedMemory(create=True, size=4096)
    orphan = shared_memory.SharedMemory(create=True, size=4096)
    try:
        assert {foreign.name, held.name} <= bench_run.mapped_shm(["self"])
        held.close()
        orphan.close()
        leaked = bench_run.orphaned_shm(before, {held.name})
        assert foreign.name not in leaked
        assert held.name in leaked and orphan.name in leaked
        now = bench_run.shm_segments()
        assert foreign.name in now and orphan.name in now    # untouched
        assert held.name not in now                          # unlinked
    finally:
        foreign.close()
        for seg in (foreign, orphan, held):
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
