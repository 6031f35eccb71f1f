"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import calibration, spec, stats, tracing  # noqa: E402
from perfbench.workloads import workloads  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


# -- percentiles ------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 10_001))
    p999 = stats.percentile(values, 0.999)
    assert p999 == 9990
    assert sum(1 for v in values if v > p999) == 10
    # One sample fewer and p99.9 has only 9 beyond it: not reported.
    assert stats.percentile(values[:-1], 0.999) is None
    assert stats.percentile(list(range(1000)), 0.99) is not None
    assert stats.percentile(list(range(1000)), 0.999) is None
    assert stats.percentile([], 0.5) is None


def test_failed_requests_sit_beyond_every_percentile():
    values = [1.0] * 980 + [float("inf")] * 20
    assert stats.percentile(values, 0.5) == 1.0
    assert stats.percentile(values, 0.99) == float("inf")


# -- calibration ----------------------------------------------------------------


def test_nominal_seconds_rescale_each_stretch_by_the_loops_around_it():
    cal = calibration.Calibration()
    # Loops at 0, 1, 2, 3, 4 s: 4 ms, 4 ms, one hit by an interrupt, 8 ms, 8 ms.
    loops = [0.004, 0.004, 0.100, 0.008, 0.008]
    cal.samples = [(float(i), loop) for i, loop in enumerate(loops)]
    assert cal.host_s == pytest.approx(4.0 - sum(loops[:-1]))
    # Smoothed loop times 4, 4, 8, 8, 8 ms; stretch loop times 4, 6, 8, 8 ms.
    own = [1.0 - loop for loop in loops[:-1]]
    expected = sum(o * calibration.NOMINAL_S / t for o, t in zip(own, (0.004, 0.006, 0.008, 0.008)))
    assert cal.nominal_s == pytest.approx(expected)


def test_ticking_samples_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    cal = calibration.Calibration()
    with cal.ticking():
        end = time.perf_counter() + 3.5 * calibration.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(cal.samples) >= 4  # entry, three ticks, exit
    assert 0.0 < cal.host_s < 3.5 * calibration.PERIOD_S + 0.1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- failures -------------------------------------------------------------------


def test_error_ratio_counts_timeouts_and_refusals():
    from repro.workload.timecurl import TimecurlSample

    def sample(ok, status, error=None):
        return TimecurlSample("svc", 0.0, 0.1, 0.0, status, ok, error)

    samples = [
        sample(True, 200),
        sample(True, 200),
        sample(False, 0, "ConnectionTimeout"),
        sample(False, 0, "ConnectionRefused"),
        sample(False, 503),
    ]
    failed = sum(1 for s in samples if stats.is_failure(s))
    assert failed == 3
    assert stats.error_ratio(failed, len(samples)) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        stats.error_ratio(0, 0)


# -- self time ------------------------------------------------------------------


def test_self_time_nested_and_back_to_back_children():
    # root [0, 10]
    #   a [1, 3]    b [3, 6]   (back to back)
    #                 c [4, 5] (nested in b)
    #   d [7, 9] and e [8, 9.5] overlap; e runs past its parent's end
    starts = [0.0, 1.0, 3.0, 4.0, 7.0, 8.0]
    ends = [10.0, 3.0, 6.0, 5.0, 9.0, 9.5]
    parents = [-1, 0, 0, 2, 0, 0]
    own = tracing.self_times(starts, ends, parents)
    # root: covered by [1,6] and [7,9.5] -> 7.5 of 10
    assert own == pytest.approx([2.5, 2.0, 2.0, 1.0, 2.0, 1.5])


def test_layer_self_times_give_the_kernel_the_uncovered_rest():
    log = tracing.SpanLog()
    spans = [  # name, start, end, parent
        ("net.host", 1.0, 2.0, -1),
        ("net.openflow:FlowTable.lookup", 1.2, 1.5, 0),
        ("core", 3.0, 4.0, -1),
        ("sim", 5.0, 5.5, -1),
    ]
    for name, start, end, parent in spans:
        log.name_ids.append(log.name_id(name))
        log.starts.append(start)
        log.ends.append(end)
        log.parents.append(parent)
    layers = tracing.layer_self_times(log, wall_s=10.0)
    assert layers["net.host"] == pytest.approx(0.7)
    assert layers["net.openflow"] == pytest.approx(0.3)
    assert layers["core"] == pytest.approx(1.0)
    # 7.5 s no root span covers, plus the 0.5 s sim dispatch.
    assert layers["sim"] == pytest.approx(8.0)
    assert sum(layers.values()) == pytest.approx(10.0)


def test_layer_names_follow_modules():
    assert tracing.layer_of("repro.net.openflow.table") == "net.openflow"
    assert tracing.layer_of("repro.net.host") == "net.host"
    assert tracing.layer_of("repro.net.packet") == "net"
    assert tracing.layer_of("repro.sim.parallel.coordinator") == "sim.parallel"
    assert tracing.layer_of("repro.sim.environment") == "sim"
    assert tracing.layer_of("repro.core.federation.state") == "core.federation"
    assert tracing.layer_of("repro.core.dispatcher") == "core"
    assert tracing.layer_of("repro.k8s.kubeproxy") == "k8s"
    assert tracing.layer_of("heapq") == tracing.UNATTRIBUTED
    assert tracing.layer_of(None) == tracing.UNATTRIBUTED


def test_tracer_restores_the_program(tmp_path):
    from repro.net.openflow.table import FlowTable
    from repro.sim.environment import Environment

    before = (Environment.run, Environment.run_below, FlowTable.lookup)
    tracer = tracing.Tracer().install()
    try:
        assert FlowTable.lookup is not before[2]
        env = Environment()
        fired = []

        def proc():
            yield env.timeout(1.0)
            fired.append(env.now)

        env.process(proc())
        env.call_at(0.5, fired.append, "cb")
        env.run()
    finally:
        tracer.uninstall()
    assert (Environment.run, Environment.run_below, FlowTable.lookup) == before
    assert fired == ["cb", 1.0]
    names = {tracer.log.names[i] for i in tracer.log.name_ids}
    assert tracing.UNATTRIBUTED in names  # this test's own callbacks
    out = tmp_path / "t.json"
    assert tracing.write_chrome_trace(tracer.log, out, 0.0) == len(tracer.log)
    events = json.loads(out.read_text())["traceEvents"]
    assert len(events) == len(tracer.log) and events[0]["ph"] == "X"


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_matches_the_spec():
    recorded = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert recorded == spec.benchmark_json(workloads())
    names = [m["name"] for m in recorded["end_to_end"] + recorded["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in recorded["end_to_end"])


# -- the command -----------------------------------------------------------------


def _run(*args: str, cwd: pathlib.Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        RUN[:1] + [str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("name", sorted(workloads(small=True)))
def test_reduced_run_passes_and_forgeries_fail(name, tmp_path):
    common = ("--workload", name, "--small", "--seconds", "0", "--trace", "0")
    code, out = _run(*common)
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    assert result["attempted"] >= 2 and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in spec.END_TO_END}
    for forgery in ("md5", "accounting"):
        code, out = _run(*common, "--forge", forgery)
        result = json.loads(out.strip().splitlines()[-1])
        assert code == 1 and result["correct"] is False, forgery
        assert "CHECK FAILED" in out


def test_reduced_traced_run(tmp_path):
    code, out = _run("--workload", "federation-sharded", "--small", "--trace", "1",
                     "--trace-dir", str(tmp_path))
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    assert set(result["metrics"]) == {m.name for m in spec.PER_LAYER}
    assert result["metrics"]["trace.attributed_ratio"]["value"] >= 0.95
    assert result["metrics"]["core.migration.completed"]["value"] == 2
    assert list(tmp_path.glob("*.trace.json"))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, out = _run("--workload", "replay-warm", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in out
