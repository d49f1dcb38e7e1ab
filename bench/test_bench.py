"""Smoke test of the benchmark at tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from delcodes import channel, presets  # noqa: E402
import tracer  # noqa: E402
from tracer import ROOT as OP, Tracer  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in CONTRACT["workloads"]]


def tiny(name, seed=3):
    """The workload, shrunk so that a run takes a few seconds: construct
    leaves out c05's book, which takes about 5 s to build."""
    if name == "construct":
        return workloads.Construct(seed, recipes=workloads.BOOKS[:3])
    return workloads.WORKLOADS[name](seed)


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_workload_names_match_contract():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_printed(name):
    result = run.timed_run(tiny(name), 0.05, setup_samples=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert units(result["metrics"]) == {
        m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_every_per_layer_metric_printed(name, tmp_path):
    result = run.traced_run(tiny(name), 0.05, out_dir=tmp_path)
    assert result["correct"]
    assert units(result["metrics"]) == {
        m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    header = json.loads(next(tmp_path.glob("trace-*.jsonl")).open().readline())
    assert header["workload"] == name and header["spans_kept"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_self_times_within_op_wall(name):
    workload = tiny(name)
    workload.setup()
    tally = workloads.Tally()
    sampler = run.host.Sampler()
    tr = Tracer(clock=sampler.clock)
    with tr.installed():
        run.closed_loop(workload, 0.05, tally, sampler, tr)
    stats = tr.take()
    assert stats[OP].calls >= 1
    self_total = sum(st.self_s for st in stats.values())
    assert all(st.self_s >= -1e-9 for st in stats.values())
    assert self_total <= stats[OP].total_s <= tally.busy_s


def test_tracer_restores_the_package():
    original = channel.attack
    with Tracer().installed():
        assert channel.attack is not original
    assert channel.attack is original


def test_wrong_sweep_pin_counts_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.PINS, "sweep.hirate", "0" * 64)
    result = run.timed_run(tiny("sweep"), 0.05, setup_samples=1)
    assert not result["correct"] and result["failed"] >= 1


def test_wrong_book_pin_counts_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.PINS, "book.highnoise", "0" * 64)
    result = run.timed_run(tiny("construct"), 0.05, setup_samples=1)
    assert not result["correct"] and result["failed"] >= 1


def test_wrong_certify_expectation_counts_as_failed(monkeypatch):
    def shifted(self, msg, pattern):
        return tuple((v + 1) % self.spec.q for v in msg)

    monkeypatch.setattr(workloads.Certify, "_op", shifted)
    result = run.timed_run(tiny("certify"), 0.05, setup_samples=1)
    assert result["failed"] == result["attempted"] >= 1


def test_book_pins_match_the_desk_specs():
    for scheme in presets.SCHEMES:
        book = presets.make_scheme_spec(scheme).inner
        assert workloads.book_digest(book) == workloads.PINS[f"book.{scheme}"]


def test_wrong_seeded_flag_counts_as_failed():
    highnoise = workloads.desk_book("highnoise", False)
    result = run.timed_run(workloads.Construct(3, recipes=(highnoise,)), 0.05,
                           setup_samples=1)
    assert result["failed"] == result["attempted"] >= 1


def test_missing_layer_function_is_fatal(monkeypatch, tmp_path):
    original = channel.attack
    layers = list(tracer.LAYERS)
    layers[2] = ("delcodes.seqkit", "_no_such_function", *layers[2][2:])
    monkeypatch.setattr(tracer, "LAYERS", tuple(layers))
    with pytest.raises(LookupError, match="_no_such_function"):
        run.traced_run(tiny("certify"), 0.05, out_dir=tmp_path)
    assert channel.attack is original


def test_layer_never_called_is_fatal(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.Certify, "layers",
                        workloads.Certify.layers + ("seqkit.multi_lcs",))
    with pytest.raises(RuntimeError, match="seqkit.multi_lcs"):
        run.traced_run(tiny("certify"), 0.05, out_dir=tmp_path)


def test_bare_tree_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
