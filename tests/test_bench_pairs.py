"""scripts/bench_pairs.py: the per-workload summary, with perfbench stubbed out."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
END_TO_END = ("run_s", "frames_per_s", "setup_s", "peak_rss_mb", "ok_rate")


def load_script():
    path = os.path.join(ROOT, "scripts", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_metrics(side, seed):
    # the change is faster on every seed but the last, and never fails
    faster = side == "change" and seed != 3
    run_s = 0.1 * seed + (0.5 if faster else 1.0)
    return {
        "run_s": run_s,
        "frames_per_s": 1000.0 / run_s,
        "setup_s": 0.09,
        "peak_rss_mb": 50.0 + (seed if side == "change" else 0.0),
        "ok_rate": 1.0,
    }


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """Runs main over seeds 1..3 on stubbed perfbench; returns (report, benchmark path)."""
    script = load_script()
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        (change / "BENCHMARK.json").write_text(fh.read(), encoding="utf-8")
    sides = {str(parent): "parent", str(change): "change"}

    def stub(checkout, workload, seed, seconds, trace):
        return {
            "context": {"nproc": 2, "python": "3", "numpy": "2", "scipy": "1",
                        "git_commit": sides[checkout], "src_sha256": "0"},
            "correct": True,
            "metrics": fake_metrics(sides[checkout], seed),
        }

    def no_subprocess(*args, **kwargs):
        raise AssertionError("bench_pairs started a subprocess")

    monkeypatch.setattr(script, "run_perfbench", stub)
    monkeypatch.setattr(script.subprocess, "run", no_subprocess)

    def run(out_name="bench.json"):
        out = tmp_path / out_name
        argv = ["--parent", str(parent), "--change", str(change), "--workloads", "example",
                "--seeds", "1,2,3", "--seconds", "1", "--out", str(out)]
        assert script.main(argv) == 0
        return json.loads(out.read_text(encoding="utf-8"))

    return run, change / "BENCHMARK.json"


def test_summary_has_medians_ratio_and_wins_per_metric(bench):
    run, _ = bench
    summary = run()["workloads"]["example"]["summary"]
    assert set(summary) == set(END_TO_END)
    run_s = summary["run_s"]
    assert run_s["parent_median"] == pytest.approx(1.2)
    assert run_s["change_median"] == pytest.approx(0.7)
    assert run_s["ratio"] == pytest.approx(0.7 / 1.2)
    # lower is better: the change won the first two pairs, tied the third
    assert (run_s["change_won"], run_s["pairs"]) == (2, 3)
    assert summary["frames_per_s"]["change_won"] == 2
    # higher RSS on the change loses every pair; equal values win none
    assert summary["peak_rss_mb"]["change_won"] == 0
    assert summary["peak_rss_mb"]["ratio"] == pytest.approx(52.0 / 50.0)
    assert summary["setup_s"]["change_won"] == 0
    assert summary["ok_rate"]["change_won"] == 0


def test_direction_comes_from_benchmark_json_which_stays_untouched(bench):
    run, path = bench
    spec = json.loads(path.read_text(encoding="utf-8"))
    for metric in spec["end_to_end"]:
        if metric["name"] == "peak_rss_mb":
            metric["better"] = "higher"
    text = json.dumps(spec)
    path.write_text(text, encoding="utf-8")
    summary = run()["workloads"]["example"]["summary"]
    assert summary["peak_rss_mb"]["change_won"] == 3
    assert path.read_text(encoding="utf-8") == text


def test_summary_reports_each_sides_interquartile_range(bench):
    run, _ = bench
    summary = run()["workloads"]["example"]["summary"]
    # three values: statistics.quantiles puts Q1 and Q3 on the smallest and largest
    assert summary["run_s"]["parent_iqr"] == pytest.approx(1.3 - 1.1)
    assert summary["run_s"]["change_iqr"] == pytest.approx(1.3 - 0.6)
    assert summary["peak_rss_mb"]["parent_iqr"] == 0.0
    assert summary["peak_rss_mb"]["change_iqr"] == pytest.approx(2.0)
    for entry in summary.values():
        # won 2 of 3 pairs at most, inside every bound, parent spread within bound
        assert (entry["past_bound"], entry["unresolved"], entry["gain_met"]) == (
            False, False, False,
        )


def ten_pairs(parent, change):
    """Ten pairs whose every metric takes parent(i) and change(i) on pair i."""
    return [
        {
            "parent": {name: parent(name, i) for name in END_TO_END},
            "change": {name: change(name, i) for name in END_TO_END},
        }
        for i in range(10)
    ]


def test_flags_read_the_bound_and_the_parent_spread():
    script = load_script()
    spec = {
        "run_s": {"better": "lower", "bound": 0.25},
        "frames_per_s": {"better": "higher", "bound": 0.25},
        "setup_s": {"better": "lower", "bound": 0.25},
        "peak_rss_mb": {"better": "lower", "bound": 0.1},
        "ok_rate": {"better": "higher", "bound": 0.01},
    }
    parent_values = {
        "run_s": lambda i: 1.0 + 0.01 * i,  # IQR 0.055 around a median of 1.045
        "frames_per_s": lambda i: 100.0,
        "setup_s": lambda i: 0.1 * (i + 1),  # IQR 0.55 > 0.25 x 0.55
        "peak_rss_mb": lambda i: 100.0 + i,  # IQR 5.5 < 0.1 x 104.5
        "ok_rate": lambda i: 1.0,
    }
    change_values = {
        "run_s": lambda i: 0.5,  # wins all 10 by 0.545 > IQR
        "frames_per_s": lambda i: 74.0,  # 26 below 100, past 0.25 x 100
        "setup_s": lambda i: 0.1 * (i + 1),
        "peak_rss_mb": lambda i: 100.0 + i - (1.0 if i else -1.0),  # wins 9, gap 1 < IQR
        "ok_rate": lambda i: 1.0,
    }
    pairs = ten_pairs(lambda n, i: parent_values[n](i), lambda n, i: change_values[n](i))
    summary = script.summarize(pairs, spec)
    flags = {
        name: (entry["past_bound"], entry["unresolved"], entry["gain_met"])
        for name, entry in summary.items()
    }
    assert flags == {
        "run_s": (False, False, True),
        "frames_per_s": (True, False, False),
        "setup_s": (False, True, False),
        "peak_rss_mb": (False, False, False),
        "ok_rate": (False, False, False),
    }
    assert summary["run_s"]["parent_iqr"] == pytest.approx(0.055)
    assert summary["peak_rss_mb"]["change_won"] == 9
    # a gap past the parent IQR with 9 of 10 wins meets the rule
    wider = {**change_values, "peak_rss_mb": lambda i: 100.0 + i - (7.0 if i else -1.0)}
    pairs = ten_pairs(lambda n, i: parent_values[n](i), lambda n, i: wider[n](i))
    assert script.summarize(pairs, spec)["peak_rss_mb"]["gain_met"] is True


def test_flags_need_two_pairs_to_judge_a_spread():
    script = load_script()
    spec = {name: {"better": "lower", "bound": 0.25} for name in END_TO_END}
    pair = {"parent": dict.fromkeys(END_TO_END, 1.0), "change": dict.fromkeys(END_TO_END, 2.0)}
    for entry in script.summarize([pair], spec).values():
        assert entry["parent_iqr"] is None and entry["change_iqr"] is None
        assert entry["unresolved"] is None and entry["gain_met"] is None
        assert entry["past_bound"] is True
