"""Tests of the benchmark's own machinery.

    python3 -m pytest pipebench
"""

import os
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402
import spawner  # noqa: E402
from encore.smf import parse_midi  # noqa: E402


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent=parent)


class TestSelfTime:
    def test_nested_children(self):
        # root [0, 10] > child [1, 6] > grandchild [2, 5]
        tree = [_span("root", 0, 10), _span("child", 1, 6, 0), _span("grand", 2, 5, 1)]
        assert spans.self_times(tree) == [5, 2, 3]

    def test_sequential_children(self):
        tree = [_span("root", 0, 10), _span("a", 1, 3, 0), _span("b", 4, 8, 0)]
        assert spans.self_times(tree) == [4, 2, 4]

    def test_overlapping_children_count_once(self):
        tree = [_span("root", 0, 10), _span("a", 1, 5, 0), _span("b", 3, 6, 0)]
        assert spans.self_times(tree)[0] == 5

    def test_spans_from_two_processes_keep_their_parents(self):
        first = [_span("root", 0, 10), _span("leaf", 1, 3, 0)]
        second = [_span("root", 20, 30), _span("leaf", 21, 29, 0)]
        merged = spans.from_json(spans.to_json(first))
        merged += spans.from_json(spans.to_json(second), len(merged))
        assert [s.parent for s in merged] == [None, 0, None, 2]
        assert spans.self_times(merged) == [8, 2, 2, 8]

    def test_aggregate_sums_by_name(self):
        tree = [_span("root", 0, 10), _span("leaf", 1, 3, 0), _span("leaf", 4, 5, 0)]
        tree[1].counts["notes"] = 7
        tree[2].counts["notes"] = 5
        tree[2].counts["peak_bytes"] = 9
        agg = spans.aggregate(tree)
        assert agg["leaf"] == {"calls": 2, "s": 3, "self_s": 3, "notes": 12, "peak_bytes": 9}
        assert agg["root"]["self_s"] == 7


def _fake_modules():
    def parse_midi(data, source_id=""):
        return [0] * len(data)

    def segment(seq, window_length=10.0):
        return [object()] * 3

    report = types.SimpleNamespace(removed_intervals=[(0, 1), (5, 6)])

    def corrupt(seq, cfg=None):
        return seq, report

    def dtw_from_costs(cost, band=None):
        return 0.0, []

    cli = types.ModuleType("fake_cli")
    cli.parse_midi, cli.segment, cli.corrupt = parse_midi, segment, corrupt
    curriculum = types.ModuleType("fake_curriculum")
    curriculum.parse_midi, curriculum.segment = parse_midi, segment
    metrics = types.ModuleType("fake_metrics")
    metrics.dtw_from_costs = dtw_from_costs
    return cli, curriculum, metrics


class TestWrappers:
    def test_uninstall_restores_every_binding(self):
        modules = _fake_modules()
        originals = [dict(vars(m)) for m in modules]
        tracer = spans.Tracer()
        tracer.install(modules)
        assert modules[0].parse_midi is not originals[0]["parse_midi"]
        # one wrapper serves every module that imported the same function
        assert modules[0].parse_midi is modules[1].parse_midi
        tracer.uninstall()
        assert [dict(vars(m)) for m in modules] == originals

    def test_counts_from_arguments_and_results(self):
        cli, curriculum, metrics = _fake_modules()
        tracer = spans.Tracer()
        tracer.install([cli, curriculum, metrics])
        try:
            cli.parse_midi(b"abcd", source_id="x.mid")
            curriculum.segment(None)
            cli.corrupt(types.SimpleNamespace(notes=[1, 2, 3, 4, 5]))
            metrics.dtw_from_costs(np.zeros((3, 4)))
        finally:
            tracer.uninstall()
        agg = spans.aggregate(tracer.spans)
        assert agg["smf.parse_midi"]["notes"] == 4
        assert agg["notes.segment"]["windows"] == 3
        assert agg["augment.corrupt"]["notes"] == 5
        assert agg["augment.corrupt"]["blocks"] == 2
        assert agg["metrics.dtw_from_costs"]["cells"] == 12
        assert agg["metrics.dtw_from_costs"]["peak_bytes"] >= 0
        # later spans inherit the item the parse started
        assert {s.item for s in tracer.spans} == {"x.mid"}

    def test_nested_calls_record_parents(self):
        cli, curriculum, metrics = _fake_modules()
        tracer = spans.Tracer()

        def cmd_tokenize(args):
            cli.parse_midi(b"ab", source_id="y.mid")
            return 0

        cli.cmd_tokenize = cmd_tokenize
        tracer.install([cli])
        try:
            assert cli.cmd_tokenize(None) == 0
        finally:
            tracer.uninstall()
        root, child = tracer.spans
        assert (root.name, root.parent) == ("cli.tokenize", None)
        assert (child.name, child.parent) == ("smf.parse_midi", 0)
        assert root.start <= child.start <= child.end <= root.end

    def test_exception_still_closes_span(self):
        cli = types.ModuleType("fake_cli")

        def parse_midi(data, source_id=""):
            raise ValueError("bad")

        cli.parse_midi = parse_midi
        tracer = spans.Tracer()
        tracer.install([cli])
        try:
            with pytest.raises(ValueError):
                cli.parse_midi(b"")
        finally:
            tracer.uninstall()
        assert tracer.spans[0].end >= tracer.spans[0].start
        assert tracer._open == []


def _build(seed, root: Path):
    rng = np.random.default_rng(seed)
    scores = corpus.write_scores(rng, (15, 15, 40), root / "scores", "s")
    corpus.write_registry(rng, scores, root)
    corpus.write_eval_set(rng, scores[:2], scores[2], root / "eval")
    return scores


class TestCorpus:
    def test_same_seed_same_files(self, tmp_path):
        _build(7, tmp_path / "a")
        _build(7, tmp_path / "b")
        _build(8, tmp_path / "c")
        digest = {k: checks.tree_digest(tmp_path / k) for k in "abc"}
        assert digest["a"] == digest["b"]
        assert digest["a"] != digest["c"]

    def test_scores_parse_back_on_the_tick_grid(self, tmp_path):
        for score in _build(3, tmp_path):
            seq = parse_midi((tmp_path / "scores" / f"{score.name}.mid").read_bytes())
            assert seq.total_duration == score.seconds
            assert sorted(n.start for n in seq.notes) == sorted(
                t / corpus.TICKS_PER_SECOND for t in score.start_ticks)
            assert sum(score.starts_per_window()) == len(seq.notes)


class TestPeakRss:
    def test_each_child_reports_its_own_peak(self, tmp_path):
        touch = "b = bytearray(300 * 2**20); b[::4096] = b'x' * len(b[::4096])"
        # this test process is itself large, which the spawner must not pass on
        ballast = bytearray(200 * 2**20)
        ballast[::4096] = b"x" * len(ballast[::4096])
        with spawner.Spawner(dict(os.environ), str(tmp_path)) as helper:
            big = helper.run([sys.executable, "-c", touch], tmp_path / "big.log", 60)
            small = helper.run([sys.executable, "-c", "pass"], tmp_path / "small.log", 60)
            failed = helper.run([sys.executable, "-c", "raise SystemExit(3)"],
                                tmp_path / "failed.log", 60)
        assert big.code == small.code == 0 and failed.code == 3
        assert big.rss_mb > 300
        # RUSAGE_CHILDREN would still report the big child's peak here
        assert small.rss_mb < 50

    def test_timeout_kills_the_child(self, tmp_path):
        with spawner.Spawner(dict(os.environ), str(tmp_path)) as helper:
            child = helper.run([sys.executable, "-c", "import time; time.sleep(30)"],
                               tmp_path / "slow.log", 0.5)
        assert child.code != 0 and child.seconds < 10
