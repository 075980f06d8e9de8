"""End-to-end tests for the command line interface.

Each test drives main() with an argv list, the same entry the console
script uses, and checks outputs on disk plus the exit code contract:
0 ok, 1 per-item failures under --strict, 2 configuration error.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import encore
from encore import cli, metrics, synth
from encore.audio_io import WavReader, read_wav, write_wav
from encore.cli import EXIT_CONFIG, EXIT_FAILURES, EXIT_OK, main
from encore.metrics import EmbeddingSet, chromagram, tempo_estimate, write_embeddings
from encore.notes import Note, NoteSequence, segment
from encore.smf import parse_midi, write_midi
from encore.synth import render, render_clicks
from encore.tokenizer import TokenStream, encode


def _dense_sequence(seconds):
    """Eight notes a second, held up to 2 s, over most of the keyboard."""
    rng = np.random.default_rng(11)
    count = int(8 * seconds)
    starts = np.sort(rng.uniform(0.0, seconds - 2.0, count))
    notes = [
        Note(start=float(s), pitch=int(p), end=float(s + d), velocity=int(v))
        for s, p, d, v in zip(starts, rng.integers(36, 97, count),
                              rng.uniform(0.05, 2.0, count), rng.integers(40, 121, count))
    ]
    return NoteSequence(notes=notes, total_duration=seconds)


_LIMITED_MAIN = (
    "import resource, sys\n"
    "import encore.metrics, encore.synth\n"
    "from encore.cli import main\n"
    "with open('/proc/self/statm') as fh:\n"
    "    size = int(fh.read().split()[0]) * resource.getpagesize()\n"
    "resource.setrlimit(resource.RLIMIT_AS, (size + (int(sys.argv[1]) << 20),) * 2)\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


def _run_limited(headroom_mb, *argv):
    """Run the CLI in a child whose address space is capped at its size after
    importing encore.cli and the audio modules plus headroom_mb."""
    src = str(Path(encore.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", _LIMITED_MAIN, str(headroom_mb), *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _sequence(n_notes=50, step=0.5, stretch=1.0):
    notes = [
        Note(
            start=step * k * stretch,
            pitch=60 + (k % 12),
            end=(step * k + 0.45) * stretch,
            velocity=90,
        )
        for k in range(n_notes)
    ]
    total = (step * (n_notes - 1) + 0.5) * stretch
    return NoteSequence(
        notes=notes, total_duration=total, source_id="t", reference_bpm=120.0
    )


@pytest.fixture
def midi_dir(tmp_path):
    d = tmp_path / "midi"
    d.mkdir()
    (d / "a.mid").write_bytes(write_midi(_sequence()))
    (d / "b.mid").write_bytes(write_midi(_sequence(n_notes=30)))
    (d / "broken.mid").write_bytes(b"MThd garbage")
    return d


def _run(*argv):
    return main([str(a) for a in argv])


# one note at a tempo of 0 us per quarter, which no clock can run at
ZERO_TEMPO_MIDI = (
    "4d546864000000060000000100604d54726b00000014"
    "00ff5103000000" "00903c40" "8360803c00" "00ff2f00"
)


# ---------------------------------------------------------------------------
# tokenize


class TestTokenize:
    def test_happy_path(self, midi_dir, tmp_path, capsys):
        out = tmp_path / "tok"
        code = _run("tokenize", midi_dir / "a.mid", midi_dir / "b.mid", "--out", out)
        assert code == EXIT_OK
        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        index = json.loads((out / "index.json").read_text())
        assert printed == index  # one JSON row per file, as index.json holds it
        assert [row["status"] for row in index] == ["ok", "ok"]
        tok_files = sorted(out.glob("*.tok"))
        assert len(tok_files) == sum(row["windows"] for row in index)
        # every emitted file decodes back to a token stream
        stream = TokenStream.from_bytes(tok_files[0].read_bytes())
        assert len(stream.tokens) == index[0]["tokens_min"] or stream.tokens

    def test_bad_file_not_strict(self, midi_dir, tmp_path, capsys):
        out = tmp_path / "tok"
        code = _run("tokenize", midi_dir / "a.mid", midi_dir / "broken.mid", "--out", out)
        assert code == EXIT_OK
        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        index = json.loads((out / "index.json").read_text())
        assert printed == index
        assert index[1]["status"] == "error" and index[1]["file"].endswith("broken.mid")

    def test_bad_file_strict(self, midi_dir, tmp_path):
        code = _run(
            "tokenize", midi_dir / "broken.mid", "--out", tmp_path / "tok", "--strict"
        )
        assert code == EXIT_FAILURES

    def test_zero_tempo_is_item_failure(self, midi_dir, tmp_path, capsys):
        zero = midi_dir / "zero.mid"
        zero.write_bytes(bytes.fromhex(ZERO_TEMPO_MIDI))
        out = tmp_path / "tok"
        assert _run("tokenize", midi_dir / "a.mid", zero, "--out", out) == EXIT_OK
        index = json.loads((out / "index.json").read_text())
        assert [row["status"] for row in index] == ["ok", "error"]
        assert index[1]["file"] == str(zero) and "zero tempo" in index[1]["error"]
        assert "Traceback" not in capsys.readouterr().err

    def test_no_tmp_left_behind(self, midi_dir, tmp_path):
        out = tmp_path / "tok"
        _run("tokenize", midi_dir / "a.mid", "--out", out)
        assert not list(out.glob("*.tmp"))

    def test_fixed_ten_second_windows(self, midi_dir, tmp_path):
        out = tmp_path / "tok"
        assert _run("tokenize", midi_dir / "a.mid", "--out", out) == EXIT_OK
        assert json.loads((out / "index.json").read_text())[0]["windows"] == 3  # 25 s
        assert TokenStream.from_bytes((out / "a_w0002.tok").read_bytes()).window_length == 10.0

    @pytest.mark.parametrize("option", ["--window", "--hop", "--seed"])
    def test_removed_options_refused(self, midi_dir, tmp_path, capsys, option):
        out = tmp_path / "tok"
        assert _run("tokenize", midi_dir / "a.mid", option, "5", "--out", out) == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# augment


class TestAugment:
    def test_speed_fixed_tier(self, midi_dir, tmp_path, capsys):
        out = tmp_path / "aug"
        code = _run(
            "augment", midi_dir / "a.mid", "--mode", "speed",
            "--tier", "Slow", "--out", out,
        )
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())[0]
        assert report["tier"] == "Slow"
        assert 1.5 <= report["ratio"] <= 1.8
        seq = parse_midi((out / "a_speed.mid").read_bytes())
        base = parse_midi((midi_dir / "a.mid").read_bytes())
        # SMF round trip quantizes to ticks, about a millisecond at 480 ppq
        assert seq.total_duration == pytest.approx(
            base.total_duration * report["ratio"], abs=5e-3
        )

    def test_unknown_tier(self, midi_dir, tmp_path):
        code = _run(
            "augment", midi_dir / "a.mid", "--mode", "speed",
            "--tier", "Ludicrous", "--out", tmp_path / "aug",
        )
        assert code == EXIT_CONFIG

    def test_mistakes_report(self, midi_dir, tmp_path):
        out = tmp_path / "aug"
        code = _run("augment", midi_dir / "a.mid", "--mode", "mistakes", "--out", out)
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())[0]
        for key in ("mistouch", "asynchrony", "substitution", "ghost", "block_removed"):
            assert key in report
        assert report["removed_intervals"]  # at least one skip per file this long
        parse_midi((out / "a_mistakes.mid").read_bytes())  # stays valid SMF

    def test_item_seed_isolated_from_batch(self, midi_dir, tmp_path):
        """Adding more inputs must not change what an existing file gets."""
        solo = tmp_path / "solo"
        batch = tmp_path / "batch"
        _run("augment", midi_dir / "a.mid", "--mode", "mistakes", "--out", solo)
        _run(
            "augment", midi_dir / "b.mid", midi_dir / "a.mid",
            "--mode", "mistakes", "--out", batch,
        )
        assert (solo / "a_mistakes.mid").read_bytes() == (
            batch / "a_mistakes.mid"
        ).read_bytes()

    def test_seed_changes_output(self, midi_dir, tmp_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        _run("augment", midi_dir / "a.mid", "--mode", "mistakes", "--out", out1)
        _run("augment", midi_dir / "a.mid", "--mode", "mistakes", "--out", out2,
             "--seed", "99")
        assert (out1 / "a_mistakes.mid").read_bytes() != (
            out2 / "a_mistakes.mid"
        ).read_bytes()


# ---------------------------------------------------------------------------
# prompt


class TestPrompt:
    def test_stage0(self, capsys):
        assert _run("prompt", "--stage", "0") == EXIT_OK
        assert capsys.readouterr().out.strip() == "Synthesis"

    def test_full_prompt_no_dropout(self, capsys):
        code = _run(
            "prompt", "--stage", "2", "--sonification", "performance",
            "--title", "Etude Op.10 No.3", "--composer", "Chopin",
            "--instrumentation", "piano", "--dropout", "0",
        )
        assert code == EXIT_OK
        text = capsys.readouterr().out
        for piece in ("Etude Op.10 No.3", "Chopin", "piano", "performance"):
            assert piece in text

    def test_invalid_stage(self, capsys):
        assert _run("prompt", "--stage", "7") == EXIT_CONFIG

    def test_stage_gating(self, capsys):
        # mistake descriptors only exist from the mistake stage on
        assert _run("prompt", "--stage", "1", "--mistake") == EXIT_CONFIG

    @pytest.mark.parametrize("stage, flag", [("2", "--performer"), ("0", "--speed-keyword")])
    def test_empty_gated_field_is_absent(self, capsys, stage, flag):
        """An empty field is no field, at any stage, as in the prompt it renders."""
        argv = ["prompt", "--stage", stage, "--title", "T", "--seed", "3"]
        assert _run(*argv) == EXIT_OK
        want = capsys.readouterr().out
        assert _run(*argv, flag, "") == EXIT_OK
        assert capsys.readouterr().out == want


# ---------------------------------------------------------------------------
# manifest / schedule-preview


def _make_registry(tmp_path, n_pairs=2, midis=None):
    """A one-dataset stage-0 registry of 25 s scores; ``midis`` overrides
    the MIDI paths p0.mid, p1.mid, ... Each score's lowest pitch comes from
    its path, so pairs with different paths have different tokens."""
    root = tmp_path / "reg"
    ds = root / "synth-a"
    ds.mkdir(parents=True)
    rows = []
    for midi in midis or [f"p{k}.mid" for k in range(n_pairs)]:
        low = 60 + sum(map(ord, midi)) % 12
        notes = [Note(0.5 * i, low + i % 12, 0.5 * i + 0.45, 90) for i in range(50)]
        audio = str(Path(midi).with_suffix(".wav"))
        (ds / midi).parent.mkdir(parents=True, exist_ok=True)
        (ds / midi).write_bytes(write_midi(NoteSequence(notes, total_duration=25.0)))
        (ds / audio).touch()
        rows.append(json.dumps({"midi": midi, "audio": audio}))
    (ds / "pairs.jsonl").write_text("\n".join(rows) + "\n")
    registry = {
        "datasets": [
            {
                "name": "synth-a",
                "stage": 0,
                "input_kind": "score",
                "target_kind": "synth_audio",
                "instrumentation": "piano",
                "root": "synth-a",
                "pair_index": "synth-a/pairs.jsonl",
            }
        ]
    }
    path = root / "registry.json"
    path.write_text(json.dumps(registry))
    return path


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestManifest:
    def test_stage0_all_synthesis(self, tmp_path, capsys):
        registry = _make_registry(tmp_path)
        out = tmp_path / "man"
        code = _run("manifest", "--registry", registry, "--stage", "0", "--out", out)
        assert code == EXIT_OK
        lines = (out / "stage0.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records and all(r["prompt"] == "Synthesis" for r in records)
        meta = json.loads((out / "stage0.meta.json").read_text())
        assert meta["stage"] == 0
        assert meta["step_budget"] == 20000
        assert meta["record_count"] == len(records)

    def test_merged_budget(self, tmp_path, capsys):
        registry = _make_registry(tmp_path)
        out = tmp_path / "man"
        code = _run("manifest", "--registry", registry, "--stage", "merged", "--out", out)
        assert code == EXIT_OK
        meta = json.loads((out / "merged.meta.json").read_text())
        assert meta["step_budget"] == 60000

    def test_bad_stage_string(self, tmp_path):
        registry = _make_registry(tmp_path)
        code = _run(
            "manifest", "--registry", registry, "--stage", "five",
            "--out", tmp_path / "man",
        )
        assert code == EXIT_CONFIG

    def test_bad_registry(self, tmp_path):
        bad = tmp_path / "registry.json"
        bad.write_text(json.dumps({"datasets": [{"name": "x"}]}))
        code = _run(
            "manifest", "--registry", bad, "--stage", "0", "--out", tmp_path / "man"
        )
        assert code == EXIT_CONFIG

    def test_huge_weight_is_config_error(self, tmp_path):
        """A weight of 1e9 is refused at load, before any pair runs. The
        child's address space is capped, so a build that tried to pool
        1e9 copies would fail fast instead of exhausting the machine."""
        registry = _make_registry(tmp_path)
        doc = json.loads(registry.read_text())
        doc["datasets"][0]["weight"] = 1e9
        registry.write_text(json.dumps(doc))
        started = time.perf_counter()
        done = _run_limited(256, "manifest", "--registry", registry, "--stage", "0",
                            "--out", tmp_path / "man")
        assert time.perf_counter() - started < 5
        assert done.returncode == EXIT_CONFIG, done.stderr
        assert f"{registry}: synth-a: weight" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "man").exists()

    def test_weight_above_pool_cap_names_registry(self, tmp_path, capsys):
        """A weight under MERGED_BUDGET may still break a stage's pool cap;
        that is found once the pairs have run, and named like a load error."""
        registry = _make_registry(tmp_path, n_pairs=1)
        doc = json.loads(registry.read_text())
        doc["datasets"][0]["weight"] = 50000
        registry.write_text(json.dumps(doc))
        out = tmp_path / "man"
        code = _run("manifest", "--registry", registry, "--stage", "0", "--out", out)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{registry}: synth-a: weight 50000 pools 150000" in err
        assert "Traceback" not in err
        assert not (out / "stage0.jsonl").exists()

    def test_bad_midi_named_in_error(self, tmp_path, capsys):
        """A MIDI that cannot be read fails as an item: the other pairs
        still make the manifest, and the sidecar names the failed pair."""
        # garbage bytes, and a directory where the MIDI file should be
        for case, message in [
            ("garbage", "missing MThd header (byte 0)"),
            ("directory", "p1.mid"),
        ]:
            registry = _make_registry(tmp_path / case)
            midi = registry.parent / "synth-a" / "p1.mid"
            if case == "directory":
                midi.unlink()
                midi.mkdir()
            else:
                midi.write_bytes(b"garbage")
            out = tmp_path / case / "man"
            argv = ["manifest", "--registry", registry, "--stage", "0", "--out", out]
            assert _run(*argv) == EXIT_OK
            captured = capsys.readouterr()
            failed = [line for line in captured.out.splitlines() if line.startswith("FAILED")]
            assert len(failed) == 1 and failed[0].startswith("FAILED synth-a/p1.mid: ")
            assert message in failed[0]
            assert "Traceback" not in captured.err
            meta = json.loads((out / "stage0.meta.json").read_text())
            assert list(meta["failed"]) == ["synth-a/p1.mid"]
            assert message in meta["failed"]["synth-a/p1.mid"]
            records = _records(out / "stage0.jsonl")
            assert [r["window_ref"] for r in records] == [f"synth-a/p0.mid#{k}" for k in range(3)]
            assert _run(*argv, "--strict") == EXIT_FAILURES
            capsys.readouterr()

    def test_no_usable_windows_is_config_error(self, tmp_path, capsys):
        registry = _make_registry(tmp_path, n_pairs=1)
        (registry.parent / "synth-a" / "p0.mid").write_bytes(b"garbage")
        out = tmp_path / "man"
        code = _run("manifest", "--registry", registry, "--stage", "0", "--out", out)
        assert code == EXIT_CONFIG
        assert "stage 0: no usable windows" in capsys.readouterr().err
        assert not (out / "stage0.jsonl").exists()
        code = _run("manifest", "--registry", registry, "--stage", "3", "--out", out)
        assert code == EXIT_CONFIG
        assert "no datasets for stage 3" in capsys.readouterr().err

    def test_same_stem_midis_get_own_tokens(self, tmp_path):
        """Token files are named by the whole MIDI path, so a/x.mid and
        b/x.mid in one dataset keep their own windows."""
        registry = _make_registry(tmp_path, midis=["a/x.mid", "b/x.mid"])
        out = tmp_path / "man"
        assert _run("manifest", "--registry", registry, "--stage", "0", "--out", out) == EXIT_OK
        records = _records(out / "stage0.jsonl")
        assert [r["token_file"] for r in records] == [
            f"tokens/synth-a/{d}/x.mid_w{k:04d}.tok" for d in "ab" for k in range(3)
        ]
        for record in records:
            midi, k = record["window_ref"].removeprefix("synth-a/").split("#")
            seq = parse_midi((registry.parent / "synth-a" / midi).read_bytes())
            want = encode(segment(seq)[int(k)]).to_bytes()
            assert (out / record["token_file"]).read_bytes() == want

    def test_failed_pair_leaves_other_records(self, tmp_path, capsys):
        """A pair that fails changes nothing else: records, their order and
        the weighted picks are those of a build without that pair."""
        outs = {}
        for case, midis in [
            ("without", ["p0.mid", "p2.mid"]),
            ("with", ["p0.mid", "p1.mid", "p2.mid"]),
        ]:
            registry = _make_registry(tmp_path / case, midis=midis)
            doc = json.loads(registry.read_text())
            doc["datasets"][0]["weight"] = 0.5
            registry.write_text(json.dumps(doc))
            if case == "with":
                (registry.parent / "synth-a" / "p1.mid").write_bytes(b"garbage")
            outs[case] = tmp_path / case / "man"
            argv = ["manifest", "--registry", registry, "--stage", "0", "--seed", "5"]
            assert _run(*argv, "--out", outs[case]) == EXIT_OK
        without, with_bad = ((outs[c] / "stage0.jsonl").read_text() for c in ("without", "with"))
        assert with_bad == without and len(without.splitlines()) == 3
        meta = json.loads((outs["with"] / "stage0.meta.json").read_text())
        assert list(meta["failed"]) == ["synth-a/p1.mid"]
        assert json.loads((outs["without"] / "stage0.meta.json").read_text())["failed"] == {}

    def test_schedule_preview(self, tmp_path, capsys):
        registry = _make_registry(tmp_path)
        out = tmp_path / "man"
        _run("manifest", "--registry", registry, "--stage", "0", "--out", out)
        capsys.readouterr()
        code = _run("schedule-preview", out / "stage0.jsonl", "--steps", "5")
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("step ") for line in lines[:5])
        assert lines[-1] == "total steps: 20000"

    def test_schedule_preview_missing_file(self, tmp_path):
        assert _run("schedule-preview", tmp_path / "nope.jsonl") == EXIT_CONFIG

    @pytest.mark.parametrize("argv, error", [
        (["stage2.jsonl", "stage0.jsonl", "--steps", "0"], "manifests must be ordered by stage"),
        (["stage0.jsonl", "empty.jsonl"], "stage 1: empty manifest cannot cycle"),
    ], ids=["out of order", "empty"])
    def test_schedule_preview_checks_every_manifest_first(self, tmp_path, capsys, argv, error):
        """A schedule that cannot run prints no step, even when --steps asks
        for none or the bad manifest comes after steps of a good one."""
        out = tmp_path / "man"
        _run("manifest", "--registry", _make_registry(tmp_path, n_pairs=1), "--stage", "0",
             "--out", out)
        records = [{**json.loads(line), "stage": 2}
                   for line in (out / "stage0.jsonl").read_text().splitlines()]
        _write(out / "stage2.jsonl", "".join(json.dumps(r) + "\n" for r in records))
        _write(out / "stage2.meta.json", '{"stage": 2, "step_budget": 10}')
        _write(out / "empty.jsonl", "")
        _write(out / "empty.meta.json", '{"stage": 1, "step_budget": 5}')
        capsys.readouterr()
        assert _run("schedule-preview", *(out / a if a.endswith(".jsonl") else a
                                          for a in argv)) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err == f"error: {error}\n"


def _add_dataset(registry, **fields):
    """Append a copy of the first dataset's registry row, with fields changed."""
    doc = json.loads(registry.read_text())
    doc["datasets"].append({**doc["datasets"][0], **fields})
    return _write(registry, json.dumps(doc))


# each edit makes a registry whose token paths would leave --out or collide;
# it returns the file the error must name
UNSAFE = {
    "name climbs out": lambda reg: _set_row(reg, name="../../escaped"),
    "name has a separator": lambda reg: _set_row(reg, name="a/b"),
    "name is dot": lambda reg: _set_row(reg, name="."),
    "name repeated": lambda reg: _add_dataset(reg, stage=1),
    "midi climbs out": lambda reg: _pairs(reg, '{"midi": "../synth-a/p0.mid", "audio": "p0.wav"}'),
    "midi absolute": lambda reg: _pairs(
        reg, json.dumps({"midi": str(reg.parent / "synth-a" / "p0.mid"), "audio": "p0.wav"})),
    "midi listed twice": lambda reg: _pairs(
        reg, '{"midi": "p0.mid", "audio": "p0.wav"}\n{"midi": "./p0.mid", "audio": "p1.wav"}'),
    "audio and metadata climb out": lambda reg: _pairs(
        reg, '{"midi": "x.mid", "audio": "../../f1/x.wav", "metadata": "../outside.json"}'),
    "metadata climbs out": lambda reg: _pairs(
        reg, '{"midi": "p0.mid", "audio": "p0.wav", "metadata": "../outside.json"}'),
    "audio absolute": lambda reg: _pairs(
        reg, json.dumps({"midi": "p0.mid", "audio": str(reg.parent / "synth-a" / "p0.wav")})),
}


@pytest.mark.parametrize("case", UNSAFE)
def test_unsafe_registry_is_config_error(tmp_path, capsys, case):
    registry = _make_registry(tmp_path)
    bad = UNSAFE[case](registry)
    out = tmp_path / "out" / "man"
    code = _run("manifest", "--registry", registry, "--stage", "merged", "--out", out)
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    (error,) = captured.err.splitlines()
    assert error.startswith("error: ") and str(bad) in error
    assert not (tmp_path / "out").exists()
    if case == "name repeated":
        assert "'synth-a'" in error


def _write(path, text):
    path.write_text(text)
    return path


def _set_row(registry, **fields):
    doc = json.loads(registry.read_text())
    doc["datasets"][0].update(fields)
    return _write(registry, json.dumps(doc))


def _pairs(registry, line):
    return _write(registry.parent / "synth-a" / "pairs.jsonl", line + "\n")


def _ghost_pair(registry):
    _pairs(registry, '{"midi": "ghost.mid", "audio": "p0.wav"}')
    return registry


def _list_metadata(registry, text="[]"):
    _pairs(registry, '{"midi": "p0.mid", "audio": "p0.wav", "metadata": "m.json"}')
    return _write(registry.parent / "synth-a" / "m.json", text)


def _record_line(out, **extra):
    record = json.loads((out / "stage0.jsonl").read_text().splitlines()[0])
    return _write(out / "stage0.jsonl", json.dumps({**record, **extra}) + "\n")


def _second_line(path, line: bytes) -> str:
    """Keep path's first line and make line its second; the error names path:2."""
    path.write_bytes(path.read_bytes().splitlines()[0] + b"\n" + line + b"\n")
    return f"{path}:2"


def _second_record(out, **fields) -> str:
    """A stage-0 manifest whose second record is its first with fields changed."""
    record = json.loads((out / "stage0.jsonl").read_text().splitlines()[0])
    return _second_line(out / "stage0.jsonl", json.dumps({**record, **fields}).encode())


# each edit breaks one file and returns its path, with the line for a JSON-lines
# file; manifest cases edit the registry's files, schedule-preview cases a built
# stage-0 manifest
MALFORMED = {
    "registry is a list": ("manifest", lambda reg: _write(reg, "[]")),
    "registry row is a number": ("manifest", lambda reg: _write(reg, '{"datasets": [1]}')),
    "weight is a string": ("manifest", lambda reg: _set_row(reg, weight="heavy")),
    "name is a number": ("manifest", lambda reg: _set_row(reg, name=5)),
    "pair without midi": ("manifest", lambda reg: _pairs(reg, '{"audio": "p0.wav"}')),
    "pair line is a list": ("manifest", lambda reg: _pairs(reg, '["p0.mid", "p0.wav"]')),
    "stage out of range": ("manifest", lambda reg: _set_row(reg, stage=7)),
    "pair names a missing file": ("manifest", _ghost_pair),
    "record with extra key": ("schedule-preview", lambda out: _record_line(out, extra=1)),
    "record is a list": ("schedule-preview", lambda out: _write(out / "stage0.jsonl", "[1, 2]\n")),
    "meta without budget": (
        "schedule-preview", lambda out: _write(out / "stage0.meta.json", '{"stage": 0}')),
    "meta is a list": ("schedule-preview", lambda out: _write(out / "stage0.meta.json", "[]")),
    "budget not an integer": (
        "schedule-preview",
        lambda out: _write(out / "stage0.meta.json", '{"stage": 0, "step_budget": 2.5}')),
    "registry nested too deep": ("manifest", lambda reg: _write(reg, "[" * 200_000)),
    "record nested too deep": (
        "schedule-preview", lambda out: _write(out / "stage0.jsonl", "[" * 200_000 + "\n")),
    "pair line 2 not JSON": (
        "manifest", lambda reg: _second_line(reg.parent / "synth-a" / "pairs.jsonl", b"{")),
    "pair line 2 not UTF-8": (
        "manifest",
        lambda reg: _second_line(reg.parent / "synth-a" / "pairs.jsonl", b'{"midi": "\xff"}')),
    "record line 2 not JSON": (
        "schedule-preview", lambda out: _second_line(out / "stage0.jsonl", b"{")),
    "record line 2 not UTF-8": (
        "schedule-preview", lambda out: _second_line(out / "stage0.jsonl", b"\xff")),
    "record fields of the wrong types": (
        "schedule-preview",
        lambda out: _second_record(out, window_ref=5, token_file=None, prompt=[],
                                   target_audio_ref={}, perf_start="a", perf_end=True,
                                   stage="zero")),
    "record stage is a bool": ("schedule-preview", lambda out: _second_record(out, stage=False)),
    "record interval reversed": (
        "schedule-preview", lambda out: _second_record(out, perf_start=5.0, perf_end=1.0)),
    "record interval infinite": (
        "schedule-preview", lambda out: _second_record(out, perf_end=float("inf"))),
    "record interval NaN": (
        "schedule-preview", lambda out: _second_record(out, perf_start=float("nan"))),
    "record stage out of range": ("schedule-preview", lambda out: _second_record(out, stage=7)),
    "record stage not the manifest's": (
        "schedule-preview", lambda out: _second_record(out, stage=2)),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_curriculum_json_is_config_error(tmp_path, capsys, case):
    command, edit = MALFORMED[case]
    registry = _make_registry(tmp_path, n_pairs=1)
    out = tmp_path / "man"
    if command == "manifest":
        bad = edit(registry)
        argv = ["manifest", "--registry", registry, "--stage", "0", "--out", out]
    else:
        assert _run("manifest", "--registry", registry, "--stage", "0", "--out", out) == EXIT_OK
        bad = edit(out)
        argv = ["schedule-preview", out / "stage0.jsonl"]
    capsys.readouterr()
    assert _run(*argv) == EXIT_CONFIG
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and str(bad) in errors[0]


@pytest.mark.parametrize("pair, named", [
    ({"audio": ""}, "pairs.jsonl"),
    ({"audio": "sub"}, "sub"),
    ({"metadata": ""}, "pairs.jsonl"),
    ({"metadata": "sub"}, "sub"),
], ids=["empty audio", "audio is a directory", "empty metadata", "metadata is a directory"])
def test_pair_paths_must_name_files(tmp_path, capsys, pair, named):
    """An empty path or a directory would pass an existence check on the
    dataset root or the directory itself."""
    registry = _make_registry(tmp_path, n_pairs=1)
    (registry.parent / "synth-a" / "sub").mkdir()
    _pairs(registry, json.dumps({"midi": "p0.mid", "audio": "p0.wav", **pair}))
    out = tmp_path / "man"
    assert _run("manifest", "--registry", registry, "--stage", "0", "--strict",
                "--out", out) == EXIT_CONFIG
    (error,) = capsys.readouterr().err.splitlines()
    assert error.startswith("error: ") and named in error
    assert not out.exists()


def test_malformed_metadata_is_item_failure(tmp_path, capsys):
    """A sidecar that is not an object, or whose alignment rows are not
    finite and increasing (Python's JSON reader takes NaN and Infinity),
    fails its pair."""
    registry = _make_registry(tmp_path, n_pairs=1)
    for k, text in enumerate([
        "[]",
        '{"alignment": [[0.0, NaN, 12.0]]}',
        '{"alignment": [[10.0, 20.0, Infinity]]}',
        '{"alignment": [[0.0, 12.0, 12.0]]}',
        '{"alignment": [[0.0, 0.0, 1%s]]}' % ("0" * 400),  # an int no float holds
        '{"alignment": [[0.0, "0", 12.0]]}',
    ]):
        bad = _list_metadata(registry, text)
        out = tmp_path / f"man{k}"
        argv = ["manifest", "--registry", registry, "--stage", "merged", "--out", out]
        assert _run(*argv) == EXIT_CONFIG, text  # the only pair failed: no usable windows
        captured = capsys.readouterr()
        assert captured.out.startswith(f"FAILED synth-a/p0.mid: {bad}: "), text
        assert "Traceback" not in captured.err


def test_deeply_nested_metadata_fails_its_pair(tmp_path, capsys):
    """JSON nested past the parser's recursion limit fails the one pair
    whose sidecar it is; the other pair still gives records."""
    registry = _make_registry(tmp_path, n_pairs=2)
    _pairs(registry, '{"midi": "p0.mid", "audio": "p0.wav", "metadata": "m.json"}\n'
                     '{"midi": "p1.mid", "audio": "p1.wav"}')
    bad = _write(registry.parent / "synth-a" / "m.json", "[" * 200_000)
    out = tmp_path / "man"
    assert _run("manifest", "--registry", registry, "--stage", "0", "--out", out) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith(f"FAILED synth-a/p0.mid: {bad}: ")
    assert "Traceback" not in captured.err
    records = _records(out / "stage0.jsonl")
    assert {r["window_ref"].split("#")[0] for r in records} == {"synth-a/p1.mid"}
# ---------------------------------------------------------------------------
# evaluate


@pytest.fixture
def eval_dir(tmp_path):
    d = tmp_path / "eval"
    d.mkdir()
    base = _sequence(n_notes=24)
    slow = _sequence(n_notes=24, stretch=1.5)
    write_wav(d / "ref.wav", render(base))
    write_wav(d / "same.wav", render(base))
    write_wav(d / "slow.wav", render(slow))
    with open(d / "pairs.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pair_id", "output", "reference", "ratio"])
        w.writerow(["same", "same.wav", "ref.wav", ""])
        w.writerow(["slow", "slow.wav", "ref.wav", "1.5"])
    return d


def _write_pcm16(path, samples, rate, channels=1):
    """A 16-bit PCM WAV of samples at rate, each repeated over channels."""
    data = np.repeat(samples.astype("<i2"), channels).tobytes()
    fmt = struct.pack("<HHIIHH", 1, channels, rate, 2 * channels * rate, 2 * channels, 16)
    path.write_bytes(
        b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data)) + b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(data)) + data)


def _read_results(path):
    with open(path, newline="") as fh:
        return {
            (row["pair_id"], row["metric"]): float(row["value"])
            for row in csv.DictReader(fh)
        }


class TestEvaluate:
    def test_identity_and_stretch(self, eval_dir, tmp_path):
        out = tmp_path / "results.csv"
        code = _run("evaluate", "--pairs", eval_dir / "pairs.csv", "--out", out)
        assert code == EXIT_OK
        values = _read_results(out)
        assert values[("same", "chroma")] >= 0.999
        assert values[("same", "tempo")] <= 0.01
        # a known stretch with its ratio declared should read as on-tempo
        assert values[("slow", "tempo")] <= 0.05
        assert values[("slow", "chroma")] >= 0.9

    def test_tempo_estimated_once_per_file(self, eval_dir, tmp_path, monkeypatch):
        calls = []

        def counting(audio):
            assert isinstance(audio, WavReader)  # streamed, never decoded whole
            calls.append(len(audio))
            return tempo_estimate(audio)

        monkeypatch.setattr(metrics, "tempo_estimate", counting)
        pairs = _write(eval_dir / "self.csv", "pair_id,output,reference\nself,ref.wav,ref.wav\n")
        out = tmp_path / "results.csv"
        code = _run("evaluate", "--pairs", pairs, "--metrics", "tempo", "--out", out)
        assert code == EXIT_OK
        assert len(calls) == 1
        assert _read_results(out) == {("self", "tempo"): 0.0}

    def test_chromagram_computed_once_per_file(self, eval_dir, tmp_path, monkeypatch):
        calls = []

        def counting(audio):
            assert isinstance(audio, WavReader)
            calls.append(audio.path.name)
            return chromagram(audio)

        monkeypatch.setattr(metrics, "chromagram", counting)
        pairs = _write(eval_dir / "self.csv", "pair_id,output,reference\n"
                       "self,ref.wav,ref.wav\nsame,same.wav,ref.wav\n")
        out = tmp_path / "results.csv"
        code = _run("evaluate", "--pairs", pairs, "--metrics", "chroma", "--out", out)
        assert code == EXIT_OK
        assert calls == ["ref.wav", "same.wav", "ref.wav"]
        # same.wav holds ref.wav's samples, so both pairs score alike
        results = _read_results(out)
        assert results[("self", "chroma")] == results[("same", "chroma")]

    def test_memory_error_is_item_failure(self, eval_dir, tmp_path, monkeypatch, capsys):
        real = metrics.chroma_similarity

        def tight(out_audio, ref_audio):
            if out_audio.path.name == "slow.wav":
                raise MemoryError  # numpy's message-less form
            return real(out_audio, ref_audio)

        monkeypatch.setattr(metrics, "chroma_similarity", tight)
        out = tmp_path / "results.csv"
        argv = ["evaluate", "--pairs", eval_dir / "pairs.csv", "--metrics", "chroma",
                "--out", out]
        assert _run(*argv) == EXIT_OK
        captured = capsys.readouterr()
        assert "FAILED slow: MemoryError" in captured.out
        assert "Traceback" not in captured.err
        assert set(_read_results(out)) == {("same", "chroma")}
        assert _run(*argv, "--strict") == EXIT_FAILURES

    def test_metric_error_is_item_failure(self, eval_dir, tmp_path, capsys):
        """An all-silent WAV has no chroma: its pair fails alone."""
        write_wav(eval_dir / "silent.wav", np.zeros(6 * 44100))
        pairs = _write(eval_dir / "quiet.csv", "pair_id,output,reference\n"
                       "same,same.wav,ref.wav\nquiet,silent.wav,ref.wav\n")
        out = tmp_path / "results.csv"
        code = _run("evaluate", "--pairs", pairs, "--strict", "--out", out)
        assert code == EXIT_FAILURES
        captured = capsys.readouterr()
        assert ("FAILED quiet: chroma similarity undefined for all-silent audio"
                in captured.out.splitlines())
        assert "Traceback" not in captured.err
        assert set(_read_results(out)) == {("same", "chroma"), ("same", "tempo")}

    def test_pair_memory_grows_by_the_dtw_alone(self, tmp_path):
        """From a 1-min to a 3-min pair, traced peak memory grows by the
        DTW's step byte per cell plus a few MB, its strips of distances
        among them: no distance matrix (8 bytes per cell) and no decoded
        file is held, where 3 min of float64 is 64 MB per side."""
        peaks, cells = [], []
        for minutes in (1, 3):
            n = minutes * 60 * 44100
            write_wav(tmp_path / f"out{minutes}.wav", render_clicks(150.0, n / 44100))
            write_wav(tmp_path / f"ref{minutes}.wav", render_clicks(120.0, n / 44100))
            row = {"pair_id": "p", "output": f"out{minutes}.wav",
                   "reference": f"ref{minutes}.wav", "ratio": "1.25"}
            tracemalloc.start()
            try:
                cli._evaluate_pair(row, ["chroma", "tempo"], tmp_path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            cells.append((1 + (n - 4096) // 2048) ** 2)
        assert peaks[1] - peaks[0] <= cells[1] - cells[0] + 8e6

    def test_frechet_on_embeddings(self, tmp_path):
        d = tmp_path / "emb"
        d.mkdir()
        vectors = np.random.default_rng(3).normal(size=(400, 6))
        write_embeddings(d / "a.bin", EmbeddingSet(vectors))
        write_embeddings(d / "b.bin", EmbeddingSet(vectors))
        with open(d / "pairs.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pair_id", "output", "reference"])
            w.writerow(["emb", "a.bin", "b.bin"])
        out = tmp_path / "results.csv"
        code = _run(
            "evaluate", "--pairs", d / "pairs.csv",
            "--metrics", "frechet", "--out", out,
        )
        assert code == EXIT_OK
        assert _read_results(out)[("emb", "frechet")] <= 1e-6

    @pytest.mark.parametrize("dim", [2049, 1_000_000])
    def test_oversized_embedding_is_item_failure(self, tmp_path, capsys, dim):
        """D x D covariances of a header's D would abort the run: D = 10**6
        asks for 7 TiB. A D above MAX_EMBEDDING_DIM fails its pair alone."""
        d = tmp_path / "emb"
        d.mkdir()
        vectors = np.random.default_rng(3).normal(size=(400, 6))
        write_embeddings(d / "a.bin", EmbeddingSet(vectors))
        write_embeddings(d / "wide.bin", EmbeddingSet(np.ones((2, dim))))
        pairs = _write(d / "pairs.csv", "pair_id,output,reference\nwide,wide.bin,wide.bin\n"
                       "good,a.bin,a.bin\n")
        out = tmp_path / "results.csv"
        argv = ["evaluate", "--pairs", pairs, "--metrics", "frechet", "--out", out]
        assert _run(*argv) == EXIT_OK
        captured = capsys.readouterr()
        assert f"FAILED wide: {d / 'wide.bin'}: dimension {dim} exceeds 2048" in captured.out
        assert "Traceback" not in captured.err
        assert _read_results(out) == {("good", "frechet"): 0.0}
        assert _run(*argv, "--strict") == EXIT_FAILURES
        assert "Traceback" not in capsys.readouterr().err

    def test_score_bpm_column_wins(self, eval_dir, tmp_path):
        with open(eval_dir / "pairs.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pair_id", "output", "reference", "ratio", "score_bpm"])
            w.writerow(["same", "same.wav", "ref.wav", "", "240"])
        out = tmp_path / "results.csv"
        _run(
            "evaluate", "--pairs", eval_dir / "pairs.csv",
            "--metrics", "tempo", "--out", out,
        )
        # audio sits near 120 BPM; against a claimed 240 the deviation is ~0.5
        assert _read_results(out)[("same", "tempo")] >= 0.4

    def test_missing_file_not_strict(self, eval_dir, tmp_path, capsys):
        with open(eval_dir / "pairs.csv", "a", newline="") as fh:
            fh.write("ghost,missing.wav,ref.wav,\n")
        out = tmp_path / "results.csv"
        code = _run("evaluate", "--pairs", eval_dir / "pairs.csv", "--out", out)
        assert code == EXIT_OK
        assert "FAILED ghost" in capsys.readouterr().out
        values = _read_results(out)  # good pairs still evaluated
        assert ("same", "chroma") in values
        assert not any(pair_id == "ghost" for pair_id, _ in values)

    def test_missing_file_strict(self, eval_dir, tmp_path):
        with open(eval_dir / "pairs.csv", "a", newline="") as fh:
            fh.write("ghost,missing.wav,ref.wav,\n")
        code = _run(
            "evaluate", "--pairs", eval_dir / "pairs.csv",
            "--out", tmp_path / "results.csv", "--strict",
        )
        assert code == EXIT_FAILURES

    def test_missing_column(self, eval_dir, tmp_path, capsys):
        pairs = eval_dir / "pairs.csv"
        pairs.write_text("pair_id,reference\nsame,ref.wav\n")
        code = _run("evaluate", "--pairs", pairs, "--out", tmp_path / "r.csv")
        assert code == EXIT_CONFIG
        assert f"{pairs}: missing column output" in capsys.readouterr().err

    def test_pairs_csv_with_bom(self, eval_dir, tmp_path):
        """Spreadsheet exports start UTF-8 files with a byte order mark."""
        pairs = eval_dir / "pairs.csv"
        pairs.write_bytes(b"\xef\xbb\xbf" + pairs.read_bytes())
        out = tmp_path / "results.csv"
        code = _run("evaluate", "--pairs", pairs, "--metrics", "chroma", "--strict",
                    "--out", out)
        assert code == EXIT_OK
        assert set(_read_results(out)) == {("same", "chroma"), ("slow", "chroma")}

    def test_undecodable_pairs_csv(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_bytes(b"pair_id,output,reference\n\xff\xfe,a.wav,b.wav\n")
        code = _run("evaluate", "--pairs", pairs, "--out", tmp_path / "r.csv")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("row", ["p1,same.wav", "p1,,ref.wav,", "p1,same.wav,,"])
    def test_row_without_path_is_item_failure(self, eval_dir, tmp_path, capsys, row):
        with open(eval_dir / "pairs.csv", "a", newline="") as fh:
            fh.write(row + "\n")
        out = tmp_path / "results.csv"
        assert _run("evaluate", "--pairs", eval_dir / "pairs.csv", "--out", out) == EXIT_OK
        assert "FAILED p1: no " in capsys.readouterr().out
        assert ("same", "chroma") in _read_results(out)
        code = _run(
            "evaluate", "--pairs", eval_dir / "pairs.csv", "--out", out, "--strict"
        )
        assert code == EXIT_FAILURES

    def test_non_finite_score_bpm_is_item_failure(self, eval_dir, tmp_path, capsys):
        with open(eval_dir / "pairs.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pair_id", "output", "reference", "ratio", "score_bpm"])
            w.writerow(["same", "same.wav", "ref.wav", "", ""])
            w.writerow(["p1", "same.wav", "ref.wav", "", "nan"])
        out = tmp_path / "results.csv"
        argv = ["evaluate", "--pairs", eval_dir / "pairs.csv", "--metrics", "tempo", "--out", out]
        assert _run(*argv) == EXIT_OK
        assert "FAILED p1: score_bpm must be positive and finite" in capsys.readouterr().out
        values = _read_results(out)
        assert ("same", "tempo") in values
        assert not any(pair_id == "p1" for pair_id, _ in values)
        assert _run(*argv, "--strict") == EXIT_FAILURES

    def test_ratio_read_for_tempo_alone(self, eval_dir, tmp_path, capsys):
        """A ratio that is not a number fails a tempo pair, naming its
        column, and does not stop a chroma-only run from scoring the pair."""
        with open(eval_dir / "pairs.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pair_id", "output", "reference", "ratio", "score_bpm"])
            w.writerow(["c", "same.wav", "ref.wav", "fast", ""])
            w.writerow(["s", "same.wav", "ref.wav", "", "quick"])
        out = tmp_path / "results.csv"
        argv = ["evaluate", "--pairs", eval_dir / "pairs.csv", "--out", out]
        assert _run(*argv, "--metrics", "chroma", "--strict") == EXIT_OK
        assert set(_read_results(out)) == {("c", "chroma"), ("s", "chroma")}
        capsys.readouterr()
        assert _run(*argv, "--metrics", "tempo") == EXIT_OK
        printed = capsys.readouterr().out
        assert "FAILED c: ratio 'fast' is not a number" in printed
        assert "FAILED s: score_bpm 'quick' is not a number" in printed

    def test_wide_wav_decoded_in_bounded_memory(self, eval_dir, tmp_path):
        """A 26 MB WAV of 32,767 16-bit channels is scored with 48 MB of
        address space to spare: its float64 samples would take 105 MB."""
        channels, frames = 32767, 400
        tone = np.round(8000 * np.sin(2 * np.pi * 440 * np.arange(frames) / 44100))
        _write_pcm16(eval_dir / "wide.wav", tone, 44100, channels)
        (eval_dir / "pairs.csv").write_text("pair_id,output,reference\nw,wide.wav,ref.wav\n")
        out = tmp_path / "results.csv"
        done = _run_limited(48, "evaluate", "--pairs", eval_dir / "pairs.csv",
                            "--metrics", "chroma", "--out", out, "--strict")
        assert done.returncode == EXIT_OK, done.stderr
        assert set(_read_results(out)) == {("w", "chroma")}

    def test_resampled_wav_streams(self, tmp_path):
        """A 5-min 48 kHz mono self-pair is scored for tempo with 200 MB of
        address space to spare, where resampling the file whole needs more
        than 300 MB.  The spare covers importing scipy.signal, which adds
        about 151 MB of address space after the child takes its base
        (105 -> 256 MB); the slices resampled in flight need little more."""
        t = np.arange(300 * 48000) / 48000
        clicks = np.round(16000 * (np.mod(t, 0.5) < 0.01) * np.sin(2 * np.pi * 1000 * t))
        _write_pcm16(tmp_path / "p.wav", clicks, 48000)
        pairs = _write(tmp_path / "pairs.csv", "pair_id,output,reference\np,p.wav,p.wav\n")
        out = tmp_path / "results.csv"
        done = _run_limited(200, "evaluate", "--pairs", pairs, "--metrics", "tempo",
                            "--out", out, "--strict")
        assert done.returncode == EXIT_OK, done.stderr
        assert _read_results(out) == {("p", "tempo"): 0.0}

    def test_unknown_metric(self, eval_dir, tmp_path):
        code = _run(
            "evaluate", "--pairs", eval_dir / "pairs.csv",
            "--metrics", "vibes", "--out", tmp_path / "r.csv",
        )
        assert code == EXIT_CONFIG

    def test_repeated_pair_id(self, eval_dir, tmp_path, capsys):
        pairs = eval_dir / "pairs.csv"
        with open(pairs, "a", newline="") as fh:
            fh.write("same,slow.wav,ref.wav,1.5\n")
        out = tmp_path / "r.csv"
        assert _run("evaluate", "--pairs", pairs, "--out", out) == EXIT_CONFIG
        (error,) = capsys.readouterr().err.splitlines()
        assert error == f"error: {pairs}: pair_id 'same' appears twice"
        assert not out.exists()

    def test_empty_pairs(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("pair_id,output,reference\n")
        code = _run("evaluate", "--pairs", pairs, "--out", tmp_path / "r.csv")
        assert code == EXIT_CONFIG

    def test_hostile_wav_header_is_item_failure(self, eval_dir, tmp_path, capsys):
        zero = bytearray((eval_dir / "same.wav").read_bytes())
        zero[22:24] = b"\x00\x00"  # fmt channels
        (eval_dir / "zero.wav").write_bytes(bytes(zero))
        with open(eval_dir / "pairs.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pair_id", "output", "reference"])
            w.writerow(["p1", "same.wav", "ref.wav"])
            w.writerow(["p2", "zero.wav", "ref.wav"])
            w.writerow(["p3", "ref.wav", "ref.wav"])
        out = tmp_path / "results.csv"
        argv = ["evaluate", "--pairs", eval_dir / "pairs.csv", "--out", out]
        assert _run(*argv) == EXIT_OK
        captured = capsys.readouterr()
        assert "FAILED p2: " in captured.out and "zero channels" in captured.out
        assert "Traceback" not in captured.err
        assert {pair_id for pair_id, _ in _read_results(out)} == {"p1", "p3"}
        assert _run(*argv, "--strict") == EXIT_FAILURES


# ---------------------------------------------------------------------------
# synth


class TestSynth:
    def test_render_midi(self, midi_dir, tmp_path):
        out = tmp_path / "audio"
        code = _run("synth", midi_dir / "a.mid", "--out", out)
        assert code == EXIT_OK
        wav = out / "a.wav"
        assert wav.exists() and wav.stat().st_size > 1000

    def test_clicks(self, tmp_path):
        out = tmp_path / "audio"
        code = _run("synth", "--clicks", "120", "--duration", "5", "--out", out)
        assert code == EXIT_OK
        assert (out / "clicks_120bpm.wav").exists()

    def test_clicks_bad_bpm(self, tmp_path):
        code = _run("synth", "--clicks", "500", "--out", tmp_path / "audio")
        assert code == EXIT_CONFIG

    def test_no_inputs(self, tmp_path):
        assert _run("synth", "--out", tmp_path / "audio") == EXIT_CONFIG

    # SHA-256 of the WAVs the whole-buffer click renderer wrote, by BPM and
    # sample count: 2 * synth.CHUNK samples and one either side.  At 40.5
    # BPM a burst straddles the first chunk edge and one is cut by the end.
    _CLICK_DIGESTS = {
        (40.5, 131071): "d75d564bc66e1d8675f3ff7f746ab43d5374b1a1431805386f7a51ffd894f5ab",
        (40.5, 131072): "afa35f07aa39a59dd872dcbadc9aff6f0f820010046c100c69115b38e4a22110",
        (40.5, 131073): "e75731220038cf4c099fdcbe8387e6b7238990b080a77fc5930372d127ecf23d",
        (120.0, 131071): "5d7def1aedfc357d7d01caddb13a0d9c2a1ad7215206cca5fd1c7dc1ef1f2daf",
        (120.0, 131072): "ab5bfe27d1473f5a61381161a1f82224dc45cc8cad3e1e88f4fbdb0536235497",
        (120.0, 131073): "18c3e10accc0823958780e4e825d58248b3c5dc986e7b5f0ccafcae3f75431bc",
    }

    @pytest.mark.parametrize("bpm,samples", sorted(_CLICK_DIGESTS))
    def test_streamed_clicks_keep_their_bytes(self, tmp_path, bpm, samples):
        assert samples - 2 * synth.CHUNK in (-1, 0, 1)
        duration = samples / 44100
        assert math.ceil(duration * 44100) == samples
        out = tmp_path / "audio"
        code = _run("synth", "--clicks", bpm, "--duration", repr(duration), "--out", out)
        assert code == EXIT_OK
        data = (out / f"clicks_{bpm:g}bpm.wav").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self._CLICK_DIGESTS[bpm, samples]
        assert sorted(p.name for p in out.iterdir()) == [
            f"clicks_{bpm:g}bpm.wav", "index.json", "run_record.json"]

    def test_clicks_are_a_batch_item(self, tmp_path, capsys):
        """A click track that cannot be written is a failed row, as a MIDI
        render is."""
        out = tmp_path / "audio"
        wav = out / "clicks_120bpm.wav"
        wav.mkdir(parents=True)
        argv = ["synth", "--clicks", 120, "--duration", 1, "--out", out]
        assert _run(*argv) == EXIT_OK
        assert _run(*argv, "--strict") == EXIT_FAILURES
        assert "Traceback" not in capsys.readouterr().err
        (row,) = json.loads((out / "index.json").read_text())
        assert row["file"] == str(wav) and row["status"] == "error"
        assert sorted(p.name for p in out.iterdir()) == [
            "clicks_120bpm.wav", "index.json", "run_record.json"]

    @pytest.mark.parametrize("fault", ["render", "write"])
    def test_failed_item_leaves_no_partial_wav(self, midi_dir, tmp_path, monkeypatch, capsys,
                                               fault):
        """A failure part way through a file, in the render pass or while the
        WAV is written, leaves neither the WAV nor a temporary file."""

        def faulty(seq):
            def chunks():
                for k, chunk in enumerate(note_chunks(seq)):
                    if k == 2 and len(seq.notes) == 30:  # b.mid
                        raise ValueError("injected")
                    yield chunk

            return chunks()

        def short(spill, samples, gain):  # the spill runs out mid-file
            blocks = list(scaled(spill, samples, gain))
            return blocks[:-1] if samples == b_samples else blocks

        if fault == "render":
            note_chunks = synth.note_chunks
            monkeypatch.setattr(synth, "note_chunks", faulty)
        else:
            b_samples = len(render(parse_midi((midi_dir / "b.mid").read_bytes())))
            scaled = synth._scaled
            monkeypatch.setattr(synth, "_scaled", short)
        out = tmp_path / "audio"
        argv = ["synth", midi_dir / "a.mid", midi_dir / "b.mid", "--out", out]
        assert _run(*argv) == EXIT_OK
        rows = json.loads((out / "index.json").read_text())
        assert [r["status"] for r in rows] == ["ok", "error"]
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["a.wav", "index.json",
                                                          "run_record.json"]
        assert _run(*argv, "--strict") == EXIT_FAILURES

    def test_long_score_renders_in_bounded_memory(self, tmp_path):
        """A dense 3-min score renders with 48 MB of address space to spare
        after the imports, less than its 64 MB of float64 samples."""
        midi = tmp_path / "dense.mid"
        midi.write_bytes(write_midi(_dense_sequence(180.0)))
        out = tmp_path / "audio"
        done = _run_limited(48, "synth", midi, "--out", out, "--strict")
        assert done.returncode == EXIT_OK, done.stderr
        assert len(read_wav(out / "dense.wav")) > 170 * 44100

    def test_streamed_render_memory_does_not_grow(self, tmp_path):
        """From a 1-min to a 5-min score, traced peak memory grows by the
        notes' own size, where 4 more minutes of float64 are 85 MB."""
        peaks = []
        for minutes in (1, 5):
            seq = _dense_sequence(60.0 * minutes)
            tracemalloc.start()
            try:
                synth.write_rendering(tmp_path / "x.wav", synth.note_chunks(seq))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2e6


# ---------------------------------------------------------------------------
# option values that cannot work


@pytest.mark.parametrize(
    "argv",
    [
        *(["prompt", "--stage", "2", "--dropout", v] for v in ("2", "nan", "-0.5")),
        *(["prompt", "--stage", v] for v in ("5", "-1", "9")),
        *(["synth", "--clicks", v] for v in ("500", "nan", "0")),
        *(["synth", "--clicks", "120", "--duration", v] for v in ("1e12", "inf", "nan")),
        *([cmd, "--workers", "0"] for cmd in ("tokenize", "synth", "evaluate", "manifest")),
        # a click track would drop the MIDI input; a MIDI render ignores --duration
        ["synth", "--clicks", "120", "a.mid"],
        ["synth", "--duration", "2"],
        # only a speed augmentation has a tier
        ["augment", "a.mid", "--mode", "mistakes", "--tier", "Slow"],
        ["schedule-preview", "--steps", "-1"],
    ],
)
def test_unworkable_option_is_config_error(midi_dir, tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [midi_dir / a if a == "a.mid" else a for a in argv]
    midi = argv[0] == "tokenize" or argv[0] == "synth" and "--clicks" not in argv
    inputs = [midi_dir / "a.mid"] if midi else []
    out_flag = [] if argv[0] == "prompt" else ["--out", out]
    if argv[0] == "evaluate":  # its --out is the results file
        pairs = _write(tmp_path / "pairs.csv", "pair_id,output,reference\nx,a,a\n")
        inputs, out_flag = ["--pairs", pairs], ["--out", out / "results.csv"]
    if argv[0] == "manifest":
        inputs = ["--registry", _make_registry(tmp_path, n_pairs=1), "--stage", "0"]
    if argv[0] == "schedule-preview":
        man = tmp_path / "man"
        _run("manifest", "--registry", _make_registry(tmp_path, n_pairs=1), "--stage", "0",
             "--out", man)
        capsys.readouterr()
        inputs, out_flag = [man / "stage0.jsonl"], []
    assert _run(*argv, *inputs, *out_flag) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    # checked before any item runs or any output is written
    assert not out.exists()


@pytest.mark.parametrize("argv", [["tokenize"], ["synth", "--clicks", "120"]], ids=lambda a: a[0])
def test_out_that_is_a_file_is_config_error(midi_dir, tmp_path, capsys, argv):
    (tmp_path / "o").mkdir()
    afile = _write(tmp_path / "o" / "afile", "kept")
    inputs = [midi_dir / "a.mid"] if argv[0] == "tokenize" else []
    assert _run(*argv, *inputs, "--out", afile) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (error,) = err.splitlines()
    assert error.startswith("error: ") and str(afile) in error
    assert afile.read_text() == "kept"
    assert [p.name for p in afile.parent.iterdir()] == ["afile"]


def test_evaluate_out_that_is_a_directory_is_config_error(tmp_path, capsys):
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    write_wav(tmp_path / "x.wav", render(_sequence(n_notes=8)))
    pairs = _write(tmp_path / "pairs.csv", "pair_id,output,reference\nx,x.wav,x.wav\n")
    assert _run("evaluate", "--pairs", pairs, "--metrics", "chroma", "--out", outdir) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (error,) = captured.err.splitlines()
    assert error.startswith("error: ") and str(outdir) in error
    assert not any(outdir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "pairs.csv", "x.wav"]


@pytest.mark.parametrize(
    "argv", [["tokenize"], ["augment", "--mode", "mistakes"], ["synth"]], ids=lambda a: a[0]
)
def test_same_stem_inputs_are_config_error(midi_dir, tmp_path, capsys, argv):
    """Outputs are named by input stem, so x/a.mid and y/a.mid would
    overwrite each other's files."""
    other = tmp_path / "other"
    other.mkdir()
    shutil.copyfile(midi_dir / "b.mid", other / "a.mid")
    out = tmp_path / "out"
    code = _run(*argv, midi_dir / "a.mid", other / "a.mid", "--strict", "--out", out)
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    (error,) = captured.err.splitlines()
    assert error.startswith("error: ")
    assert str(midi_dir / "a.mid") in error and str(other / "a.mid") in error
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["augment", "a.mid", "--mode", "mistakes"],
        ["prompt", "--stage", "1"],
        ["manifest", "--registry", "registry.json", "--stage", "0"],
        ["schedule-preview", "stage0.jsonl"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_config_error(midi_dir, tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [midi_dir / a if a.endswith(".mid") else a for a in argv]
    argv += ["--seed", "-1"]
    if argv[0] in ("augment", "manifest"):
        argv += ["--out", out]
    assert _run(*argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: ") and "--seed" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        *([*argv, "--config", "cfg.json"] for argv in (
            ["tokenize", "a.mid"],
            ["augment", "a.mid", "--mode", "mistakes"],
            ["prompt", "--stage", "1"],
            ["manifest", "--registry", "registry.json", "--stage", "0"],
            ["schedule-preview", "man/stage0.jsonl"],
            ["evaluate", "--pairs", "pairs.csv"],
            ["synth", "a.mid"],
        )),
        ["synth", "a.mid", "--gain", "0.5"],
        ["manifest", "--registry", "registry.json", "--stage", "0", "--dropout", "0.5"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_deleted_options_refused(midi_dir, tmp_path, capsys, argv):
    """Each option is set by its flag alone: a config file, synth --gain and
    manifest --dropout are unknown arguments, refused before any work."""
    registry = _make_registry(tmp_path)
    man = tmp_path / "man"
    assert _run("manifest", "--registry", registry, "--stage", "0", "--out", man) == EXIT_OK
    given = {
        "a.mid": midi_dir / "a.mid",
        "registry.json": registry,
        "man/stage0.jsonl": man / "stage0.jsonl",
        "cfg.json": _write(tmp_path / "cfg.json", "{}"),
        "pairs.csv": _write(tmp_path / "pairs.csv", "pair_id,output,reference\np,x.wav,y.wav\n"),
    }
    argv = [given.get(a, a) for a in argv]
    out = tmp_path / "out"
    if argv[0] == "evaluate":
        argv += ["--out", out / "results.csv"]
    elif argv[0] not in ("prompt", "schedule-preview"):
        argv += ["--out", out]
    capsys.readouterr()
    assert _run(*argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert not out.exists()


# ---------------------------------------------------------------------------
# inputs past the 4 h limit


def _far_midi(path):
    """A 40-byte format-0 SMF, PPQ 1, tempo 0xFFFFFF (16.8 s per tick), with
    one note-on after a 0x0FFFFFFF-tick delta: the note starts at 4.5e9 s,
    about 450M ten-second windows and a 1.6 PB render."""
    track = bytes.fromhex("00FF5103FFFFFF" "FFFFFF7F903C40" "00FF2F00")
    path.write_bytes(
        b"MThd" + (6).to_bytes(4, "big") + bytes.fromhex("000000010001")
        + b"MTrk" + len(track).to_bytes(4, "big") + track
    )
    return path


class TestOverlongInput:
    @pytest.mark.parametrize(
        "argv,index",
        [
            (["tokenize"], "index.json"),
            (["augment", "--mode", "mistakes"], "report.json"),
            (["augment", "--mode", "speed"], "report.json"),
            (["synth"], "index.json"),
        ],
    )
    def test_item_failure(self, midi_dir, tmp_path, capsys, argv, index):
        far = _far_midi(midi_dir / "far.mid")
        out = tmp_path / "out"
        assert _run(*argv, midi_dir / "a.mid", far, "--out", out) == EXIT_OK
        rows = json.loads((out / index).read_text())
        assert [r["status"] for r in rows] == ["ok", "error"]
        assert "far.mid" in rows[1]["error"] and "input limit" in rows[1]["error"]
        assert "Traceback" not in capsys.readouterr().err
        assert _run(*argv, far, "--out", out, "--strict") == EXIT_FAILURES

    def test_manifest_item_failure(self, tmp_path, capsys):
        registry = _make_registry(tmp_path)
        _far_midi(registry.parent / "synth-a" / "p0.mid")
        out = tmp_path / "man"
        argv = ["manifest", "--registry", registry, "--stage", "0", "--out", out]
        assert _run(*argv) == EXIT_OK
        error = json.loads((out / "stage0.meta.json").read_text())["failed"]["synth-a/p0.mid"]
        assert "p0.mid" in error and "input limit" in error
        assert "Traceback" not in capsys.readouterr().err
        assert _run(*argv, "--strict") == EXIT_FAILURES


    def test_memory_error_is_item_failure(self, tmp_path):
        """A 400 s self-pair needs 8,612^2 bytes, about 71 MiB, of DTW steps,
        more than the 64 MB of address space the child has left after its
        imports: that pair fails alone. The 3-min and 13 s pairs are still
        scored, since the DTW holds its steps and a strip of distances."""
        for name, seconds in (("big", 400.0), ("mid", 180.0), ("small", 13.0)):
            synth.write_rendering(tmp_path / f"{name}.wav", synth.click_chunks(120.0, seconds))
        pairs = _write(tmp_path / "pairs.csv", "pair_id,output,reference\n"
                       "big,big.wav,big.wav\nmid,mid.wav,mid.wav\nsmall,small.wav,small.wav\n")
        out = tmp_path / "results.csv"
        argv = ["evaluate", "--pairs", pairs, "--metrics", "chroma,tempo", "--out", out]
        done = _run_limited(64, *argv)
        assert done.returncode == EXIT_OK, done.stderr
        assert "FAILED big: " in done.stdout and "allocate" in done.stdout
        assert "big: " in done.stderr and "Traceback" not in done.stderr
        assert set(_read_results(out)) == {("mid", "chroma"), ("mid", "tempo"),
                                           ("small", "chroma"), ("small", "tempo")}
        strict = _run_limited(64, *argv, "--strict")
        assert strict.returncode == EXIT_FAILURES, strict.stderr


# ---------------------------------------------------------------------------
# workers, run records


class TestConfigAndRecords:
    def test_run_record_written(self, midi_dir, tmp_path):
        """The record counts the items that ran and those that failed, by
        error class; the index keeps the rows it held before."""
        out = tmp_path / "tok"
        _run("tokenize", midi_dir / "a.mid", midi_dir / "broken.mid", "--out", out)
        record = json.loads((out / "run_record.json").read_text())
        assert record["command"] == "tokenize"
        assert record["config"]["strict"] is False
        assert "seed" not in record["config"]
        for key in ("encore", "numpy", "python"):
            assert key in record["versions"]
        assert record["counts"] == {"ok": 1, "failed": {"MidiParseError": 1}}
        assert 1 < record["peak_rss_mb"] < 4096
        failed = json.loads((out / "index.json").read_text())[1]
        assert set(failed) == {"file", "status", "error"}

    def test_run_record_versions_name_loaded_packages(self, midi_dir, eval_dir, tmp_path):
        """versions names numpy and scipy only when the run loaded them, so
        writing the record imports neither: scipy is loaded only to resample
        a WAV that is not at 44.1 kHz. Each run is a fresh child, since this
        process may have loaded scipy already."""
        t = np.arange(2 * 48000) / 48000
        _write_pcm16(eval_dir / "r48.wav", np.round(8000 * np.sin(2 * np.pi * 440 * t)), 48000)
        _write(eval_dir / "p44.csv", "pair_id,output,reference\np,ref.wav,ref.wav\n")
        _write(eval_dir / "p48.csv", "pair_id,output,reference\np,r48.wav,r48.wav\n")
        runs = {"tok": ["tokenize", midi_dir / "a.mid", "--out", tmp_path / "tok"]}
        for khz in ("44", "48"):
            runs[f"e{khz}"] = ["evaluate", "--pairs", eval_dir / f"p{khz}.csv", "--metrics",
                               "chroma", "--out", tmp_path / f"e{khz}" / "r.csv"]
        seen = {}
        for name, argv in runs.items():
            done = _run_child(*argv)
            assert done.returncode == EXIT_OK, done.stderr
            record = json.loads((tmp_path / name / "run_record.json").read_text())
            seen[name] = sorted(record["versions"])
        assert seen == {
            "tok": ["encore", "python"],
            "e44": ["encore", "numpy", "python"],
            "e48": ["encore", "numpy", "python", "scipy"],
        }

    def test_bad_workers(self, midi_dir, tmp_path):
        code = _run("tokenize", midi_dir / "a.mid", "--out", tmp_path / "tok",
                    "--workers", "0")
        assert code == EXIT_CONFIG

    def test_workers_env_ignored(self, midi_dir, tmp_path, monkeypatch, capsys):
        seen = []
        for env in (None, "abc"):
            if env is not None:
                monkeypatch.setenv("ENCORE_WORKERS", env)
            out = tmp_path / f"tok-{env}"
            assert _run("tokenize", midi_dir / "a.mid", midi_dir / "b.mid", "--out", out) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_record.json"}
            seen.append((files, capsys.readouterr().out))
        assert seen[0][0] and seen[0] == seen[1]

    @pytest.mark.parametrize(
        "command",
        ["tokenize", "synth", "evaluate", "manifest", "augment --mode mistakes",
         "augment --mode speed"],
    )
    def test_outputs_independent_of_workers(
        self, midi_dir, eval_dir, tmp_path, capsys, command
    ):
        out = tmp_path / "out"
        if command == "evaluate":
            with open(eval_dir / "pairs.csv", "a", newline="") as fh:
                fh.write("ghost,missing.wav,ref.wav,\n")
            argv = ["evaluate", "--pairs", eval_dir / "pairs.csv", "--out", out / "r.csv"]
        elif command == "manifest":
            registry = _make_registry(tmp_path, n_pairs=3)
            (registry.parent / "synth-a" / "p1.mid").write_bytes(b"MThd garbage")
            argv = ["manifest", "--registry", registry, "--stage", "0", "--out", out]
        else:
            names = ("a.mid", "broken.mid", "b.mid")
            argv = [*command.split(), *(midi_dir / n for n in names), "--out", out]
        seen = []
        for workers in ("1", "3"):
            assert _run(*argv, "--workers", workers) == EXIT_OK
            files = {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "run_record.json"
            }
            seen.append((files, capsys.readouterr().out))
            shutil.rmtree(out)
        files, stdout = seen[0]  # the failing item is reported too
        assert files and ("FAILED" in stdout or '"status": "error"' in stdout)
        assert seen[0] == seen[1]

    def test_unknown_command(self):
        assert _run("renormalize") == EXIT_CONFIG

    def test_version_flag(self, capsys):
        assert _run("--version") == EXIT_OK
        assert capsys.readouterr().out.strip()


_MAIN = "import sys\nfrom encore.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def _run_child(*argv, **env):
    """Run the CLI in a fresh child process, with env added to its environment."""
    src = str(Path(encore.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", _MAIN, *map(str, argv)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, **env},
    )


# ---------------------------------------------------------------------------
# text files are UTF-8 whatever the locale: under LC_ALL=C with UTF-8 mode
# off, Python's default text encoding is ASCII

C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0"}


class TestUtf8Files:
    def test_evaluate_writes_utf8_under_c_locale(self, eval_dir, tmp_path):
        pairs = eval_dir / "pairs.csv"
        pairs.write_text("pair_id,output,reference\ncafé,ref.wav,ref.wav\n", encoding="utf-8")
        out = tmp_path / "r.csv"
        done = _run_child("evaluate", "--pairs", pairs, "--metrics", "chroma", "--out", out,
                          **C_LOCALE)
        assert done.returncode == EXIT_OK and "Traceback" not in done.stderr, done.stderr
        assert out.read_bytes() == "pair_id,metric,value\r\ncafé,chroma,1.0\r\n".encode()

    def test_utf8_registry_under_c_locale(self, tmp_path):
        """A registry and a metadata file holding non-ASCII text build the
        same manifest under the C locale as under a UTF-8 one."""
        registry = _make_registry(tmp_path, n_pairs=1)
        _list_metadata(registry)
        (registry.parent / "synth-a" / "m.json").write_text(
            json.dumps({"title": "Rêverie", "composer": "Fauré"}, ensure_ascii=False),
            encoding="utf-8")
        doc = json.loads(registry.read_text())
        doc["datasets"][0].update(stage=1, instrumentation="piano à quatre mains")
        registry.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        argv = ["manifest", "--registry", registry, "--stage", "1", "--strict"]
        done = _run_child(*argv, "--out", tmp_path / "c", **C_LOCALE)
        assert done.returncode == EXIT_OK and "Traceback" not in done.stderr, done.stderr
        assert _run(*argv, "--out", tmp_path / "utf8") == EXIT_OK
        manifest = (tmp_path / "c" / "stage1.jsonl").read_bytes()
        assert manifest == (tmp_path / "utf8" / "stage1.jsonl").read_bytes()
        assert "Fauré" in "".join(r["prompt"] for r in _records(tmp_path / "c" / "stage1.jsonl"))


# ---------------------------------------------------------------------------
# stdout is UTF-8 whatever the locale, and a reader that closes it loses
# only the report: the outputs, the run record and the exit code stand


def _run_child_bytes(*argv, stdout=subprocess.PIPE, **env):
    """_run_child with stdout as given, and the output streams as bytes."""
    src = str(Path(encore.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", _MAIN, *map(str, argv)],
        stdout=stdout, stderr=subprocess.PIPE, timeout=120,
        env={**os.environ, "PYTHONPATH": src, **env},
    )


def _run_child_closed_stdout(*argv):
    """Run the CLI in a child whose stdout is a pipe nobody reads: every
    write to it fails with a broken pipe."""
    read, write = os.pipe()
    os.close(read)
    try:
        return _run_child_bytes(*argv, stdout=write)
    finally:
        os.close(write)


class TestStdout:
    def test_failed_pair_reported_under_c_locale(self, eval_dir, tmp_path):
        pairs = eval_dir / "pairs.csv"
        pairs.write_text("pair_id,output,reference\ncafé,missing.wav,ref.wav\n",
                         encoding="utf-8")
        out = tmp_path / "r" / "r.csv"
        done = _run_child_bytes("evaluate", "--pairs", pairs, "--metrics", "chroma",
                                "--out", out, **C_LOCALE)
        assert done.returncode == EXIT_OK and b"Traceback" not in done.stderr, done.stderr
        assert done.stdout.startswith("FAILED café: ".encode())
        assert out.read_bytes() == b"pair_id,metric,value\r\n"
        assert json.loads((out.parent / "run_record.json").read_text())["counts"]["failed"] == {
            "FileNotFoundError": 1}

    def test_log_line_names_the_cli_in_utf8_under_c_locale(self, eval_dir, tmp_path):
        """Run as python -m, the way the benchmark runs it, a log line still
        names encore.cli, and stderr is UTF-8 like stdout."""
        pairs = eval_dir / "pairs.csv"
        pairs.write_text("pair_id,output,reference\ncafé,missing.wav,ref.wav\n",
                         encoding="utf-8")
        src = str(Path(encore.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "encore.cli", "evaluate", "--pairs", str(pairs),
             "--metrics", "chroma", "--out", str(tmp_path / "r.csv")],
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, **C_LOCALE},
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stderr.startswith("ERROR encore.cli: café: ".encode()), done.stderr

    def test_prompt_argument_bytes_kept_under_c_locale(self):
        done = _run_child_bytes("prompt", "--stage", "1", "--title", "Étude", "--dropout", "0",
                                **C_LOCALE)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == "synthesis, Étude\n".encode()

    def test_closed_stdout_keeps_tokenize_outputs(self, tmp_path):
        """A report of 100 lines outgrows stdout's buffer, so it meets the
        closed pipe before the outputs are written."""
        data = write_midi(_sequence(n_notes=8))
        (tmp_path / "in").mkdir()
        midis = [tmp_path / "in" / f"m{k:03d}.mid" for k in range(100)]
        for midi in midis:
            midi.write_bytes(data)
        out = tmp_path / "tok"
        done = _run_child_closed_stdout("tokenize", *midis, "--out", out)
        assert done.returncode == EXIT_OK and b"Traceback" not in done.stderr, done.stderr
        assert len(json.loads((out / "index.json").read_text())) == 100
        assert json.loads((out / "run_record.json").read_text())["counts"]["ok"] == 100

    def test_closed_stdout_ends_schedule_preview(self, tmp_path):
        registry = _make_registry(tmp_path)
        assert _run("manifest", "--registry", registry, "--stage", "0",
                    "--out", tmp_path / "man") == EXIT_OK
        done = _run_child_closed_stdout("schedule-preview", tmp_path / "man" / "stage0.jsonl",
                                        "--steps", "20000")
        assert done.returncode == EXIT_OK and done.stderr == b"", done.stderr


# ---------------------------------------------------------------------------
# start-up imports: scipy.signal is loaded only to resample, scipy.io never

_IMPORT_PROBE = """
import json, sys
if sys.argv[2] == "blocked":
    sys.modules["scipy.signal"] = None  # any import of them now fails
    sys.modules["scipy.io"] = None
from encore.cli import main
from pathlib import Path

def heavy():
    return sorted(m for m in ("scipy.signal", "scipy.io") if sys.modules.get(m))

out = Path(sys.argv[1])
seen = {"import": heavy()}
codes = [main(["synth", "--clicks", "120", "--duration", "10", "--out", str(out)])]
seen["synth"] = heavy()
(out / "pairs.csv").write_text(
    "pair_id,output,reference\\nc,clicks_120bpm.wav,clicks_120bpm.wav\\n")
codes.append(main(["evaluate", "--pairs", str(out / "pairs.csv"), "--metrics",
                   "chroma,tempo", "--strict", "--out", str(out / "results.csv")]))
seen["evaluate"] = heavy()
print(json.dumps({"codes": codes, "seen": seen}))
"""


@pytest.mark.parametrize("mode", ["watched", "blocked"])
def test_commands_run_without_scipy_signal_or_io(tmp_path, mode):
    src = str(Path(encore.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path), mode],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [EXIT_OK, EXIT_OK]
    assert report["seen"] == {"import": [], "synth": [], "evaluate": []}
    results = _read_results(tmp_path / "results.csv")
    assert results[("c", "chroma")] == pytest.approx(1.0)
    assert results[("c", "tempo")] == pytest.approx(0.0)


_MODULES_PROBE = """
import json, sys
import encore.notes, encore.smf, encore.tokenizer
numpy = "numpy" in sys.modules
import encore.cli
print(json.dumps({"numpy": numpy, "scipy": "scipy" in sys.modules}))
"""


def test_token_codec_imports_no_numpy_and_cli_no_scipy():
    src = str(Path(encore.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"numpy": False, "scipy": False}


# ---------------------------------------------------------------------------
# each command imports only what it runs

_SCOPE_PROBE = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # any import of numpy now fails
from encore.cli import main
code = main(sys.argv[2:])
watched = ("numpy", "scipy", "encore.audio_io", "encore.metrics", "encore.synth",
           "encore._kernels", "_hashlib")
print(json.dumps({"code": code, "loaded": [m for m in watched if sys.modules.get(m)]}))
"""


def _run_scoped(mode, *argv):
    """Run the CLI in a fresh child; returns its exit code, the watched
    modules it loaded and the report lines it printed before them."""
    src = str(Path(encore.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _SCOPE_PROBE, mode, *map(str, argv)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0 and done.stdout, done.stderr
    *printed, last = done.stdout.splitlines()
    probe = json.loads(last)
    return probe["code"], probe["loaded"], printed


def test_commands_load_only_what_they_run(midi_dir, eval_dir, tmp_path):
    """A symbolic command loads no audio module and no numpy, even when it
    draws, and no command but evaluate on a WAV not at 44.1 kHz loads scipy
    or, through scipy, `_hashlib` (which maps OpenSSL's libcrypto)."""
    registry = _make_registry(tmp_path)
    t = np.arange(2 * 48000) / 48000
    _write_pcm16(eval_dir / "r48.wav", np.round(8000 * np.sin(2 * np.pi * 440 * t)), 48000)
    _write(eval_dir / "p44.csv", "pair_id,output,reference\np,ref.wav,ref.wav\n")
    _write(eval_dir / "p48.csv", "pair_id,output,reference\np,r48.wav,r48.wav\n")
    a = midi_dir / "a.mid"
    runs = {
        "--version": ["--version"],
        "tokenize": ["tokenize", a, "--out", tmp_path / "tok"],
        "prompt 0": ["prompt", "--stage", "0"],
        "prompt 1": ["prompt", "--stage", "1", "--title", "T"],
        "augment mistakes": ["augment", a, "--mode", "mistakes", "--out", tmp_path / "am"],
        "augment speed": ["augment", a, "--mode", "speed", "--out", tmp_path / "as"],
        "manifest": ["manifest", "--registry", registry, "--stage", "0",
                     "--out", tmp_path / "man"],
        "schedule-preview": ["schedule-preview", tmp_path / "man" / "stage0.jsonl"],
        "synth": ["synth", a, "--out", tmp_path / "wav"],
        "evaluate 44.1 kHz": ["evaluate", "--pairs", eval_dir / "p44.csv",
                              "--out", tmp_path / "e44.csv"],
        "evaluate 48 kHz": ["evaluate", "--pairs", eval_dir / "p48.csv",
                            "--out", tmp_path / "e48.csv"],
    }
    seen = {}
    for name, argv in runs.items():
        code, loaded, _ = _run_scoped("watched", *argv)
        assert code == EXIT_OK, name
        seen[name] = loaded
    audio = ["numpy", "encore.audio_io", "encore.metrics", "encore._kernels"]
    assert seen == {
        "--version": [],
        "tokenize": [],
        "prompt 0": [],
        "prompt 1": [],
        "augment mistakes": [],
        "augment speed": [],
        "manifest": [],
        "schedule-preview": [],
        "synth": ["numpy", "encore.audio_io", "encore.synth", "encore._kernels"],
        "evaluate 44.1 kHz": audio,
        "evaluate 48 kHz": ["numpy", "scipy", *audio[1:], "_hashlib"],
    }


def test_commands_run_without_numpy(midi_dir, tmp_path, capsys):
    """With numpy unimportable, --version, tokenize, prompt, augment, manifest
    and schedule-preview print and write what they do with it."""
    for argv, want in ((["--version"], encore.__version__),
                       (["prompt", "--stage", "0"], "Synthesis")):
        code, _, printed = _run_scoped("blocked", *argv)
        assert (code, printed) == (EXIT_OK, [want])
    mids = [midi_dir / "a.mid", midi_dir / "b.mid"]
    code, _, printed = _run_scoped("blocked", "tokenize", *mids, "--out", tmp_path / "bare")
    assert code == EXIT_OK
    assert _run("tokenize", *mids, "--out", tmp_path / "numpy") == EXIT_OK
    assert printed == capsys.readouterr().out.splitlines()
    bare, with_numpy = ({p.name: p.read_bytes() for p in out.iterdir()
                         if p.name != "run_record.json"}
                        for out in (tmp_path / "bare", tmp_path / "numpy"))
    assert len(bare) == 6 and bare == with_numpy  # 5 .tok files and the index

    def outputs(out):
        return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*")
                if p.is_file() and p.name != "run_record.json"}

    out = tmp_path / "drawn"
    a = midi_dir / "a.mid"
    for argv in (["augment", a, "--mode", "mistakes", "--out", out / "am"],
                 ["augment", a, "--mode", "speed", "--out", out / "as"],
                 ["manifest", "--registry", _make_registry(tmp_path), "--stage", "merged",
                  "--out", out / "man"],
                 ["prompt", "--stage", "1", "--title", "T", "--seed", "3"],
                 ["schedule-preview", out / "man" / "merged.jsonl"]):
        # the same out dir for both runs, so printed paths match too
        code, _, printed = _run_scoped("watched", *argv)
        written = outputs(out)
        assert code == EXIT_OK and printed, argv[0]
        assert _run_scoped("blocked", *argv) == (EXIT_OK, [], printed), argv[0]
        assert outputs(out) == written, argv[0]
    assert {"am/a_mistakes.mid", "as/a_speed.mid", "man/merged.jsonl"} <= written.keys()


# ---------------------------------------------------------------------------
# --workers is the one level of parallelism: main caps the native thread
# pools, and a pool of workers takes the largest items first

_POOLS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_pools(pools: dict, *argv, script=_MAIN):
    """Run script in a fresh child whose environment sets, of the native
    thread-pool variables, only those in pools."""
    src = str(Path(encore.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in _POOLS}
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, timeout=120, env={**env, "PYTHONPATH": src, **pools},
    )
    assert done.returncode == EXIT_OK, done.stderr
    return done


_POOL_PROBE = """
import json, os, sys
if sys.argv[1] == "numpy":
    import numpy
from encore.cli import main
before = dict(os.environ)
code = main(["prompt", "--stage", "0"])
changed = {k: v for k, v in os.environ.items() if before.get(k) != v}
print(json.dumps({"code": code, "changed": changed, "removed": sorted(before.keys() - os.environ)}))
"""


@pytest.mark.parametrize("pools, loaded, capped", [
    ({}, "none", True),
    ({}, "numpy", False),
    ({"OPENBLAS_NUM_THREADS": "2"}, "none", False),
    ({"OMP_NUM_THREADS": "3"}, "none", False),
    ({"MKL_NUM_THREADS": ""}, "none", False),
])
def test_main_caps_native_pools_unless_set(pools, loaded, capped):
    """main sets the three variables to 1 when the caller set none of them
    and numpy is not loaded; otherwise it leaves the environment as it is."""
    done = _run_pools(pools, loaded, script=_POOL_PROBE)
    probe = json.loads(done.stdout.splitlines()[-1])
    want = dict.fromkeys(_POOLS, "1") if capped else {}
    assert probe == {"code": EXIT_OK, "changed": want, "removed": []}


def _outputs(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run_record.json"}


def test_audio_outputs_ignore_native_pool_size(midi_dir, tmp_path):
    """synth WAVs and chroma and tempo values are the same bytes with one
    BLAS thread (the cap) and with two set by the caller."""
    seen = []
    for name, pools in (("capped", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / name
        _run_pools(pools, "synth", midi_dir / "a.mid", midi_dir / "b.mid", "--workers", "2",
                   "--out", out)
        _write(out / "pairs.csv", "pair_id,output,reference\nab,a.wav,b.wav\n"
                                  "ba,b.wav,a.wav\naa,a.wav,a.wav\n")
        _run_pools(pools, "evaluate", "--pairs", out / "pairs.csv", "--metrics", "chroma,tempo",
                   "--workers", "2", "--out", out / "results" / "r.csv")
        seen.append(_outputs(out))
    assert {"a.wav", "b.wav", "results/r.csv"} <= seen[0].keys()
    assert seen[0] == seen[1]


def test_frechet_ignores_workers_and_pool_size(tmp_path):
    """At D = 512 a Frechet value follows the BLAS thread count in its last
    digits; under the cap it is the same at 1 and 2 workers, and the same as
    with the caller's own one-thread setting."""
    rng = np.random.default_rng(512)
    lines = ["pair_id,output,reference"]
    for k in range(3):
        for side, scale in (("o", 1.0 + k / 10), ("r", 1.0)):
            vectors = rng.standard_normal((600, 512)) * scale
            write_embeddings(tmp_path / f"{side}{k}.emb", EmbeddingSet(vectors))
        lines.append(f"p{k},o{k}.emb,r{k}.emb")
    _write(tmp_path / "pairs.csv", "\n".join(lines) + "\n")
    seen = set()
    for pools in ({}, dict.fromkeys(_POOLS, "1")):
        for workers in ("1", "2"):
            out = tmp_path / f"r{len(seen)}.csv"
            _run_pools(pools, "evaluate", "--pairs", tmp_path / "pairs.csv", "--metrics",
                       "frechet", "--workers", workers, "--out", out)
            seen.add(out.read_bytes())
    (results,) = seen
    assert results.count(b",frechet,") == 3


def test_pool_takes_the_largest_items_first(tmp_path, capsys):
    """Two workers start the items two at a time, largest first with ties in
    input order, and the rows come back in input order."""
    sizes = {"a": 3, "b": 1, "c": 9, "d": 3, "e": 3, "f": 0}
    started = []
    lock = threading.Lock()
    pair = threading.Barrier(2, timeout=30)  # an item ends once a second one has started

    def work(name):
        with lock:
            started.append(name)
        pair.wait()
        return {"size": sizes[name]}

    rows = []
    args = argparse.Namespace(command="test", workers=2, strict=False)
    assert cli._run_batch(args, [(n, n) for n in sizes], work, tmp_path, rows.extend,
                          size=sizes.get) == EXIT_OK
    assert [set(started[k : k + 2]) for k in (0, 2, 4)] == [{"c", "a"}, {"d", "e"}, {"b", "f"}]
    assert [(row["file"], row["size"]) for row in rows] == list(sizes.items())
    assert [json.loads(line)["file"] for line in capsys.readouterr().out.splitlines()] == list(sizes)
    assert cli._bytes(tmp_path / "missing.wav") == cli._bytes("nul\0byte") == 0
