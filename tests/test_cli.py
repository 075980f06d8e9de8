"""End-to-end tests for the command line interface.

Each test drives main() with an argv list, the same entry the console
script uses, and checks outputs on disk plus the exit code contract:
0 ok, 1 per-item failures under --strict, 2 configuration error.
"""

import csv
import json

import numpy as np
import pytest

from encore.audio_io import write_wav
from encore.cli import EXIT_CONFIG, EXIT_FAILURES, EXIT_OK, main
from encore.metrics import EmbeddingSet, write_embeddings
from encore.notes import Note, NoteSequence
from encore.smf import parse_midi, write_midi
from encore.synth import render
from encore.tokenizer import TokenStream


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


# ---------------------------------------------------------------------------
# tokenize


class TestTokenize:
    def test_happy_path(self, midi_dir, tmp_path, capsys):
        out = tmp_path / "tok"
        code = _run("tokenize", midi_dir / "a.mid", midi_dir / "b.mid", "--out", out)
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "a.mid: " in stdout and "windows" in stdout
        index = json.loads((out / "index.json").read_text())
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
        assert "FAILED" in capsys.readouterr().out
        index = json.loads((out / "index.json").read_text())
        assert index[1]["status"] == "error"

    def test_bad_file_strict(self, midi_dir, tmp_path):
        code = _run(
            "tokenize", midi_dir / "broken.mid", "--out", tmp_path / "tok", "--strict"
        )
        assert code == EXIT_FAILURES

    def test_no_tmp_left_behind(self, midi_dir, tmp_path):
        out = tmp_path / "tok"
        _run("tokenize", midi_dir / "a.mid", "--out", out)
        assert not list(out.glob("*.tmp"))

    def test_window_flag_changes_segmentation(self, midi_dir, tmp_path):
        out10 = tmp_path / "w10"
        out5 = tmp_path / "w5"
        _run("tokenize", midi_dir / "a.mid", "--out", out10)
        _run("tokenize", midi_dir / "a.mid", "--out", out5, "--window", "5")
        n10 = json.loads((out10 / "index.json").read_text())[0]["windows"]
        n5 = json.loads((out5 / "index.json").read_text())[0]["windows"]
        assert n5 > n10


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


# ---------------------------------------------------------------------------
# manifest / schedule-preview


def _make_registry(tmp_path, n_pairs=2):
    root = tmp_path / "reg"
    ds = root / "synth-a"
    ds.mkdir(parents=True)
    for k in range(n_pairs):
        (ds / f"p{k}.mid").write_bytes(write_midi(_sequence()))
        (ds / f"p{k}.wav").touch()
    rows = [json.dumps({"midi": f"p{k}.mid", "audio": f"p{k}.wav"}) for k in range(n_pairs)]
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

    def test_unknown_metric(self, eval_dir, tmp_path):
        code = _run(
            "evaluate", "--pairs", eval_dir / "pairs.csv",
            "--metrics", "vibes", "--out", tmp_path / "r.csv",
        )
        assert code == EXIT_CONFIG

    def test_empty_pairs(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("pair_id,output,reference\n")
        code = _run("evaluate", "--pairs", pairs, "--out", tmp_path / "r.csv")
        assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# synth


class TestSynth:
    def test_render_midi(self, midi_dir, tmp_path):
        out = tmp_path / "audio"
        code = _run("synth", midi_dir / "a.mid", "--out", out)
        assert code == EXIT_OK
        wav = out / "a.wav"
        assert wav.exists() and wav.stat().st_size > 1000

    def test_overlong_input_is_item_failure(self, midi_dir, tmp_path, capsys):
        # 40-byte format-0 SMF, PPQ 1, tempo 0xFFFFFF (16.8 s per tick), one
        # note-on after a 0x0FFFFFFF-tick delta: the note starts at 4.5e9 s
        track = bytes.fromhex("00FF5103FFFFFF" "FFFFFF7F903C40" "00FF2F00")
        far = midi_dir / "far.mid"
        far.write_bytes(
            b"MThd" + (6).to_bytes(4, "big") + bytes.fromhex("000000010001")
            + b"MTrk" + len(track).to_bytes(4, "big") + track
        )
        out = tmp_path / "audio"
        assert _run("synth", midi_dir / "a.mid", far, "--out", out) == EXIT_OK
        rows = json.loads((out / "index.json").read_text())
        assert [r["status"] for r in rows] == ["ok", "error"]
        assert "far.mid" in rows[1]["error"] and "render limit" in rows[1]["error"]
        assert "Traceback" not in capsys.readouterr().err
        assert _run("synth", far, "--out", out, "--strict") == EXIT_FAILURES

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


# ---------------------------------------------------------------------------
# config file, workers, run records


class TestConfigAndRecords:
    def test_config_file_fills_unset(self, midi_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "tok"
        cfg.write_text(json.dumps({"window": 5.0, "out": str(out)}))
        code = _run("tokenize", midi_dir / "a.mid", "--config", cfg)
        assert code == EXIT_OK
        index = json.loads((out / "index.json").read_text())
        assert index[0]["windows"] == 5  # 25 s at window 5

    def test_flag_beats_config(self, midi_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": 5.0}))
        out = tmp_path / "tok"
        code = _run(
            "tokenize", midi_dir / "a.mid", "--config", cfg,
            "--window", "25", "--out", out,
        )
        assert code == EXIT_OK
        index = json.loads((out / "index.json").read_text())
        assert index[0]["windows"] == 1

    def test_unknown_config_key(self, midi_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = _run("tokenize", midi_dir / "a.mid", "--config", cfg,
                    "--out", tmp_path / "tok")
        assert code == EXIT_CONFIG

    def test_malformed_config(self, midi_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = _run("tokenize", midi_dir / "a.mid", "--config", cfg,
                    "--out", tmp_path / "tok")
        assert code == EXIT_CONFIG

    def test_wrong_typed_config_value(self, midi_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": "wide"}))
        code = _run("tokenize", midi_dir / "a.mid", "--config", cfg,
                    "--out", tmp_path / "tok")
        assert code == EXIT_CONFIG
        assert "expects float" in capsys.readouterr().err

    def test_config_int_accepted_for_float(self, midi_dir, tmp_path):
        # JSON has a single number type; 5 must work where 5.0 does
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "tok"
        cfg.write_text(json.dumps({"window": 5}))
        code = _run("tokenize", midi_dir / "a.mid", "--config", cfg, "--out", out)
        assert code == EXIT_OK
        index = json.loads((out / "index.json").read_text())
        assert index[0]["windows"] == 5

    def test_config_bool_rejects_int(self, midi_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strict": 1}))
        code = _run("tokenize", midi_dir / "a.mid", "--config", cfg,
                    "--out", tmp_path / "tok")
        assert code == EXIT_CONFIG

    def test_run_record_written(self, midi_dir, tmp_path):
        out = tmp_path / "tok"
        _run("tokenize", midi_dir / "a.mid", "--out", out)
        record = json.loads((out / "run_record.json").read_text())
        assert record["command"] == "tokenize"
        assert record["config"]["seed"] == 0
        for key in ("encore", "numpy", "scipy", "python"):
            assert key in record["versions"]

    def test_workers_flag_same_results(self, midi_dir, tmp_path):
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        _run("augment", midi_dir / "a.mid", midi_dir / "b.mid",
             "--mode", "mistakes", "--out", out1)
        _run("augment", midi_dir / "a.mid", midi_dir / "b.mid",
             "--mode", "mistakes", "--out", out2, "--workers", "4")
        assert (out1 / "a_mistakes.mid").read_bytes() == (out2 / "a_mistakes.mid").read_bytes()
        assert (out1 / "b_mistakes.mid").read_bytes() == (out2 / "b_mistakes.mid").read_bytes()
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert [r["file"] for r in r1] == [r["file"] for r in r2]  # order kept

    def test_workers_env(self, midi_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("ENCORE_WORKERS", "2")
        out = tmp_path / "tok"
        assert _run("tokenize", midi_dir / "a.mid", "--out", out) == EXIT_OK
        assert (out / "index.json").exists()

    def test_bad_workers(self, midi_dir, tmp_path):
        code = _run("tokenize", midi_dir / "a.mid", "--out", tmp_path / "tok",
                    "--workers", "0")
        assert code == EXIT_CONFIG

    def test_unknown_command(self):
        assert _run("renormalize") == EXIT_CONFIG

    def test_version_flag(self, capsys):
        assert _run("--version") == EXIT_OK
        assert capsys.readouterr().out.strip()
