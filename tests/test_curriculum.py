import json
import logging
import time
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encore.augment import SPEED_TIERS
from encore.curriculum import (
    _ALIGN_EPS,
    _alignment_index,
    MERGED_BUDGET,
    STAGE_BUDGETS,
    DatasetEntry,
    ManifestRecord,
    Pair,
    StageManifest,
    atomic_write,
    build_manifest,
    load_pairs,
    load_registry,
    read_manifest,
    schedule,
    window_records,
    write_manifest,
)
from encore.notes import WINDOW_SECONDS, Note, NoteSequence
from encore.seeds import derive_seed
from encore.smf import write_midi
from encore.tokenizer import TokenStream

SLOW_KEYWORDS = next(t for t in SPEED_TIERS if t.name == "Slow").keywords


def _midi_bytes(seconds=25.0):
    notes = [
        Note(0.5 * k, 60 + k % 12, 0.5 * k + 0.25) for k in range(int(seconds * 2))
    ]
    return write_midi(NoteSequence(notes, total_duration=seconds))


def _dataset(root, name, *, pairs, **registry_row):
    """Create one dataset directory and return its registry row."""
    droot = root / name
    droot.mkdir()
    index_lines = []
    for stem, meta in pairs:
        (droot / f"{stem}.mid").write_bytes(_midi_bytes())
        (droot / f"{stem}.wav").touch()
        row = {"midi": f"{stem}.mid", "audio": f"{stem}.wav"}
        if meta is not None:
            (droot / f"{stem}.json").write_text(json.dumps(meta))
            row["metadata"] = f"{stem}.json"
        index_lines.append(json.dumps(row))
    (droot / "pairs.jsonl").write_text("\n".join(index_lines) + "\n")
    return {
        "name": name,
        "root": name,
        "pair_index": f"{name}/pairs.jsonl",
        **registry_row,
    }


FULL_ALIGNMENT = {
    "alignment": [[0.0, 0.0, 17.0], [10.0, 17.0, 30.6], [20.0, 30.6, 39.0]],
    "title": "Etude Op.10 No.3",
    "composer": "Chopin",
}


def _build(registry, stage, seed, out_dir):
    """What ``encore manifest`` builds when every pair succeeds: the records
    of every pair of the stage's datasets (all datasets for stage None)."""
    pools = {
        entry: [
            record
            for pair in load_pairs(entry)
            for record in window_records(entry, pair, seed, out_dir)
        ]
        for entry in registry
        if stage in (None, entry.stage)
    }
    return build_manifest(stage, seed, pools)


@pytest.fixture
def corpus(tmp_path):
    rows = [
        _dataset(
            tmp_path, "synth-a",
            pairs=[("alpha", None), ("beta", None)],
            stage=0, input_kind="score", target_kind="synth_audio",
            instrumentation="Piano",
        ),
        _dataset(
            tmp_path, "speed-b",
            pairs=[("gamma", FULL_ALIGNMENT)],
            stage=1, input_kind="score", target_kind="synth_perf_audio",
            instrumentation="Piano",
        ),
        _dataset(
            tmp_path, "perf-c",
            pairs=[
                ("delta", FULL_ALIGNMENT),
                # only the first window is aligned; the others get skipped
                ("epsilon", {"alignment": [[0.0, 3.0, 14.0]]}),
            ],
            stage=2, input_kind="performance", target_kind="perf_audio",
            instrumentation="Piano",
        ),
        _dataset(
            tmp_path, "mistake-d",
            pairs=[("zeta", FULL_ALIGNMENT)],
            stage=3, input_kind="performance", target_kind="perf_audio",
            instrumentation="Piano",
        ),
        _dataset(
            tmp_path, "style-e",
            pairs=[("eta", {**FULL_ALIGNMENT, "performer": "Maria Stader",
                            "expression": "virtuosic"})],
            stage=4, input_kind="performance", target_kind="perf_audio",
            instrumentation="Piano",
        ),
    ]
    registry_path = tmp_path / "registry.json"
    registry_path.write_text(json.dumps({"datasets": rows}))
    return registry_path


def test_load_registry(corpus):
    entries = load_registry(corpus)
    assert [e.stage for e in entries] == [0, 1, 2, 3, 4]
    assert entries[0].name == "synth-a"
    assert not entries[0].needs_alignment
    assert entries[2].needs_alignment


def test_registry_entries_carry_their_pairs(corpus):
    """Each entry holds the pairs load_registry checked, which leave it
    equal to, and hashed like, the same entry without them."""
    for entry in load_registry(corpus):
        assert entry.pairs and entry.pairs == tuple(load_pairs(entry))
        bare = replace(entry, pairs=())
        assert bare == entry and hash(bare) == hash(entry)


def test_registry_missing_file_rejected(corpus, tmp_path):
    doc = json.loads(corpus.read_text())
    index = tmp_path / doc["datasets"][0]["pair_index"]
    rows = index.read_text().splitlines()
    rows.append(json.dumps({"midi": "ghost.mid", "audio": "alpha.wav"}))
    index.write_text("\n".join(rows))
    with pytest.raises(ValueError, match="ghost.mid"):
        load_registry(corpus)


def test_registry_validation_errors(tmp_path):
    with pytest.raises(ValueError, match="stage"):
        DatasetEntry("x", 5, "score", "synth_audio", "", tmp_path, tmp_path)
    with pytest.raises(ValueError, match="input_kind"):
        DatasetEntry("x", 0, "midi", "synth_audio", "", tmp_path, tmp_path)
    with pytest.raises(ValueError, match="target_kind"):
        DatasetEntry("x", 0, "score", "mp3", "", tmp_path, tmp_path)
    with pytest.raises(ValueError, match="weight"):
        DatasetEntry("x", 0, "score", "synth_audio", "", tmp_path, tmp_path, weight=0)
    (tmp_path / "registry.json").write_text(json.dumps({"datasets": [{"name": "x"}]}))
    with pytest.raises(ValueError, match="missing field"):
        load_registry(tmp_path / "registry.json")
    (tmp_path / "registry.json").write_text(json.dumps({"datasets": []}))
    with pytest.raises(ValueError, match="non-empty"):
        load_registry(tmp_path / "registry.json")


def test_registry_row_errors_name_the_registry(corpus, tmp_path):
    doc = json.loads(corpus.read_text())
    doc["datasets"][0]["stage"] = 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    name = doc["datasets"][0]["name"]
    with pytest.raises(ValueError) as err:
        load_registry(bad)
    assert str(err.value) == f"{bad}: {name}: stage 7 outside 0..4"
    index = tmp_path / doc["datasets"][0]["pair_index"]
    index.write_text(json.dumps({"midi": "ghost.mid", "audio": "alpha.wav"}) + "\n")
    with pytest.raises(ValueError) as err:
        load_registry(corpus)
    assert str(err.value) == f"{corpus}: {name}: missing file ghost.mid"


def test_failed_atomic_write_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write(target, "text")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize("key", ["midi", "audio", "metadata"])
@pytest.mark.parametrize("ref", ["../outside", "a/../../outside", "/abs/outside"])
def test_pair_paths_stay_under_the_root(corpus, tmp_path, key, ref):
    doc = json.loads(corpus.read_text())
    index = tmp_path / doc["datasets"][0]["pair_index"]
    pair = {"midi": "x.mid", "audio": "x.wav", "metadata": "x.json", key: ref}
    index.write_text("\n" + json.dumps(pair) + "\n")
    with pytest.raises(ValueError) as err:
        load_registry(corpus)
    assert str(err.value) == f"{index}:2: {key} path {ref!r} is absolute or has '..'"


def test_stage0_manifest_constant_prompt(corpus, tmp_path):
    out = tmp_path / "out"
    manifest = _build(load_registry(corpus), 0, seed=7, out_dir=out)
    assert manifest.step_budget == 20_000
    # two 25 s files cut into ceil(25/10) windows each
    assert len(manifest.records) == 6
    for rec in manifest.records:
        assert rec.prompt == "Synthesis"
        assert rec.stage == 0
        assert rec.perf_end - rec.perf_start == 10.0
        assert rec.target_audio_ref.startswith("synth-a/")
        stream = TokenStream.from_bytes((out / rec.token_file).read_bytes())
        assert stream.window_length == 10.0


def test_seventeen_second_window_prompts_slow(corpus, tmp_path):
    manifest = _build(load_registry(corpus), 1, seed=7, out_dir=tmp_path / "o")
    first = next(r for r in manifest.records if r.window_ref.endswith("#0"))
    assert (first.perf_start, first.perf_end) == (0.0, 17.0)
    assert any(kw in first.prompt for kw in SLOW_KEYWORDS)
    assert "synthesis" in first.prompt


def test_unaligned_windows_skipped_with_warning(corpus, tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="encore.curriculum"):
        manifest = _build(load_registry(corpus), 2, seed=7, out_dir=tmp_path / "o")
    # delta contributes 3 aligned windows, epsilon only its first
    assert len(manifest.records) == 4
    skipped = [r for r in caplog.records if "no alignment" in r.message]
    assert len(skipped) == 2


def _alignment_by_scan(metadata, offset):
    """The window lookup as it was: the first alignment row within
    _ALIGN_EPS of the window's offset, found by scanning every row; kept
    as the oracle of the one-pass _alignment_index."""
    for score_offset, perf_start, perf_end in metadata.get("alignment", ()):
        if abs(score_offset - offset) <= _ALIGN_EPS:
            return float(perf_start), float(perf_end)
    return None


# score offsets on, near, exactly _ALIGN_EPS from, and far from window offsets
_score_offsets = st.one_of(
    st.builds(lambda k, d: k * WINDOW_SECONDS + d, st.integers(-2, 6),
              st.sampled_from([0.0, _ALIGN_EPS, -_ALIGN_EPS, 0.5e-6, -2e-6, 3e-6])),
    st.builds(lambda k, d: k * WINDOW_SECONDS + d, st.integers(-2, 6),
              st.floats(-3e-6, 3e-6)),
    st.integers(-30, 70),
    st.floats(-100.0, 100.0),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_score_offsets, st.floats(0.0, 50.0), st.floats(0.1, 9.0)),
                max_size=12))
def test_alignment_index_matches_scan(rows):
    metadata = {"alignment": [[offset, start, start + length] for offset, start, length in rows]}
    intervals = _alignment_index(metadata)
    for k in range(6):
        assert intervals.get(k) == _alignment_by_scan(metadata, k * WINDOW_SECONDS)


def test_alignment_lookup_is_one_pass(tmp_path):
    """A 4 h score (1440 windows) whose 200,000 alignment rows match no
    window: each window looks its row up in one index of the rows, so the
    pair is not windows x rows."""
    (tmp_path / "long.mid").write_bytes(write_midi(NoteSequence(
        [Note(0.0, 60, 1.0), Note(14399.0, 62, 14400.0)])))
    rows = [[10.0 * (i % 1440) + 5.0, float(i), i + 1.0] for i in range(200_000)]
    (tmp_path / "long.json").write_text(json.dumps({"alignment": rows}))
    entry = DatasetEntry("perf", 2, "performance", "perf_audio", "", tmp_path,
                         tmp_path / "pairs.jsonl")
    pair = Pair(midi="long.mid", audio="long.wav", metadata="long.json")
    started = time.perf_counter()
    assert window_records(entry, pair, 7, tmp_path / "o") == []
    assert time.perf_counter() - started < 5


def test_mistake_stage_prompt(corpus, tmp_path):
    manifest = _build(load_registry(corpus), 3, seed=7, out_dir=tmp_path / "o")
    for rec in manifest.records:
        assert "performance with mistakes" in rec.prompt


def test_style_stage_prompt(corpus, tmp_path):
    manifest = _build(load_registry(corpus), 4, seed=7, out_dir=tmp_path / "o")
    for rec in manifest.records:
        assert "style of Maria Stader" in rec.prompt
        assert "virtuosic" in rec.prompt


def test_manifest_deterministic_and_seed_sensitive(corpus, tmp_path):
    registry = load_registry(corpus)
    a = _build(registry, 0, seed=7, out_dir=tmp_path / "a")
    b = _build(registry, 0, seed=7, out_dir=tmp_path / "b")
    c = _build(registry, 0, seed=8, out_dir=tmp_path / "c")
    assert a.records == b.records
    assert sorted(r.window_ref for r in a.records) == sorted(
        r.window_ref for r in c.records
    )


def test_manifest_ignores_pair_listing_order(corpus, tmp_path):
    registry = load_registry(corpus)
    a = _build(registry, 0, seed=7, out_dir=tmp_path / "a")
    index = corpus.parent / "synth-a" / "pairs.jsonl"
    rows = index.read_text().strip().splitlines()
    index.write_text("\n".join(reversed(rows)) + "\n")
    b = _build(load_registry(corpus), 0, seed=7, out_dir=tmp_path / "b")
    assert a.records == b.records


def test_manifest_without_datasets_rejected(corpus, tmp_path):
    registry = [e for e in load_registry(corpus) if e.stage == 0]
    with pytest.raises(ValueError, match="stage 3: no usable windows"):
        _build(registry, 3, seed=7, out_dir=tmp_path / "o")
    with pytest.raises(ValueError, match="stage 9"):
        _build(registry, 9, seed=7, out_dir=tmp_path / "o")


def test_all_windows_skipped_rejected(tmp_path):
    row = _dataset(
        tmp_path, "bare",
        pairs=[("solo", {"alignment": []})],
        stage=2, input_kind="performance", target_kind="perf_audio",
        instrumentation="Piano",
    )
    (tmp_path / "registry.json").write_text(json.dumps({"datasets": [row]}))
    registry = load_registry(tmp_path / "registry.json")
    with pytest.raises(ValueError, match="no usable windows"):
        _build(registry, 2, seed=7, out_dir=tmp_path / "o")


def test_records_in_canonical_order(corpus, tmp_path):
    doc = json.loads(corpus.read_text())
    doc["datasets"].reverse()  # registry order does not matter either
    corpus.write_text(json.dumps(doc))
    manifest = _build(load_registry(corpus), 0, seed=7, out_dir=tmp_path / "o")
    assert [r.window_ref for r in manifest.records] == [
        f"synth-a/{stem}.mid#{k}" for stem in ("alpha", "beta") for k in range(3)
    ]
    assert manifest.records[3].token_file == "tokens/synth-a/beta.mid_w0000.tok"


@pytest.mark.parametrize("weight,expected", [(0.5, 3), (2.0, 12)])
def test_dataset_weight_scales_contribution(corpus, tmp_path, weight, expected):
    doc = json.loads(corpus.read_text())
    doc["datasets"][0]["weight"] = weight
    corpus.write_text(json.dumps(doc))
    manifest = _build(load_registry(corpus), 0, seed=7, out_dir=tmp_path / "o")
    assert len(manifest.records) == expected
    # picks keep canonical order and each window is used whole times over
    refs = [r.window_ref for r in manifest.records]
    assert refs == sorted(refs, key=lambda ref: (ref.split("#")[0], int(ref.split("#")[1])))
    if weight == 2.0:
        assert all(refs.count(ref) == 2 for ref in refs)


def test_registry_refuses_weight_above_merged_budget(corpus):
    doc = json.loads(corpus.read_text())
    doc["datasets"][0]["weight"] = 1e9
    corpus.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"{corpus}: synth-a: weight must be .* at most"):
        load_registry(corpus)
    DatasetEntry("x", 0, "score", "synth_audio", "", corpus, corpus, weight=MERGED_BUDGET)


@pytest.mark.parametrize("stage", [0, None])
def test_pool_above_its_cap_raises(tmp_path, stage):
    """Two records may pool up to the manifest's step budget, and no more."""
    budget = MERGED_BUDGET if stage is None else STAGE_BUDGETS[stage]
    records = [_record("a"), _record("b")]
    for weight, fits in ((budget / 2, True), (budget / 2 + 1, False)):
        entry = DatasetEntry("ds", 0, "score", "synth_audio", "", tmp_path, tmp_path,
                             weight=weight)
        if fits:
            assert len(build_manifest(stage, 7, {entry: records}).records) == budget
        else:
            with pytest.raises(ValueError, match=rf"ds: weight .* pools {budget + 2} "):
                build_manifest(stage, 7, {entry: records})


# ---------------------------------------------------------------------------
# schedule


def _record(tag, stage=0):
    return ManifestRecord(
        window_ref=f"{tag}#0",
        token_file=f"{tag}.tok",
        prompt="Synthesis",
        target_audio_ref=f"{tag}.wav",
        perf_start=0.0,
        perf_end=10.0,
        stage=stage,
    )


def test_budget_semantics():
    a = StageManifest(stage=0, step_budget=2, records=(_record("a"),))
    b = StageManifest(stage=1, step_budget=3, records=(_record("b", 1),))
    steps = list(schedule([a, b]))
    assert [s for s, _ in steps] == [0, 1, 2, 3, 4]
    assert [r.window_ref for _, r in steps] == ["a#0", "a#0", "b#0", "b#0", "b#0"]


def test_epochs_cover_all_records():
    records = tuple(_record(t) for t in "abc")
    manifest = StageManifest(stage=0, step_budget=6, records=records)
    refs = [r.window_ref for _, r in schedule([manifest], seed=3)]
    assert sorted(refs[:3]) == ["a#0", "b#0", "c#0"]
    assert sorted(refs[3:]) == ["a#0", "b#0", "c#0"]


def test_schedule_golden():
    """Two stages of 2.5 epochs over four records each, at one seed: every
    epoch is a fresh permutation, and the last one stops at the budget."""
    manifests = [
        StageManifest(stage=s, step_budget=10, records=tuple(_record(t, s) for t in "abcd"))
        for s in (0, 1)
    ]
    steps = list(schedule(manifests, seed=5))
    assert [s for s, _ in steps] == list(range(20))
    assert [r.stage for _, r in steps] == [0] * 10 + [1] * 10
    assert "".join(r.window_ref[0] for _, r in steps) == "cbadcdbadc" + "bdcacbdacb"


def test_paper_budgets_sum_and_order(corpus, tmp_path):
    assert STAGE_BUDGETS == {0: 20_000, 1: 10_000, 2: 15_000, 3: 4_000, 4: 10_000}
    registry = load_registry(corpus)
    manifests = [
        _build(registry, s, seed=7, out_dir=tmp_path / "o") for s in range(5)
    ]
    boundaries = {}
    step = -1
    for step, record in schedule(manifests, seed=7):
        boundaries.setdefault(record.stage, step)
    assert step + 1 == 59_000
    assert boundaries == {0: 0, 1: 20_000, 2: 30_000, 3: 45_000, 4: 49_000}


def test_schedule_requires_stage_order():
    a = StageManifest(stage=1, step_budget=1, records=(_record("a", 1),))
    b = StageManifest(stage=0, step_budget=1, records=(_record("b"),))
    with pytest.raises(ValueError, match="ordered"):
        list(schedule([a, b]))
    with pytest.raises(ValueError, match="duplicate"):
        list(schedule([b, b]))


def test_schedule_rejects_empty_manifest():
    empty = StageManifest(stage=0, step_budget=5, records=())
    with pytest.raises(ValueError, match="empty"):
        list(schedule([empty]))


def test_schedule_checks_its_manifests_when_called():
    """Each refusal comes from the call, before any step is asked for."""
    a = StageManifest(stage=1, step_budget=1, records=(_record("a", 1),))
    b = StageManifest(stage=0, step_budget=1, records=(_record("b"),))
    empty = StageManifest(stage=2, step_budget=1, records=())
    for manifests, match in (([a, b], "ordered"), ([b, b], "duplicate"), ([b, empty], "empty")):
        with pytest.raises(ValueError, match=match):
            schedule(manifests)


def test_merged_pool_for_no_curriculum(corpus, tmp_path):
    registry = load_registry(corpus)
    manifests = [
        _build(registry, s, seed=7, out_dir=tmp_path / "o") for s in range(5)
    ]
    merged = _build(registry, None, seed=7, out_dir=tmp_path / "o")
    assert merged.stage is None
    assert merged.step_budget == MERGED_BUDGET == 60_000
    # canonical order: stage, then dataset, MIDI path and window
    assert merged.records == tuple(r for m in manifests for r in m.records)
    steps = list(schedule([merged]))
    assert len(steps) == 60_000
    with pytest.raises(ValueError, match="merged pool: no usable windows"):
        build_manifest(None, 7, {})


def test_manifest_file_round_trip(corpus, tmp_path):
    manifest = _build(load_registry(corpus), 4, seed=7, out_dir=tmp_path / "o")
    path = tmp_path / "stage4.jsonl"
    write_manifest(manifest, path)
    meta = json.loads((tmp_path / "stage4.meta.json").read_text())
    assert meta == {"stage": 4, "step_budget": 10_000, "record_count": 3, "failed": {}}
    assert read_manifest(path) == manifest
    write_manifest(manifest, path, {"style-e/x.mid": "missing MThd header (byte 0)"})
    meta = json.loads((tmp_path / "stage4.meta.json").read_text())
    assert meta["failed"] == {"style-e/x.mid": "missing MThd header (byte 0)"}
    assert read_manifest(path) == manifest
    assert sorted(p.name for p in tmp_path.glob("stage4*")) == ["stage4.jsonl", "stage4.meta.json"]


def test_merged_manifest_records_keep_their_stages(tmp_path):
    path = tmp_path / "merged.jsonl"
    merged = StageManifest(stage=None, step_budget=MERGED_BUDGET,
                           records=(_record("a", stage=0), _record("b", stage=3)))
    write_manifest(merged, path)
    assert read_manifest(path) == merged
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**asdict(_record("c")), "stage": 5}) + "\n")
    with pytest.raises(ValueError) as err:
        read_manifest(path)
    assert str(err.value) == f"{path}:3: stage 5 outside 0..4"


def test_derive_seed_stability():
    assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")
    assert derive_seed(7, "a", "b") != derive_seed(7, "a", "c")
    assert derive_seed(7, "a", "b") != derive_seed(8, "a", "b")
    assert 0 <= derive_seed(2**63, "x") < 2**64
    with pytest.raises(ValueError):
        derive_seed(7)


def test_stage_manifest_validation():
    with pytest.raises(ValueError, match="step_budget"):
        StageManifest(stage=0, step_budget=0, records=(_record("a"),))
