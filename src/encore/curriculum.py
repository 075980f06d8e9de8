"""Dataset registry, stage manifests, and the staged training schedule.

A registry file lists datasets with their curriculum stage. For one pair,
``window_records`` cuts the score into 10 s windows, writes each window's
tokens to ``tokens/<dataset>/<midi path>_wNNNN.tok``, renders the stage's
prompt per window, and pairs every record with its target audio interval.
``build_manifest`` pools the datasets' records, scaled by weight, into a
stage manifest or the merged no-curriculum pool, in canonical order:
stage, dataset, MIDI path, window. The schedule then walks manifests stage
by stage, cycling within a stage in a fresh seeded permutation every
epoch, the first included, until its step budget runs out. Prompts and
the schedule draw from ``seeds.Rng``, so building a manifest loads no numpy.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .notes import WINDOW_SECONDS, segment
from .prompts import PromptSpec, ratio_to_keyword, render_prompt
from .seeds import Rng, derive_seed
from .smf import parse_midi
from .tokenizer import encode

log = logging.getLogger(__name__)

STAGE_BUDGETS = {0: 20_000, 1: 10_000, 2: 15_000, 3: 4_000, 4: 10_000}
# the no-curriculum ablation trains on one merged pool for a flat budget
MERGED_BUDGET = 60_000

INPUT_KINDS = ("score", "performance")
TARGET_KINDS = ("synth_audio", "perf_audio", "synth_perf_audio")

# how close a sidecar alignment offset must sit to a window offset
_ALIGN_EPS = 1e-6

# JSON types of the fields of registry rows, pair-index lines, metadata and
# manifest records
_TEXT = (str, type(None))
_NUMBER = (int, float)
_ROW_REQUIRED = dict.fromkeys(
    ("name", "input_kind", "target_kind", "root", "pair_index"), str
) | {"stage": int}
_ROW_OPTIONAL = {"instrumentation": str, "weight": _NUMBER}
_PAIR_REQUIRED = {"midi": str, "audio": str}
_METADATA_OPTIONAL = dict.fromkeys(
    ("title", "composer", "performer", "expression"), _TEXT
) | {"alignment": list}
_RECORD = dict.fromkeys(
    ("window_ref", "token_file", "prompt", "target_audio_ref"), str
) | dict.fromkeys(("perf_start", "perf_end"), _NUMBER) | {"stage": int}


def _is(value, want) -> bool:
    """isinstance for JSON values, where a bool is not a number."""
    return isinstance(value, want) and not isinstance(value, bool)


def _interval(start, end) -> bool:
    """Whether start < end are finite (a JSON reader takes NaN and Infinity)."""
    return abs(start) <= sys.float_info.max and abs(end) <= sys.float_info.max and start < end


def _object(value, where, required: dict, optional: dict) -> dict:
    """value, if it is a JSON object whose fields have the given types;
    otherwise ValueError naming ``where``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected a JSON object, got {value!r}")
    for key, want in (required | optional).items():
        if key not in value:
            if key in required:
                raise ValueError(f"{where}: missing field {key!r}")
        elif not _is(value[key], want):
            raise ValueError(f"{where}: field {key!r} has the wrong type: {value[key]!r}")
    return value


def atomic_write(path: Path, text: str) -> None:
    """Write text through a temporary file and a rename, so a reader sees
    the old file or the new one, never part of one; a failed write leaves
    no temporary file behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, or nested too deep
        raise ValueError(f"{path}: {exc}") from None


def _json_lines(path: Path):
    """(line number, value) for every non-blank line of a JSON-lines file;
    each line, ended by \\n, is decoded alone, so an error names its line."""
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    yield number, json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None


@dataclass(frozen=True)
class DatasetEntry:
    """One row of the dataset registry."""

    name: str
    stage: int
    input_kind: str
    target_kind: str
    instrumentation: str
    root_path: Path
    pair_index: Path
    weight: float = 1.0
    # the pairs load_registry read and checked; entries key the pools of
    # build_manifest, so the pairs take no part in equality or hashing
    pairs: tuple[Pair, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.stage not in STAGE_BUDGETS:
            raise ValueError(f"{self.name}: stage {self.stage} outside 0..4")
        if self.input_kind not in INPUT_KINDS:
            raise ValueError(f"{self.name}: unknown input_kind {self.input_kind!r}")
        if self.target_kind not in TARGET_KINDS:
            raise ValueError(f"{self.name}: unknown target_kind {self.target_kind!r}")
        # above MERGED_BUDGET, a dataset of two or more windows passes any
        # manifest's pool cap (see _apply_weight)
        if not 0 < self.weight <= MERGED_BUDGET:
            raise ValueError(f"{self.name}: weight must be positive and at most {MERGED_BUDGET}")

    @property
    def needs_alignment(self) -> bool:
        return self.target_kind in ("perf_audio", "synth_perf_audio")


@dataclass(frozen=True)
class Pair:
    midi: str
    audio: str
    metadata: str | None = None


@dataclass(frozen=True)
class ManifestRecord:
    window_ref: str
    token_file: str
    prompt: str
    target_audio_ref: str
    perf_start: float
    perf_end: float
    stage: int


@dataclass(frozen=True)
class StageManifest:
    stage: int | None  # None for the merged no-curriculum pool
    step_budget: int
    records: tuple[ManifestRecord, ...]

    def __post_init__(self):
        if self.step_budget <= 0:
            raise ValueError(f"step_budget must be positive, got {self.step_budget}")
        object.__setattr__(self, "records", tuple(self.records))


def load_registry(path: str | os.PathLike) -> list[DatasetEntry]:
    """Read a registry JSON file and validate every pair index it names;
    each entry carries its pairs.

    Relative dataset paths resolve against the registry file's directory.
    Dataset names become token directories, so each must be one plain path
    component and name one dataset only.
    """
    path = Path(path)
    doc = _read_json(path)
    rows = doc.get("datasets") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{path}: registry must hold a non-empty 'datasets' list")
    base = path.parent
    entries = []
    for row in rows:
        _object(row, f"{path}: registry row", _ROW_REQUIRED, _ROW_OPTIONAL)
        name = row["name"]
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ValueError(f"{path}: dataset name {name!r} is not one plain path component")
        if any(e.name == name for e in entries):
            raise ValueError(f"{path}: dataset name {name!r} appears twice")
        try:
            entry = DatasetEntry(
                name=name,
                stage=row["stage"],
                input_kind=row["input_kind"],
                target_kind=row["target_kind"],
                instrumentation=row.get("instrumentation", ""),
                root_path=base / row["root"],
                pair_index=base / row["pair_index"],
                weight=row.get("weight", 1.0),
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        pairs = load_pairs(entry)
        for pair in pairs:
            # a MIDI is read per item, so one that is a directory fails alone
            for ref, usable in ((pair.midi, Path.exists), (pair.audio, Path.is_file),
                                (pair.metadata, Path.is_file)):
                if ref is not None and not usable(entry.root_path / ref):
                    raise ValueError(f"{path}: {entry.name}: missing file {ref}")
        entries.append(replace(entry, pairs=tuple(pairs)))
    return entries


def load_pairs(entry: DatasetEntry) -> list[Pair]:
    """Read an entry's pair index, canonically sorted by MIDI path.

    Every path must be non-empty and stay under the dataset root
    (relative, no ``..``). MIDI paths name token files, so each must also appear once.
    """
    pairs = []
    seen = set()
    for number, row in _json_lines(entry.pair_index):
        where = f"{entry.pair_index}:{number}"
        _object(row, where, _PAIR_REQUIRED, {"metadata": _TEXT})
        for key in ("midi", "audio", "metadata"):
            if row.get(key) == "":
                raise ValueError(f"{where}: {key} path is empty")
            ref = Path(row.get(key) or "")
            if ref.is_absolute() or ".." in ref.parts:
                raise ValueError(f"{where}: {key} path {row[key]!r} is absolute or has '..'")
        midi = Path(row["midi"])
        if midi in seen:
            raise ValueError(f"{where}: midi {row['midi']!r} is listed twice")
        seen.add(midi)
        pairs.append(Pair(midi=row["midi"], audio=row["audio"], metadata=row.get("metadata")))
    # manifest content must not depend on listing order
    pairs.sort(key=lambda p: p.midi)
    return pairs


def _load_metadata(entry: DatasetEntry, pair: Pair) -> dict:
    if pair.metadata is None:
        return {}
    path = entry.root_path / pair.metadata
    metadata = _object(_read_json(path), path, {}, _METADATA_OPTIONAL)
    for row in metadata.get("alignment", ()):
        if not (isinstance(row, list) and len(row) == 3
                and all(_is(v, _NUMBER) for v in row)
                and abs(row[0]) <= sys.float_info.max and _interval(row[1], row[2])):
            raise ValueError(f"{path}: alignment rows are [score_offset, perf_start, perf_end],"
                             " finite, with perf_start < perf_end")
    return metadata


def _alignment_index(metadata: dict) -> dict[int, tuple[float, float]]:
    """Window index -> (perf_start, perf_end) of the first alignment row
    whose score offset lies within _ALIGN_EPS of that window's offset."""
    intervals = {}
    for score_offset, perf_start, perf_end in metadata.get("alignment", ()):
        k = round(score_offset / WINDOW_SECONDS)
        if abs(score_offset - k * WINDOW_SECONDS) <= _ALIGN_EPS:
            intervals.setdefault(k, (float(perf_start), float(perf_end)))
    return intervals


def _prompt_spec(
    entry: DatasetEntry, metadata: dict, stage: int, keyword: str | None
) -> PromptSpec:
    """Each field at the stages that carry it; stage 0 renders a fixed prompt."""
    performance = stage > 0 and entry.input_kind == "performance"
    return PromptSpec(
        sonification="performance" if performance else "synthesis",
        stage=stage,
        speed_keyword=keyword,
        title=metadata.get("title"),
        composer=metadata.get("composer"),
        instrumentation=entry.instrumentation,
        mistake=True if stage == 3 else None,
        performer=metadata.get("performer") if stage == 4 else None,
        expression_label=metadata.get("expression") if stage == 4 else None,
    )


def _apply_weight(entry: DatasetEntry, records: list, seed: int, budget: int) -> list:
    """The max(1, round(weight * n)) records a dataset of n records gives,
    in their order. With q, r = divmod(that, n), every record appears q
    times, and the r records that rank first by a seed derived from their
    window reference once more. A schedule of budget steps draws at most
    budget records, so a pool above max(n, budget) raises ValueError."""
    if not records:
        return records
    pooled = max(1, round(entry.weight * len(records)))
    if pooled > max(len(records), budget):
        raise ValueError(f"{entry.name}: weight {entry.weight} pools {pooled} of its"
                         f" {len(records)} records; the cap is max({len(records)}, {budget})")
    whole, extra = divmod(pooled, len(records))
    picked = set()
    if extra:
        ranked = sorted(records, key=lambda r: derive_seed(seed, r.window_ref, "weight"))
        picked = {r.window_ref for r in ranked[:extra]}
    return [r for r in records for _ in range(whole + (r.window_ref in picked))]


def window_records(
    entry: DatasetEntry, pair: Pair, seed: int, out_dir: str | os.PathLike
) -> list[ManifestRecord]:
    """Cut, tokenize, and prompt one pair into its records, in window order.

    Each window's tokens are written to
    ``out_dir/tokens/<dataset>/<midi path>_wNNNN.tok``. Performance-target
    pairs need a sidecar alignment per window (score offset mapped to an
    audio interval); windows without one are skipped with a warning. The
    performance/score duration ratio picks the speed keyword. Prompts keep
    each optional field with probability 0.5, ``render_prompt``'s default.
    """
    stage = entry.stage
    metadata = _load_metadata(entry, pair)
    seq = parse_midi((entry.root_path / pair.midi).read_bytes(), source_id=pair.midi)
    intervals = _alignment_index(metadata)
    records = []
    for k, window in enumerate(segment(seq)):
        ref = f"{entry.name}/{pair.midi}#{k}"
        if entry.needs_alignment:
            interval = intervals.get(k)
            if interval is None:
                log.warning("%s: no alignment for window %d, skipped", ref, k)
                continue
            perf_start, perf_end = interval
        else:
            perf_start = window.offset
            perf_end = window.offset + window.length
        ratio = (perf_end - perf_start) / window.length
        keyword = None
        if stage >= 1:
            keyword = ratio_to_keyword(ratio, derive_seed(seed, ref, "keyword"))
        spec = _prompt_spec(entry, metadata, stage, keyword)
        prompt = render_prompt(spec, rng_seed=derive_seed(seed, ref, "prompt"))
        token_file = Path("tokens", entry.name, f"{pair.midi}_w{k:04d}.tok")
        target = Path(out_dir) / token_file
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(encode(window).to_bytes())
        records.append(ManifestRecord(
            window_ref=ref, token_file=str(token_file), prompt=prompt,
            target_audio_ref=f"{entry.name}/{pair.audio}",
            perf_start=perf_start, perf_end=perf_end, stage=stage,
        ))
    return records


def build_manifest(
    stage: int | None, seed: int, pools: dict[DatasetEntry, list[ManifestRecord]]
) -> StageManifest:
    """Pool each dataset's records, scaled by its weight, into one manifest.

    ``pools`` maps a dataset to its records in MIDI path, then window
    order, as ``window_records`` returns them pair by pair. Datasets are
    taken by stage, then name. ``stage`` None builds the merged
    no-curriculum pool.
    """
    if stage is not None and stage not in STAGE_BUDGETS:
        raise ValueError(f"stage {stage} outside 0..4")
    budget = MERGED_BUDGET if stage is None else STAGE_BUDGETS[stage]
    records = [
        record
        for entry in sorted(pools, key=lambda e: (e.stage, e.name))
        for record in _apply_weight(entry, pools[entry], seed, budget)
    ]
    if not records:
        where = "merged pool" if stage is None else f"stage {stage}"
        raise ValueError(f"{where}: no usable windows in any dataset")
    return StageManifest(stage=stage, step_budget=budget, records=records)


def schedule(manifests: list[StageManifest], seed: int = 0):
    """An iterator of (step_index, record) pairs, stage by stage.

    Within a stage, records cycle in seeded shuffled order, reshuffled
    each epoch, until the stage's step budget is exhausted; stages never
    interleave. Total steps = sum of budgets. The manifests are checked
    here, before any step is asked for.
    """
    stages = [m.stage for m in manifests if m.stage is not None]
    if stages != sorted(stages):
        raise ValueError("manifests must be ordered by stage")
    if len(set(stages)) != len(stages):
        raise ValueError("duplicate stage in schedule")
    for manifest in manifests:
        if not manifest.records:
            raise ValueError(f"stage {manifest.stage}: empty manifest cannot cycle")

    def steps():
        step = 0
        for manifest in manifests:
            rng = Rng(derive_seed(seed, f"stage:{manifest.stage}"))
            n = len(manifest.records)
            for emitted in range(manifest.step_budget):
                if emitted % n == 0:
                    order = rng.permutation(n)
                yield step, manifest.records[order[emitted % n]]
                step += 1

    return steps()


def write_manifest(
    manifest: StageManifest, path: str | os.PathLike, failed: dict[str, str] | None = None
) -> None:
    """Write records as JSON lines plus a small .meta.json sidecar, each
    atomically. The sidecar's ``failed`` maps each pair that gave no
    records because of an error to that error."""
    path = Path(path)
    atomic_write(path, "".join(json.dumps(asdict(r)) + "\n" for r in manifest.records))
    meta = {
        "stage": manifest.stage,
        "step_budget": manifest.step_budget,
        "record_count": len(manifest.records),
        "failed": failed or {},
    }
    atomic_write(path.with_suffix(".meta.json"), json.dumps(meta, indent=2) + "\n")


def read_manifest(path: str | os.PathLike) -> StageManifest:
    """Read what write_manifest wrote; a malformed file raises ValueError
    naming it. A record holds four strings, a finite perf_start < perf_end
    and a stage in 0..4: the manifest's own, unless the manifest is merged."""
    path = Path(path)
    meta_path = path.with_suffix(".meta.json")
    meta = _object(
        _read_json(meta_path), meta_path, {"stage": (int, type(None)), "step_budget": int}, {}
    )
    records = []
    for number, row in _json_lines(path):
        where = f"{path}:{number}"
        if not isinstance(row, dict) or row.keys() != _RECORD.keys():
            raise ValueError(f"{where}: expected an object with keys {sorted(_RECORD)}")
        _object(row, where, _RECORD, {})
        if not _interval(row["perf_start"], row["perf_end"]):
            raise ValueError(f"{where}: perf_start and perf_end must be finite, with"
                             " perf_start < perf_end")
        if row["stage"] not in STAGE_BUDGETS:
            raise ValueError(f"{where}: stage {row['stage']} outside 0..4")
        if meta["stage"] not in (None, row["stage"]):
            raise ValueError(f"{where}: stage {row['stage']} in a stage {meta['stage']} manifest")
        records.append(ManifestRecord(**row))
    return StageManifest(
        stage=meta["stage"], step_budget=meta["step_budget"], records=tuple(records)
    )
