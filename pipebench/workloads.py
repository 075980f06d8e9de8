"""Workloads, metrics and the layer-to-metric predictions later changes
are judged against.

Every workload runs every ``encore`` command, so every metric exists on
every workload, but each one puts its weight on different layers:

``prep``
    10 beat-grid piano scores of 3 min (about 8 notes/s, chords held
    across window edges) through ``tokenize`` at ``--workers`` 1 and 2,
    ``augment --mode mistakes``, ``augment --mode speed`` and ``manifest
    --stage merged`` over a registry with a stage-0 synthesis dataset, a
    stage-2 performance dataset with alignment sidecars and a stage-3
    dataset. Per-file costs dominate: parse, the ``.tok`` and MIDI writes,
    and one process start per command; the segment and corrupt scans stay
    short. A per-item or worker-pool change shows here; a segment/corrupt
    rewrite is predicted to move nothing. Its audio stage is a fixed small
    companion: two 13 s pairs and a 30 s identity pair.
``eval``
    Four 13 s beat-grid pairs, from two mirrored speed tiers, and a 40 s
    identity pair. The reference is rendered from the score and the output
    from ``corrupt(stretch(score, r))``; the identity pair outlasts every
    stretched output, so it alone sets the peak DTW and STFT memory. Half
    the rows give ``score_bpm``. ``synth`` writes the WAVs, then
    ``evaluate --metrics chroma,tempo`` and ``evaluate --metrics frechet``
    (one Gaussian embedding set per side) run at ``--workers`` 1 and 2.
    The short pairs expose per-pair overhead: each WAV is read once per
    metric and the reference tempo is re-estimated for every pair without
    ``score_bpm``. Its symbolic stage runs three 10-min scores through the
    symbolic commands, standing in for a separate long-score workload:
    ``segment`` costs notes x windows and ``corrupt`` notes x blocks, so
    both grow faster than the input, and a linear rewrite shows in
    ``eval``'s symbolic rates and in ``notes.segment.us_per_window``
    against ``prep``'s.

An audio change predicts no move on either workload's symbolic rates, and
a symbolic change none on the audio rates.

``evaluate`` reads the same ``output``/``reference`` columns for every
metric, so one invocation cannot compute Fréchet on embedding files and
chroma/tempo on WAVs; the Fréchet invocation runs once per round and its
time counts towards both evaluate rates.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    symbolic_seconds: tuple[int, ...]  # score lengths for tokenize/augment/manifest
    pair_seconds: tuple[int, ...]  # score lengths of the stretched, corrupted pairs
    identity_seconds: int  # the identity pair; outlasts every stretched output


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "prep",
            "10 3-min scores: per-file parse, .tok/MIDI writes and process starts "
            "dominate; short segment/corrupt scans; small audio stage",
            symbolic_seconds=(180,) * 10,
            pair_seconds=(13, 13),
            identity_seconds=30,
        ),
        Workload(
            "eval",
            "four 13 s WAV pairs and a 40 s identity pair through synth and evaluate; "
            "three 10-min scores make segment/corrupt superlinear",
            symbolic_seconds=(600,) * 3,
            pair_seconds=(13,) * 4,
            identity_seconds=40,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    why: str


END_TO_END = (
    Metric("setup_s", "s", "lower", "fresh-process `encore --version`: import and parser build"),
    Metric("tokenize_rate", "score_s/s", "higher", "tokenize --workers 1"),
    Metric("tokenize_w2_rate", "score_s/s", "higher", "tokenize --workers 2"),
    Metric("augment_rate", "score_s/s", "higher", "augment mistakes + speed runs together"),
    Metric("manifest_rate", "score_s/s", "higher", "manifest --stage merged"),
    Metric("prep_rss_mb", "MB", "lower", "largest child peak RSS among the symbolic commands"),
    Metric("synth_rate", "audio_s/s", "higher", "synth: audio seconds rendered per second"),
    Metric("synth_rss_mb", "MB", "lower", "synth child peak RSS"),
    Metric("evaluate_rate", "pair_s/s", "higher",
           "evaluate --workers 1: output + reference seconds per second"),
    Metric("evaluate_w2_rate", "pair_s/s", "higher", "evaluate --workers 2"),
    Metric("evaluate_rss_mb", "MB", "lower", "evaluate --workers 1 child peak RSS"),
    Metric("ok_ratio", "ratio", "higher",
           "items and output checks that passed / attempted (1 - failed ratio)"),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    moves: str  # the end-to-end metric(s) it should move, and where


LAYERS = (
    LayerMetric("cli.tokenize.self_s", "s", "tokenize_rate on prep (.tok and index writes)"),
    LayerMetric("cli.evaluate.self_s", "s", "evaluate_rate on eval"),
    LayerMetric("smf.parse_midi.s", "s", "tokenize, augment and manifest rates on prep"),
    LayerMetric("smf.parse_midi.notes", "count", "tokenize, augment and manifest rates on prep"),
    LayerMetric("smf.write_midi.s", "s", "augment_rate on prep and eval"),
    LayerMetric("smf.write_midi.bytes", "bytes", "augment_rate on prep and eval"),
    LayerMetric("notes.segment.s", "s", "tokenize_rate, manifest_rate on eval (10-min scores); flat on prep"),
    LayerMetric("notes.segment.windows", "count", "tokenize_rate, manifest_rate on eval (10-min scores)"),
    LayerMetric("notes.segment.us_per_window", "us",
                "tokenize_rate, manifest_rate on eval (10-min scores); flat on prep"),
    LayerMetric("tokenizer.encode.s", "s", "tokenize_rate, manifest_rate on prep"),
    LayerMetric("tokenizer.encode.tokens", "count", "tokenize_rate, manifest_rate on prep"),
    LayerMetric("augment.corrupt.s", "s", "augment_rate on eval (10-min scores)"),
    LayerMetric("augment.corrupt.notes", "count", "augment_rate on eval (10-min scores)"),
    LayerMetric("augment.corrupt.blocks", "count", "augment_rate on eval (10-min scores)"),
    LayerMetric("augment.sample_speed_augmentation.s", "s", "augment_rate on prep"),
    LayerMetric("prompts.render_prompt.calls", "count", "manifest_rate on prep"),
    LayerMetric("prompts.render_prompt.s", "s", "manifest_rate on prep"),
    LayerMetric("curriculum.build_manifest.self_s", "s", "manifest_rate on prep"),
    LayerMetric("curriculum.build_manifest.records", "count", "manifest_rate on prep"),
    LayerMetric("curriculum.write_manifest.s", "s", "manifest_rate on prep"),
    LayerMetric("synth.render.s", "s", "synth_rate, synth_rss_mb on eval"),
    LayerMetric("synth.render.samples", "count", "synth_rate on eval"),
    LayerMetric("synth.render.ns_per_sample", "ns", "synth_rate on eval (kernel cost)"),
    LayerMetric("synth.render.peak_mb", "MB", "synth_rss_mb on eval"),
    LayerMetric("audio_io.write_wav.s", "s", "synth_rate on eval"),
    LayerMetric("audio_io.write_wav.bytes", "bytes", "synth_rate on eval"),
    LayerMetric("audio_io.read_wav.s", "s", "evaluate_rate on eval"),
    LayerMetric("audio_io.read_wav.per_pair", "count", "evaluate_rate on eval"),
    LayerMetric("audio_io.read_wav.useful_ratio", "ratio",
                "evaluate_rate on eval (one read per WAV of a pair is useful)"),
    LayerMetric("metrics.chromagram.s", "s", "evaluate_rate, evaluate_rss_mb on eval"),
    LayerMetric("metrics.chromagram.peak_mb", "MB", "evaluate_rss_mb on eval"),
    LayerMetric("metrics.chroma_similarity.self_s", "s",
                "evaluate_rate, evaluate_rss_mb on eval (cost matrix, path mean)"),
    LayerMetric("metrics.dtw_from_costs.s", "s", "evaluate_rss_mb, then evaluate_rate on eval"),
    LayerMetric("metrics.dtw_from_costs.cells", "count", "evaluate_rss_mb on eval"),
    LayerMetric("metrics.dtw_from_costs.ns_per_cell", "ns", "evaluate_rate on eval (kernel cost)"),
    LayerMetric("metrics.dtw_from_costs.peak_mb", "MB", "evaluate_rss_mb on eval"),
    LayerMetric("metrics.tempo_estimate.s", "s", "evaluate_rate, evaluate_rss_mb on eval"),
    LayerMetric("metrics.tempo_estimate.per_pair", "count", "evaluate_rate on eval"),
    LayerMetric("metrics.tempo_estimate.calls_per_wav", "count",
                "evaluate_rate on eval (1 when each distinct WAV is estimated once)"),
    LayerMetric("metrics.tempo_estimate.peak_mb", "MB", "evaluate_rss_mb on eval"),
    LayerMetric("metrics.read_embeddings.s", "s", "evaluate_rate on eval"),
    LayerMetric("metrics.frechet_distance.s", "s", "evaluate_rate on eval"),
    LayerMetric("trace.overhead", "ratio", "traced command time / untraced, per workload"),
)
