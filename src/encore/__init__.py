"""encore: note-event data engineering and evaluation toolkit.

Modules:
    notes       note/sequence/window primitives and segmentation
    smf         Standard MIDI File reader and writer
    tokenizer   window <-> token-stream codec (772-ID vocabulary)
    augment     speed-tier stretching and seeded mistake corruption
    prompts     prompt specs, keyword tiers, dropout rendering
    curriculum  dataset registry, stage manifests, training schedule
    synth       additive-sine reference synthesizer and click tracks
    audio_io    WAV reading/writing and resampling to the analysis rate
    metrics     chroma/DTW similarity, tempo estimation, Frechet distance
    diffusion   VP schedule, v-objective, and CFG reference math
    cli         `encore` command line front end
    seeds       stable derived seeding

The numeric hot spots (DTW fill/backtrack, note rendering) live in
_kernels, one numpy implementation each; note rendering takes sin/cos once
per 256-sample block rather than once per sample and partial.
"""

__version__ = "0.1.0"

from .augment import MistakeConfig, MistakeReport, SPEED_TIERS, corrupt, sample_speed_augmentation, stretch
from .metrics import (
    ChromaMatrix,
    EmbeddingSet,
    MetricError,
    chroma_similarity,
    chromagram,
    dtw_align,
    frechet_distance,
    tempo_deviation,
    tempo_estimate,
)
from .notes import Note, NoteSequence, Window, segment
from .prompts import PromptSpec, render_prompt
from .seeds import derive_seed
from .smf import MidiParseError, parse_midi, write_midi
from .synth import RenderTooLongError, SynthConfig, render, render_clicks
from .tokenizer import TokenStream, decode, encode

__all__ = [
    "__version__",
    "ChromaMatrix",
    "EmbeddingSet",
    "MetricError",
    "MidiParseError",
    "MistakeConfig",
    "MistakeReport",
    "Note",
    "NoteSequence",
    "PromptSpec",
    "RenderTooLongError",
    "SPEED_TIERS",
    "SynthConfig",
    "TokenStream",
    "Window",
    "chroma_similarity",
    "chromagram",
    "corrupt",
    "decode",
    "derive_seed",
    "dtw_align",
    "encode",
    "frechet_distance",
    "parse_midi",
    "render",
    "render_clicks",
    "render_prompt",
    "sample_speed_augmentation",
    "segment",
    "stretch",
    "tempo_deviation",
    "tempo_estimate",
    "write_midi",
]
