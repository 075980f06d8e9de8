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
    seeds       stable derived seeding and the generator every draw uses

The numeric hot spots (DTW fill/backtrack, note rendering) live in
_kernels, one numpy implementation each; note rendering takes sin/cos once
per 256-sample block rather than once per sample and partial.
"""

__version__ = "0.1.0"
