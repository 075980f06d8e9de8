"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible with -s; `pytest -v`
shows the same verdict per test name) and pins the tolerances the
package promises. Keep the numbers here in sync with the README.
"""

import functools
import math
import time

import numpy as np

from encore.augment import (
    SPEED_TIERS,
    TIER_BY_NAME,
    MistakeConfig,
    corrupt,
    sample_speed_augmentation,
    stretch,
)
from encore.curriculum import STAGE_BUDGETS, ManifestRecord, StageManifest, schedule
from encore.diffusion import (
    cfg_combine,
    latent_from_v,
    noise_from_v,
    noise_latent,
    v_target,
    vp_schedule,
)
from encore.metrics import (
    DEFAULT_PENALTY_WEIGHT,
    EmbeddingSet,
    chroma_similarity,
    dtw_from_costs,
    frechet_distance,
    tempo_deviation,
    tempo_estimate,
)
from encore.notes import Note, NoteSequence, Window
from encore.prompts import PromptSpec, STAGE0_PROMPT, ratio_to_keyword, render_prompt, tier_for_ratio
from encore.smf import write_midi
from encore.synth import render, render_clicks
from encore.tokenizer import TIME_STEPS, VOCAB_SIZE, decode, encode


def criterion(number, label):
    """Print one verdict line per criterion, whatever the outcome."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:2d} FAIL  {label}")
                raise
            print(f"criterion {number:2d} PASS  {label}")

        return run

    return wrap


def _note_key(n):
    return (n.start, n.pitch, n.program, n.end)


def _fields(notes):
    return [(n.start, n.pitch, n.end, n.velocity, n.program) for n in sorted(notes, key=_note_key)]


def _random_window(rng, grid: bool, length=10.0):
    """A 10 s window of random notes with pairwise-distinct pitches.

    Distinct pitches keep the token stream unambiguous, so exact recovery
    is well defined. Velocity is pinned to the decoder's constant.
    Durations stay above one grid step: a shorter note is widened by the
    encoder to keep its Off after its On, which moves the end by design
    rather than by quantization error.
    """
    res = length / TIME_STEPS
    pitches = rng.permutation(128)
    n_notes = int(rng.integers(1, 36))
    n_sustained = int(rng.integers(0, 4))
    notes = []
    for pitch in pitches[:n_notes]:
        program = int(rng.integers(0, 128))
        if grid:
            q_start = int(rng.integers(0, TIME_STEPS))
            q_end = int(rng.integers(q_start + 1, TIME_STEPS + 1))
            start, end = q_start * res, q_end * res
        else:
            start = float(rng.uniform(0.0, length - 2 * res))
            end = min(start + 1.05 * res + float(rng.uniform(0.0, 3.0)), length)
        notes.append(Note(start=start, pitch=int(pitch), end=end, velocity=100, program=program))
    sustained = []
    for pitch in pitches[n_notes : n_notes + n_sustained]:
        if grid:
            end = int(rng.integers(1, TIME_STEPS + 1)) * res
        else:
            end = float(rng.uniform(res / 4, length))
        sustained.append(
            Note(start=-res, pitch=int(pitch), end=end, velocity=100,
                 program=int(rng.integers(0, 128)))
        )
    return Window(offset=0.0, length=length, notes=tuple(notes), sustained=tuple(sustained))


@criterion(1, "tokenizer round trip (grid exact, off-grid <= window/512, < 10 s)")
def test_criterion_01_tokenizer_round_trip():
    rng = np.random.default_rng(0xACC1)
    res = 10.0 / TIME_STEPS
    started = time.perf_counter()

    for _ in range(1000):
        window = _random_window(rng, grid=True)
        decoded = decode(encode(window))
        assert _fields(decoded.notes) == _fields(window.notes)
        assert _fields(decoded.sustained) == _fields(window.sustained)

    for _ in range(1000):
        window = _random_window(rng, grid=False)
        decoded = decode(encode(window))
        # quantization may reorder nearby starts; pitches are unique, so
        # pair notes by pitch instead of by sorted position
        by_pitch = {n.pitch: n for n in decoded.notes}
        assert len(by_pitch) == len(window.notes)
        for want in window.notes:
            got = by_pitch[want.pitch]
            assert got.program == want.program
            assert abs(got.start - want.start) <= res + 1e-12
            assert abs(got.end - want.end) <= res + 1e-12
        sustained_by_pitch = {n.pitch: n for n in decoded.sustained}
        for want in window.sustained:
            assert abs(sustained_by_pitch[want.pitch].end - want.end) <= res + 1e-12

    assert time.perf_counter() - started < 10.0


@criterion(2, "vocabulary is exactly 772 IDs and the encoder stays inside it")
def test_criterion_02_vocabulary_conformance():
    assert VOCAB_SIZE == 772 == 128 + 128 + 2 + 512 + 1 + 1
    rng = np.random.default_rng(0xACC2)
    for _ in range(10_000):
        length = float(rng.uniform(2.0, 20.0))
        res = length / TIME_STEPS
        notes = tuple(
            Note(
                start=(s := float(rng.uniform(0.0, length * 0.99))),
                pitch=int(rng.integers(0, 128)),
                end=min(s + float(rng.uniform(0.0, 2.0)), length),
                velocity=100,
                program=int(rng.integers(0, 128)),
            )
            for _ in range(int(rng.integers(1, 8)))
        )
        sustained = tuple(
            Note(start=-res, pitch=int(rng.integers(0, 128)),
                 end=float(rng.uniform(res, length)), velocity=100,
                 program=int(rng.integers(0, 128)))
            for _ in range(int(rng.integers(0, 3)))
        )
        stream = encode(Window(offset=0.0, length=length, notes=notes, sustained=sustained))
        assert all(0 <= t < 772 for t in stream.tokens)


@criterion(3, "mistake statistics on 10k notes (rates, blocks, determinism, < 5 s)")
def test_criterion_03_mistake_statistics():
    notes = [
        Note(start=0.05 * k, pitch=48 + (k % 24), end=0.05 * k + 0.04, velocity=90)
        for k in range(10_000)
    ]
    seq = NoteSequence(notes=notes, total_duration=500.0, source_id="fixture")
    started = time.perf_counter()
    out, report = corrupt(seq, MistakeConfig(seed=7))
    elapsed = time.perf_counter() - started

    n = len(seq.notes)
    assert 0.04 * n <= report.mistouch <= 0.06 * n
    assert 0.18 * n <= report.asynchrony <= 0.22 * n
    assert 0.04 * n <= report.substitution <= 0.06 * n
    assert 0.04 * n <= report.ghost <= 0.06 * n

    period = MistakeConfig().block_period
    blocks = math.floor(seq.total_duration / period) + 1
    assert len(report.removed_intervals) == blocks
    for k, (t_start, t_end) in enumerate(report.removed_intervals):
        assert k * period <= t_start < (k + 1) * period  # one interval per block
        assert 0.2 <= t_end - t_start < 0.5

    again, report_again = corrupt(seq, MistakeConfig(seed=7))
    assert _fields(again.notes) == _fields(out.notes)
    assert report_again == report
    assert write_midi(again) == write_midi(out)
    assert elapsed < 5.0


@criterion(4, "speed tiers: 10k draws per tier in range; 1.7 is a Slow keyword")
def test_criterion_04_speed_tiers():
    base = NoteSequence(
        notes=[Note(start=0.0, pitch=60, end=1.0), Note(start=1.0, pitch=62, end=2.0)],
        total_duration=2.0,
    )
    for tier in SPEED_TIERS:
        low, high = tier.ratio_range
        for k in range(10_000):
            _, ratio, keyword = sample_speed_augmentation(base, tier, rng_seed=k)
            assert low <= ratio <= high
            assert keyword in tier.keywords

    # the worked example: a 17 s performance of a 10 s score reads as Slow
    slow = TIER_BY_NAME["Slow"]
    assert tier_for_ratio(17.0 / 10.0) is slow
    assert ratio_to_keyword(1.7, rng_seed=3) in slow.keywords
    assert "Considerably slower" in slow.keywords
    stretched = stretch(base, 1.7)
    assert stretched.total_duration == 2.0 * 1.7


@criterion(5, "prompt dropout sits at 50% +- 3 points; stage 0 is constant")
def test_criterion_05_prompt_dropout():
    spec = PromptSpec(
        sonification="performance",
        stage=2,
        speed_keyword="At the original speed",
        title="TITLEMARK",
        composer="COMPOSERMARK",
        instrumentation="INSTRUMENTMARK",
    )
    hits = {"TITLEMARK": 0, "COMPOSERMARK": 0, "INSTRUMENTMARK": 0}
    n = 10_000
    for k in range(n):
        text = render_prompt(spec, dropout=0.5, rng_seed=k)
        for marker in hits:
            hits[marker] += marker in text
    for marker, count in hits.items():
        assert 0.47 <= count / n <= 0.53, (marker, count / n)

    stage0 = PromptSpec(sonification="synthesis", stage=0)
    for k in range(50):
        assert render_prompt(stage0, dropout=0.5, rng_seed=k) == STAGE0_PROMPT == "Synthesis"


def _toy_manifest(stage, count=3):
    records = tuple(
        ManifestRecord(
            window_ref=f"ds/s{stage}_{i}.mid#{i}",
            token_file=f"tokens/ds/s{stage}_{i}_w{i:04d}.tok",
            prompt="Synthesis" if stage == 0 else "synthesis",
            target_audio_ref=f"ds/s{stage}_{i}.wav",
            perf_start=0.0,
            perf_end=10.0,
            stage=stage,
        )
        for i in range(count)
    )
    return StageManifest(stage=stage, step_budget=STAGE_BUDGETS[stage], records=records)


@criterion(6, "curriculum: 59k steps split 20k/10k/15k/4k/10k, stages in order")
def test_criterion_06_curriculum_budgets():
    budgets = [STAGE_BUDGETS[s] for s in range(5)]
    assert budgets == [20_000, 10_000, 15_000, 4_000, 10_000]
    assert sum(budgets) == 59_000

    manifests = [_toy_manifest(stage) for stage in range(5)]
    steps = []
    stages = []
    for step, record in schedule(manifests, seed=5):
        steps.append(step)
        stages.append(record.stage)
    assert steps == list(range(59_000))

    boundary = 0
    for stage, budget in enumerate(budgets):
        chunk = stages[boundary : boundary + budget]
        assert chunk == [stage] * budget  # contiguous, never interleaved
        boundary += budget


def _brute_force_dtw(cost):
    """Minimum over every monotone path, accumulating in path order."""
    n, m = cost.shape
    best = math.inf

    stack = [(0, 0, cost[0, 0])]
    while stack:
        i, j, total = stack.pop()
        if i == n - 1 and j == m - 1:
            if total < best:
                best = total
            continue
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            ni, nj = i + di, j + dj
            if ni < n and nj < m:
                stack.append((ni, nj, total + cost[ni, nj]))
    return best


@criterion(7, "DTW equals exhaustive path enumeration bit for bit")
def test_criterion_07_dtw_oracle():
    rng = np.random.default_rng(0xACC7)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        cost = rng.uniform(0.0, 4.0, size=(n, m))
        total, path = dtw_from_costs(cost)
        assert total == _brute_force_dtw(cost)
        assert sum(cost[i, j] for i, j in path) == total


def _phrase(stretch_by=1.0, transpose=0):
    pitches = [60, 64, 67, 72, 71, 65, 62, 55]
    notes = [
        Note(
            start=k * stretch_by,
            pitch=p + transpose,
            end=(k + 0.9) * stretch_by,
            velocity=96,
        )
        for k, p in enumerate(pitches)
    ]
    return NoteSequence(
        notes=notes, total_duration=len(pitches) * stretch_by, reference_bpm=120.0
    )


@criterion(8, "chroma: self >= 0.999, 1.5x stretch >= 0.9, tritone 0.3 below")
def test_criterion_08_chroma_sanity():
    assert DEFAULT_PENALTY_WEIGHT == 1e-3
    reference = render(_phrase())
    identity = chroma_similarity(render(_phrase()), reference)
    assert identity.penalty_weight == 1e-3
    assert identity.score >= 0.999

    stretched = chroma_similarity(render(_phrase(stretch_by=1.5)), reference)
    assert stretched.score >= 0.9

    tritone = chroma_similarity(render(_phrase(transpose=6)), reference)
    assert identity.score - tritone.score >= 0.3


@criterion(9, "tempo within +-2 BPM on clicks; synthesis deviation <= 0.05")
def test_criterion_09_tempo_loop():
    for bpm in (60.0, 90.0, 120.0, 180.0):
        estimated = tempo_estimate(render_clicks(bpm, duration=15.0))
        assert abs(estimated - bpm) <= 2.0, (bpm, estimated)

    score = NoteSequence(
        notes=[
            Note(start=0.5 * k, pitch=60 + (k % 12), end=0.5 * k + 0.45, velocity=90)
            for k in range(24)
        ],
        total_duration=12.0,
        reference_bpm=120.0,
    )
    deviation = tempo_deviation(render(score), score, prompt_ratio=1.0)
    assert deviation <= 0.05


@criterion(10, "Frechet distance: zero on identical sets, closed form, symmetric")
def test_criterion_10_frechet():
    rng = np.random.default_rng(0xACC0)
    vectors = rng.normal(size=(256, 8))
    assert frechet_distance(EmbeddingSet(vectors), EmbeddingSet(vectors.copy())) <= 1e-6

    # 1-D Gaussians: d^2 = (mu1-mu2)^2 + (s1-s2)^2 = 1 + 1 = 2
    a = EmbeddingSet(rng.normal(0.0, 1.0, size=(100_000, 1)))
    b = EmbeddingSet(rng.normal(1.0, 2.0, size=(100_000, 1)))
    distance = frechet_distance(a, b)
    assert abs(distance - 2.0) <= 0.05 * 2.0

    for _ in range(100):
        dim = int(rng.integers(2, 24))
        a = EmbeddingSet(rng.normal(size=(int(rng.integers(32, 160)), dim)))
        b = EmbeddingSet(rng.normal(rng.uniform(-1, 1), 1.0, size=(int(rng.integers(32, 160)), dim)))
        forward = frechet_distance(a, b)
        backward = frechet_distance(b, a)
        assert forward >= 0.0 and backward >= 0.0
        assert abs(forward - backward) <= 1e-8 * max(1.0, forward)


@criterion(11, "diffusion identities: unit variance, v inversion, CFG fixed points")
def test_criterion_11_diffusion_math():
    for t in np.linspace(0.0, 1.0, 10_000):
        p = vp_schedule(float(t))
        assert abs(p.alpha**2 + p.sigma**2 - 1.0) <= 1e-12

    rng = np.random.default_rng(0xACC11)
    z = rng.normal(size=512)
    eps = rng.normal(size=512)
    for t in rng.uniform(0.0, 1.0, size=20):
        p = vp_schedule(float(t))
        z_t = noise_latent(z, eps, p)
        v = v_target(z, eps, p)
        assert np.max(np.abs(latent_from_v(z_t, v, p) - z)) <= 1e-9
        assert np.max(np.abs(noise_from_v(z_t, v, p) - eps)) <= 1e-9

    cond = rng.normal(size=64)
    uncond = rng.normal(size=64)
    assert np.array_equal(cfg_combine(cond, uncond, 0.0), uncond)
    assert np.array_equal(cfg_combine(cond, uncond, 1.0), cond)
