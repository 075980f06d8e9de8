"""seeds.Rng against numpy's default_rng, and the drawn outputs pinned.

The oracle tests compare every value ``Rng`` draws with what
``numpy.random.default_rng`` draws for the same seed and the same calls,
floats by their bits. The golden tests pin what the drawing functions
return, as literals captured with numpy's generator, so that neither a
change here nor a numpy release (NEP 19 lets ``Generator`` methods
change) moves a manifest or an augmentation.
"""

import hashlib
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from encore import seeds
from encore.augment import (
    SPEED_TIERS,
    MistakeConfig,
    corrupt,
    draw_tier,
    sample_speed_augmentation,
)
from encore.curriculum import ManifestRecord, StageManifest, schedule
from encore.notes import Note, NoteSequence
from encore.prompts import PromptSpec, ratio_to_keyword, render_prompt
from encore.smf import write_midi

EDGE_SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 10**30, 2**200 + 7]
# 1 draws nothing and 2**32 is one raw draw; 2**31 + 1 and 2**32 - 1 reject often
EDGE_N = [1, 2, 3, 5, 6, 7, 100, 2**31, 2**31 + 1, 2**32 - 1, 2**32]


def _value(x):
    """A comparable form of one draw: a float's bits, an int, a list."""
    if isinstance(x, (float, np.floating)):
        return struct.pack("<d", float(x))
    if isinstance(x, (list, np.ndarray)):
        return [int(v) for v in x]
    return int(x)


def _both(seed, calls):
    """The values seeds.Rng and numpy's generator draw for one call list."""
    return tuple([_value(getattr(rng, name)(*args)) for name, *args in calls]
                 for rng in (seeds.Rng(seed), np.random.default_rng(seed)))


_bounds = st.floats(-1e6, 1e6, allow_nan=False).flatmap(
    lambda low: st.tuples(st.just(low), st.floats(low, low + 1e6)))
_call = st.one_of(
    st.just(("random",)),
    _bounds.map(lambda b: ("uniform", *b)),
    st.one_of(st.sampled_from(EDGE_N), st.integers(1, 2**32)).map(lambda n: ("integers", n)),
    st.integers(0, 300).map(lambda n: ("permutation", n)),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1), st.integers(0, 2**256)),
       st.lists(_call, max_size=30))
def test_interleaved_draws_match_numpy(seed, calls):
    # interleaving 32-bit draws (integers, permutation) with 64-bit ones
    # (random, uniform) exercises the buffered high half
    ours, theirs = _both(seed, calls)
    assert ours == theirs


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_edge_seeds_and_bounds_match_numpy(seed):
    calls = [("random",), *(("integers", n) for n in EDGE_N), ("uniform", -1.0, 1.0),
             *(("permutation", n) for n in (0, 1, 2, 3, 12, 255, 256, 257, 400)),
             ("permutation", 2**17 + 1),  # the bit widths of a 100k-record schedule
             ("integers", 3), ("random",)]
    ours, theirs = _both(seed, calls)
    assert ours == theirs


def test_draws_are_plain_python():
    rng = seeds.Rng(9)
    assert [type(v) for v in (rng.random(), rng.uniform(0.0, 2.0), rng.integers(5),
                              rng.permutation(4))] == [float, float, int, list]


@pytest.mark.parametrize("call", [lambda: seeds.Rng(-1), lambda: seeds.Rng(0).integers(0),
                                  lambda: seeds.Rng(0).integers(2**32 + 1)])
def test_seeds_and_bounds_out_of_range_are_refused(call):
    with pytest.raises(ValueError):
        call()


# ---------------------------------------------------------------------------
# golden outputs of the drawing functions

# every item's stream starts from these bytes: the seed XOR the little-endian
# 8-byte BLAKE2b of the identity parts joined by U+001F, UTF-8 encoded
@pytest.mark.parametrize("seed, parts, want", [
    (0, ("augment", "a.mid"), 0x62C2A6FD62BA3BD7),
    (1, ("speed", "a.mid"), 0xFDE54A8E6177E928),
    (2**64 - 1, ("stage:0",), 0x1FB5051003C5B6AA),
    (2**63 + 5, ("Étude n°3 — ré.mid", "prompt"), 0xC26481BDF40C1992),
    (7, ("ds/0001.mid#w0002", "weight"), 0x3B38029ADFBDBCDE),
    (12345, ("a", "b", "c"), 0x4EF476662EE41F9B),
])
def test_derive_seed_golden(seed, parts, want):
    assert seeds.derive_seed(seed, *parts) == want

SCORE = NoteSequence([Note(0.25 * k, 40 + 7 * k % 48, 0.25 * k + 0.4, 30 + 13 * k % 90)
                      for k in range(80)], total_duration=20.5)


@pytest.mark.parametrize("cfg, report, sha256, notes, duration", [
    (MistakeConfig(seed=1234),
     {"mistouch": 6, "asynchrony": 25, "substitution": 4, "ghost": 4, "block_removed": 5,
      "removed_intervals": [(4.420456942355334, 4.786657781308099),
                            (8.97778439255354, 9.250483160127468),
                            (13.747361716130367, 14.025079553670718),
                            (17.884468265552886, 18.365173649123037),
                            (23.07131920714905, 23.292494713824038)]},
     "9c4af1638a19a28abfbf5326dd38917bfb4e428862bce202d65ab4fa2f9d4d61", 77,
     20.534563504513834),
    (MistakeConfig(p_mistouch=0.3, p_async=0.5, p_subst=0.3, p_ghost=0.1, seed=2**64 - 1),
     {"mistouch": 18, "asynchrony": 44, "substitution": 15, "ghost": 6, "block_removed": 4,
      "removed_intervals": [(3.574337275957032, 3.9578042193747502),
                            (8.189357224698162, 8.419970046478651),
                            (13.516849046721088, 13.777427650532454),
                            (19.99216785193175, 20.270906581934515),
                            (21.826137648822336, 22.036301423186842)]},
     "9bcfd19d9c5d6a1714520e23ec72c585345cac5e7b06cba1df1eba313d59bede", 88, 20.5),
])
def test_corrupt_golden(cfg, report, sha256, notes, duration):
    seq, got = corrupt(SCORE, cfg)
    assert asdict(got) == report
    assert hashlib.sha256(write_midi(seq)).hexdigest() == sha256
    assert (len(seq.notes), seq.total_duration) == (notes, duration)


def test_speed_augmentation_golden():
    drawn = {}
    for tier in SPEED_TIERS:
        _, ratio, keyword = sample_speed_augmentation(SCORE, tier, 99)
        drawn[tier.name] = (repr(ratio), keyword)
    assert drawn == {
        "VerySlow": ("2.002412269819358", "About half the speed of"),
        "Slow": ("1.6518092023645183", "Moving slower"),
        "SlightlySlow": ("1.3518092023645183", "Slightly behind the intended pace"),
        "Neutral": ("1.0024122698193578", "In line with the score’s tempo"),
        "SlightlyFast": ("0.7012061349096789", "Slightly faster than score"),
        "Fast": ("0.5012061349096789", "Well beyond the original tempo"),
    }


def test_draw_tier_golden():
    assert [draw_tier(s).name for s in range(16)] == [
        "Fast", "SlightlySlow", "Fast", "SlightlyFast", "SlightlyFast", "SlightlyFast",
        "SlightlySlow", "Fast", "SlightlyFast", "SlightlySlow", "SlightlyFast", "VerySlow",
        "Neutral", "Fast", "VerySlow", "Fast",
    ]


def test_prompts_golden():
    assert [ratio_to_keyword(r, s) for r, s in ((2.0, 0), (1.3, 5), (0.5, 2**40))] == [
        "About half the speed of", "Slightly behind the intended pace",
        "Well beyond the original tempo",
    ]
    specs = [
        PromptSpec("synthesis", 1, speed_keyword="Moving slower", title="Nocturne"),
        PromptSpec("performance", 3, speed_keyword="A bit faster", title="Etude",
                   composer="Chopin", instrumentation="piano", mistake=True),
        PromptSpec("performance", 4, speed_keyword="At the original speed", title="Sonata",
                   composer="Mozart", instrumentation="piano", performer="Argerich",
                   expression_label="dramatic"),
    ]
    assert [[render_prompt(spec, rng_seed=s) for s in (0, 7, 2**63)] for spec in specs] == [
        ["Nocturne, synthesis, Moving slower", "Nocturne, synthesis, Moving slower",
         "Nocturne, Moving slower, synthesis"],
        ["Etude, performance with mistakes, A bit faster",
         "performance with mistakes, piano, A bit faster, Chopin, Etude",
         "Etude, piano, A bit faster, performance with mistakes, Chopin"],
        ["dramatic, At the original speed, Sonata, expressive performance, style of Argerich",
         "piano, dramatic, style of Argerich, expressive performance, At the original speed, "
         "Mozart, Sonata",
         "style of Argerich, At the original speed, dramatic, Sonata, expressive performance, "
         "piano, Mozart"],
    ]


def test_schedule_golden():
    records = [ManifestRecord(f"w{k}", f"t{k}", "p", "a", 0.0, 10.0, 2) for k in range(7)]
    walked = [r.window_ref for _, r in schedule([StageManifest(2, 14, records)], seed=5)]
    assert walked == ["w3", "w0", "w6", "w5", "w1", "w4", "w2",  # epoch 1
                      "w1", "w0", "w6", "w2", "w4", "w3", "w5"]  # epoch 2
