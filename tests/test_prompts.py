"""Prompt spec, ratio-to-keyword mapping, and render tests."""

import pytest

from encore.augment import TIER_BY_NAME
from encore.prompts import (
    MISTAKE_DESCRIPTOR,
    PERFORMANCE_DESCRIPTOR,
    PromptSpec,
    STAGE0_PROMPT,
    SYNTHESIS_DESCRIPTOR,
    ratio_to_keyword,
    render_prompt,
    tier_for_ratio,
)


def test_stage0_constant():
    spec = PromptSpec(sonification="synthesis", stage=0)
    for seed in range(5):
        assert render_prompt(spec, dropout=0.9, rng_seed=seed) == STAGE0_PROMPT
    assert STAGE0_PROMPT == "Synthesis"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sonification="vocal", stage=1),
        dict(sonification="synthesis", stage=5),
        dict(sonification="synthesis", stage=0, speed_keyword="A bit faster"),
        dict(sonification="performance", stage=2, mistake=True),
        dict(sonification="performance", stage=3, performer="X"),
        dict(sonification="performance", stage=2, expression_label="tender"),
    ],
)
def test_spec_invariants(kwargs):
    with pytest.raises(ValueError):
        PromptSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(stage=0, speed_keyword=""),
        dict(stage=2, performer=""),
        dict(stage=3, expression_label="", mistake=True),
    ],
)
def test_empty_gated_fields_are_absent(kwargs):
    """An empty stage-gated field is no field, as render_prompt renders it."""
    absent = {k: v for k, v in kwargs.items() if v != ""}
    for seed in range(5):
        assert (render_prompt(PromptSpec(sonification="performance", **kwargs), rng_seed=seed)
                == render_prompt(PromptSpec(sonification="performance", **absent), rng_seed=seed))


@pytest.mark.parametrize(
    "ratio,tier",
    [
        (1.7, "Slow"),
        (1.0, "Neutral"),
        (0.5, "Fast"),
        (2.0, "VerySlow"),
        # shared boundaries belong to the slower tier
        (1.8, "VerySlow"),
        (1.5, "Slow"),
        (1.2, "SlightlySlow"),
        (0.8, "Neutral"),
        (0.6, "SlightlyFast"),
        (2.2, "VerySlow"),
        (0.4, "Fast"),
    ],
)
def test_tier_for_ratio(ratio, tier):
    assert tier_for_ratio(ratio).name == tier


def test_ratio_clamps_with_warning():
    with pytest.warns(UserWarning):
        assert tier_for_ratio(0.3).name == "Fast"
    with pytest.warns(UserWarning):
        assert tier_for_ratio(2.5).name == "VerySlow"


def test_ratio_rejects_nonpositive():
    with pytest.raises(ValueError):
        tier_for_ratio(0.0)
    with pytest.raises(ValueError):
        ratio_to_keyword(-1.0, 0)


def test_paper_ratio_example():
    for seed in range(20):
        assert ratio_to_keyword(1.7, seed) in {"Considerably slower", "Moving slower"}


def test_keyword_sampling_covers_tier():
    seen = {ratio_to_keyword(1.0, seed) for seed in range(40)}
    assert seen == set(TIER_BY_NAME["Neutral"].keywords)


def _stage2_spec():
    return PromptSpec(
        sonification="performance",
        stage=2,
        speed_keyword="a bit slower",
        composer="Bach",
        instrumentation="Piano",
    )


def test_stage2_paper_example():
    prompt = render_prompt(_stage2_spec(), dropout=0.0, rng_seed=3)
    assert sorted(prompt.split(", ")) == sorted(
        ["a bit slower", "expressive performance", "Bach", "Piano"]
    )


def test_stage4_paper_example():
    spec = PromptSpec(
        sonification="performance",
        stage=4,
        speed_keyword="notably faster",
        title="Etude Op.25 No.11",
        composer="Chopin",
        performer="Vladimir Ashkenazy",
    )
    prompt = render_prompt(spec, dropout=0.0, rng_seed=1)
    assert sorted(prompt.split(", ")) == sorted(
        [
            "expressive performance",
            "style of Vladimir Ashkenazy",
            "Etude Op.25 No.11",
            "Chopin",
            "notably faster",
        ]
    )


def test_mistake_descriptor():
    spec = PromptSpec(
        sonification="performance", stage=3, speed_keyword="Moving slower", mistake=True
    )
    prompt = render_prompt(spec, dropout=0.0, rng_seed=0)
    fields = prompt.split(", ")
    assert MISTAKE_DESCRIPTOR in fields
    assert PERFORMANCE_DESCRIPTOR not in fields


def test_synthesis_descriptor_stage1():
    spec = PromptSpec(sonification="synthesis", stage=1, speed_keyword="A bit faster")
    fields = render_prompt(spec, dropout=0.0, rng_seed=0).split(", ")
    assert sorted(fields) == sorted([SYNTHESIS_DESCRIPTOR, "A bit faster"])


def test_dropout_one_keeps_mandatory():
    spec = PromptSpec(
        sonification="performance",
        stage=4,
        speed_keyword="Moving slower",
        title="T",
        composer="C",
        instrumentation="I",
        performer="P",
        expression_label="tender",
    )
    fields = render_prompt(spec, dropout=1.0, rng_seed=5).split(", ")
    assert sorted(fields) == sorted(
        ["expressive performance", "Moving slower", "style of P", "tender"]
    )


def test_render_deterministic_and_shuffled():
    spec = _stage2_spec()
    assert render_prompt(spec, 0.0, 17) == render_prompt(spec, 0.0, 17)
    orders = {render_prompt(spec, 0.0, seed) for seed in range(20)}
    assert len(orders) > 1
    assert {tuple(sorted(p.split(", "))) for p in orders} == {
        tuple(sorted(["a bit slower", "expressive performance", "Bach", "Piano"]))
    }


def test_dropout_validation():
    with pytest.raises(ValueError):
        render_prompt(_stage2_spec(), dropout=1.5)


def test_dropout_rate():
    spec = _stage2_spec()
    hits = {"Bach": 0, "Piano": 0}
    n = 4000
    for seed in range(n):
        fields = render_prompt(spec, dropout=0.5, rng_seed=seed).split(", ")
        for name in hits:
            hits[name] += name in fields
    for name, count in hits.items():
        assert 0.46 <= count / n <= 0.54, name


def test_empty_text_fields_render_as_absent():
    # an empty field renders nothing and draws no dropout, so the fields
    # that follow it keep the draws they get when it is None
    def spec(empty):
        return PromptSpec(sonification="performance", stage=4, speed_keyword=empty, title=empty,
                          composer="Bach", instrumentation=empty, performer=empty,
                          expression_label=empty)

    for seed in range(20):
        assert render_prompt(spec(""), rng_seed=seed) == render_prompt(spec(None), rng_seed=seed)
