"""Prompt assembly: ratio-to-keyword mapping and field rendering with dropout.

Dropout and field order are drawn from ``seeds.Rng``, numpy's PCG64 stream
in pure Python, so rendering a prompt loads no numpy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .augment import RATIO_CEILING, RATIO_FLOOR, SPEED_TIERS, SpeedTier
from .seeds import Rng

STAGE0_PROMPT = "Synthesis"
SYNTHESIS_DESCRIPTOR = "synthesis"
PERFORMANCE_DESCRIPTOR = "expressive performance"
# the mistake stage has no literal prompt string on record; this template
# replaces the plain performance descriptor when spec.mistake is set
MISTAKE_DESCRIPTOR = "performance with mistakes"


@dataclass(frozen=True)
class PromptSpec:
    """Prompt fields for one training example.

    Field availability follows the curriculum: speed keywords exist from
    stage 1, the mistake flag only at stage 3, performer and expression
    label only at stage 4; an empty text field is absent, as in
    render_prompt. Stage 0 always renders the fixed prompt.
    """

    sonification: str
    stage: int
    speed_keyword: str | None = None
    title: str | None = None
    composer: str | None = None
    instrumentation: str | None = None
    mistake: bool | None = None
    performer: str | None = None
    expression_label: str | None = None

    def __post_init__(self):
        if self.sonification not in ("synthesis", "performance"):
            raise ValueError(f"unknown sonification {self.sonification!r}")
        if not 0 <= self.stage <= 4:
            raise ValueError(f"stage {self.stage} outside 0..4")
        if self.stage < 1 and self.speed_keyword:
            raise ValueError("speed_keyword requires stage >= 1")
        if self.stage != 3 and self.mistake is not None:
            raise ValueError("mistake flag requires stage 3")
        if self.stage != 4 and (self.performer or self.expression_label):
            raise ValueError("performer and expression_label require stage 4")


def tier_for_ratio(ratio: float) -> SpeedTier:
    """Find the tier containing a duration ratio.

    A ratio on a shared boundary belongs to the slower tier. Ratios outside
    the 0.4..2.2 envelope clamp to the nearest tier with a warning.
    """
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    if not RATIO_FLOOR <= ratio <= RATIO_CEILING:
        warnings.warn(
            f"speed ratio {ratio} outside [{RATIO_FLOOR}, {RATIO_CEILING}]; "
            "clamped to the nearest tier"
        )
        ratio = min(max(ratio, RATIO_FLOOR), RATIO_CEILING)
    for tier in SPEED_TIERS:  # slowest first
        if ratio >= tier.ratio_range[0]:
            return tier
    return SPEED_TIERS[-1]


def ratio_to_keyword(ratio: float, rng_seed: int) -> str:
    """Pick a keyword, uniformly seeded, from the tier containing `ratio`."""
    tier = tier_for_ratio(ratio)
    return tier.keywords[Rng(rng_seed).integers(len(tier.keywords))]


def render_prompt(spec: PromptSpec, dropout: float = 0.5, rng_seed: int = 0) -> str:
    """Render a spec to its comma-separated prompt string.

    The sonification descriptor and the speed keyword always appear; title,
    composer and instrumentation are each independently dropped with
    probability `dropout`; a performer renders as "style of <name>". Field
    order is shuffled by the seeded RNG. An empty text field is absent, as
    None is: it renders nothing and draws no dropout.
    """
    if not 0.0 <= dropout <= 1.0:
        raise ValueError(f"dropout must be a probability, got {dropout}")
    if spec.stage == 0:
        return STAGE0_PROMPT
    rng = Rng(rng_seed)
    if spec.mistake:
        descriptor = MISTAKE_DESCRIPTOR
    elif spec.sonification == "performance":
        descriptor = PERFORMANCE_DESCRIPTOR
    else:
        descriptor = SYNTHESIS_DESCRIPTOR
    fields = [descriptor]
    if spec.speed_keyword:
        fields.append(spec.speed_keyword)
    for value in (spec.title, spec.composer, spec.instrumentation):
        if value and rng.random() >= dropout:
            fields.append(value)
    if spec.performer:
        fields.append(f"style of {spec.performer}")
    if spec.expression_label:
        fields.append(spec.expression_label)
    order = rng.permutation(len(fields))
    return ", ".join(fields[i] for i in order)
