"""Synthetic prediction dumps with known ground-truth calibration.

Each question draws a latent confidence u ~ Uniform(0,1). The greedy answer's
token logprobs are built so its sequence probability equals u bit-exactly,
and its correctness is Bernoulli(clamp(u + miscalibration_shift)), so with
zero shift the likelihood score is perfectly calibrated by construction.
Samples agree with the greedy answer with probability u; under paraphrase
clustering the agreeing samples are textually distinct rewrites of it, which
deflates exact-match agreement scores while n-gram similarity still sees the
agreement.

Generation is driven by a single PCG64 stream (numpy), so a config is a
complete, portable recipe: identical config, identical dump, byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .records import GoldAnnotation, GoldRecord, PredictionRecord, SampledAnswer, _set, _Value

_ANSWER_BANK = (
    "red apple", "blue mug", "green bottle", "wooden chair", "silver laptop",
    "black remote", "white charger", "orange juice", "cereal box", "soup can",
    "dog food", "paper towel", "hand soap", "tomato sauce", "coffee beans",
    "tea kettle", "desk lamp", "wall clock", "door key", "phone case",
    "water filter", "spice jar", "pill bottle", "shampoo bottle", "laundry soap",
    "frozen pizza", "ice cream", "angle grinder", "tape measure", "light bulb",
    "remote control", "game controller", "keyboard tray", "monitor stand", "usb cable",
    "gift card", "bus ticket", "library book", "house plant", "picture frame",
)

# Rewrites keep pairwise n-gram similarity in a mid range (roughly 0.3-0.8)
# without any language model: the base answer survives intact, adjunct words
# differ. Articles would be stripped by normalization, so none appear here.
_PARAPHRASE_SUFFIXES = (" here", " nearby", " i think", " in view", " on top", " close up")
N_PARAPHRASE_VARIANTS = 1 + len(_PARAPHRASE_SUFFIXES)


def paraphrase(base: str, variant: int) -> str:
    """Variant 0 is the base answer itself; others append adjunct words."""
    if variant == 0:
        return base
    return base + _PARAPHRASE_SUFFIXES[(variant - 1) % len(_PARAPHRASE_SUFFIXES)]


class SynthConfig(_Value):
    __slots__ = _fields = __match_args__ = (
        "n", "seed", "miscalibration_shift", "paraphrase_cluster_rate", "abstain_rate",
        "samples_per_q",
    )
    n: int
    seed: int
    miscalibration_shift: float
    paraphrase_cluster_rate: float
    abstain_rate: float
    samples_per_q: int

    def __init__(
        self,
        n: int,
        seed: int,
        miscalibration_shift: float = 0.0,
        paraphrase_cluster_rate: float = 0.0,
        abstain_rate: float = 0.0,
        samples_per_q: int = 10,
    ) -> None:
        _set(self, "n", n)
        _set(self, "seed", seed)
        _set(self, "miscalibration_shift", miscalibration_shift)
        _set(self, "paraphrase_cluster_rate", paraphrase_cluster_rate)
        _set(self, "abstain_rate", abstain_rate)
        _set(self, "samples_per_q", samples_per_q)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.samples_per_q < 1:
            raise ValueError(f"samples_per_q must be >= 1, got {self.samples_per_q}")
        if not -1.0 <= self.miscalibration_shift <= 1.0:
            raise ValueError("miscalibration_shift must lie in [-1, 1]")
        for name in ("paraphrase_cluster_rate", "abstain_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def generate(config: SynthConfig) -> tuple[list[PredictionRecord], list[GoldRecord]]:
    """Produce (predictions, gold) for one config; deterministic given the seed."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    predictions: list[PredictionRecord] = []
    golds: list[GoldRecord] = []
    meta = {
        "model": "synth",
        "temperature": "0.7",
        "samples": str(config.samples_per_q),
        "seed": str(config.seed),
    }
    for i in range(config.n):
        qid = f"q{i:06d}"
        u = float(rng.random())
        while u == 0.0:
            u = float(rng.random())
        logprob = math.log(u)
        # exp(log(u)) is what likelihood scoring will recompute, so treat it
        # as the latent confidence to keep the construction exact.
        u_eff = math.exp(logprob)
        abstains = float(rng.random()) < config.abstain_rate
        clustered = float(rng.random()) < config.paraphrase_cluster_rate
        p_correct = min(1.0, max(0.0, u_eff + config.miscalibration_shift))
        correct = float(rng.random()) < p_correct

        truth = _ANSWER_BANK[int(rng.integers(len(_ANSWER_BANK)))]
        wrong = _ANSWER_BANK[int(rng.integers(len(_ANSWER_BANK) - 1))]
        if wrong == truth:  # the draw skips one slot; remap collisions
            wrong = _ANSWER_BANK[-1]

        if abstains:
            answer_text = "unanswerable"
        elif correct:
            answer_text = truth
        else:
            answer_text = wrong

        greedy = SampledAnswer(text=answer_text, logprobs=(logprob, 0.0))
        samples = _make_samples(rng, config, answer_text, u_eff, logprob, clustered)
        predictions.append(
            PredictionRecord(question_id=qid, greedy=greedy, samples=samples, meta=meta)
        )
        golds.append(_make_gold(rng, qid, truth, abstains))
    return predictions, golds


def _make_samples(
    rng: np.random.Generator,
    config: SynthConfig,
    answer_text: str,
    u_eff: float,
    logprob: float,
    clustered: bool,
) -> tuple[SampledAnswer, ...]:
    k = config.samples_per_q
    distractor_pool = [b for b in _ANSWER_BANK if b != answer_text]
    distractor_start = int(rng.integers(len(distractor_pool)))
    samples = []
    n_agree = 0
    n_disagree = 0
    for _ in range(k):
        if float(rng.random()) < u_eff:
            if clustered:
                variant = n_agree % N_PARAPHRASE_VARIANTS
                text = paraphrase(answer_text, variant)
                lp = logprob + math.log(1.0 / N_PARAPHRASE_VARIANTS)
            else:
                text = answer_text
                lp = logprob
            n_agree += 1
        else:
            # Distinct distractor per slot: walk the pool from a random start.
            text = distractor_pool[(distractor_start + n_disagree) % len(distractor_pool)]
            lp = math.log((1.0 - u_eff) / k) if u_eff < 1.0 else math.log(1e-12)
            n_disagree += 1
        samples.append(SampledAnswer(text=text, logprobs=(lp, 0.0)))
    return tuple(samples)


def _make_gold(
    rng: np.random.Generator, qid: str, truth: str, abstains: bool
) -> GoldRecord:
    annotations = []
    if abstains:
        for _ in range(10):
            annotations.append(
                GoldAnnotation(answer="unanswerable", answerable=False, answer_confidence="yes")
            )
        return GoldRecord(question_id=qid, annotations=tuple(annotations))
    for a in range(10):
        if a == 0:
            answer, flag = truth, True
        else:
            if float(rng.random()) < 0.8:
                answer = truth
            else:
                answer = paraphrase(truth, 1 + int(rng.integers(len(_PARAPHRASE_SUFFIXES))))
            flag = float(rng.random()) < 0.9
        confidence = "yes" if flag else "maybe"
        annotations.append(
            GoldAnnotation(answer=answer, answerable=flag, answer_confidence=confidence)
        )
    return GoldRecord(question_id=qid, annotations=tuple(annotations))
