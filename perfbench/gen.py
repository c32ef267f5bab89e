"""Seeded synthetic candidate files for the benchmark workloads.

The same seed always yields the same bytes.  Only numpy and the standard
library are used here, so generating inputs never runs crpo code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

K = 16
# Two directions out of English and two into it, so rs_dpo resolves both
# eta classes (out_of_en 0.6, into_en 0.5).
DIRECTIONS = ("en-de", "en-zh", "de-en", "zh-en")
REWARD_MODELS = ("qe_a", "qe_b")
PARAPHRASE_KEEP = 0.7
SELECT_SOURCE = "src{:05d}"
MBR_SOURCE = "para{:04d}"

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ei", "au")


def _vocabulary(rng: np.random.Generator, size: int = 3000) -> list[str]:
    syllables = [o + v for o in _ONSETS for v in _VOWELS]
    words: set[str] = set()
    while len(words) < size:
        n = int(rng.integers(1, 4))
        words.add("".join(syllables[i] for i in rng.integers(len(syllables), size=n)))
    return sorted(words)


def _sentence(rng: np.random.Generator, vocab: list[str], n_words: int) -> list[str]:
    return [vocab[i] for i in rng.integers(len(vocab), size=n_words)]


def candidate_id(j: int) -> str:
    return f"c{j:02d}"


def _record(source_id, source_text, direction, j, words, logprob, rewards, token_count):
    return json.dumps(
        {
            "source_id": source_id,
            "source_text": source_text,
            "direction": direction,
            "candidate_id": candidate_id(j),
            "text": " ".join(words),
            "logprob": logprob,
            "rewards": rewards,
            "token_count": token_count,
        },
        ensure_ascii=False,
    )


def _scores(rng: np.random.Generator, n_tokens: np.ndarray):
    """Two noisy reward models around a latent quality, and a sequence
    log-probability that grows with length and falls with quality."""
    quality = rng.beta(2.5, 2.5, size=len(n_tokens))
    rewards = np.clip(quality[:, None] + rng.normal(0.0, 0.05, (len(n_tokens), 2)), 0.0, 1.0)
    per_token = 0.3 + 1.2 * (1.0 - quality) + rng.gamma(2.0, 0.25, size=len(n_tokens))
    logprob = -(n_tokens * per_token)
    return rewards, logprob


def write_select_input(path: Path, seed: int, n_pools: int) -> int:
    """``n_pools`` pools of K word-level candidates of 8-30 words.  Returns
    the number of records written."""
    rng = np.random.default_rng([seed, 1])
    vocab = _vocabulary(rng)
    lines = ['{"_meta": {"ref_policy": "bench-ref-v1"}}']
    for i in range(n_pools):
        source_id = SELECT_SOURCE.format(i)
        direction = DIRECTIONS[i % len(DIRECTIONS)]
        source_text = " ".join(_sentence(rng, vocab, int(rng.integers(8, 31))))
        n_words = rng.integers(8, 31, size=K)
        n_tokens = n_words + rng.integers(0, n_words // 3 + 1)
        rewards, logprob = _scores(rng, n_tokens)
        for j in range(K):
            lines.append(
                _record(
                    source_id,
                    source_text,
                    direction,
                    j,
                    _sentence(rng, vocab, int(n_words[j])),
                    round(float(logprob[j]), 6),
                    {m: round(float(r), 6) for m, r in zip(REWARD_MODELS, rewards[j])},
                    int(n_tokens[j]),
                )
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return n_pools * K


def write_mbr_input(path: Path, seed: int, n_pools: int) -> int:
    """``n_pools`` paraphrase pools: every candidate keeps each word of a
    shared base sentence of 12-20 words with probability ``PARAPHRASE_KEEP``
    and replaces it otherwise, so candidates share about 70% of their words."""
    rng = np.random.default_rng([seed, 2])
    vocab = _vocabulary(rng)
    lines = []
    for i in range(n_pools):
        source_id = MBR_SOURCE.format(i)
        direction = DIRECTIONS[i % len(DIRECTIONS)]
        # Lengths cycle through 12..20 so every seed has the same utility cost.
        base = _sentence(rng, vocab, 12 + i % 9)
        n_tokens = np.full(K, len(base))
        rewards, logprob = _scores(rng, n_tokens)
        for j in range(K):
            swap = rng.random(len(base)) >= PARAPHRASE_KEEP
            words = [
                vocab[int(rng.integers(len(vocab)))] if s else w for w, s in zip(base, swap)
            ]
            lines.append(
                _record(
                    source_id,
                    f"source paragraph {i}",
                    direction,
                    j,
                    words,
                    round(float(logprob[j]), 6),
                    {m: round(float(r), 6) for m, r in zip(REWARD_MODELS, rewards[j])},
                    int(n_tokens[j]),
                )
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return n_pools * K
