"""Seeded synthetic corpus: Zipf-distributed word ids in sentences of 5 to 25 words.

Each block of 21 consecutive sentences holds every length from 5 to 25 once,
in a seeded order, so any whole number of blocks has the same token count
for every seed and a rate over them does not depend on how long the
seed's sentences happen to be. Word id k (0-based, ``vocab - 3`` ordinary words) is drawn with probability
proportional to 1 / (k + 1), so ids are already in the most-frequent-first
order that ``drnnsim.corpus`` uses, and the three special tokens keep the top
ids. The same seed gives the same ids; the generator is numpy's PCG64.
"""

from __future__ import annotations

import numpy as np

MIN_LEN = 5
MAX_LEN = 25
BLOCK = MAX_LEN - MIN_LEN + 1  # sentences that hold every length once


def zipf_sentences(seed: int, n_sentences: int, vocab: int) -> list[list[int]]:
    """``n_sentences`` lists of word ids in [0, vocab - 3)."""
    n_words = vocab - 3
    weights = 1.0 / np.arange(1, n_words + 1)
    rng = np.random.default_rng(seed)
    blocks = -(-n_sentences // BLOCK)
    lengths = np.concatenate([rng.permutation(np.arange(MIN_LEN, MAX_LEN + 1)) for _ in range(blocks)])[:n_sentences]
    ids = rng.choice(n_words, size=int(lengths.sum()), p=weights / weights.sum())
    return [chunk.tolist() for chunk in np.split(ids, np.cumsum(lengths)[:-1])]


def render_text(sentences: list[list[int]]) -> str:
    """Plain text for the tokenizer: word id k becomes ``wk``, each sentence ends with '.'."""
    return "\n".join(" ".join(f"w{k}" for k in ids) + "." for ids in sentences) + "\n"


def rendered_tokens(sentences: list[list[int]]) -> list[list[str]]:
    """What ``corpus.tokenize(render_text(sentences))`` must return."""
    return [[f"w{k}" for k in ids] + ["."] for ids in sentences]
