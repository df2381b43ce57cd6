"""Corpus preparation: sentence tokenization, frequency-sorted vocabulary,
and shifted input/label token pairs for next-word training."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

SENTENCE_START = "SENTENCE_START"
SENTENCE_END = "SENTENCE_END"
UNKNOWN_TOKEN = "UNKNOWN_TOKEN"
SPECIAL_TOKENS = (SENTENCE_START, SENTENCE_END, UNKNOWN_TOKEN)
N_SPECIAL_TOKENS = len(SPECIAL_TOKENS)

DEFAULT_VOCAB_BUDGET = 4000

# A sentence ends at . ! or ? followed by whitespace (or end of text).
_SENTENCE_BREAK = re.compile(r"(?<=[.!?])\s+")
# A token is a run of letters/digits of any script (apostrophes allowed
# inside words) or any other single non-space character. ``\w`` also
# matches "_", so tokenize() spaces each "_" out into a token of its own.
_TOKEN = re.compile(r"[\w']+|\S")


def start_token_id(vocab_size: int) -> int:
    return vocab_size - 3


def end_token_id(vocab_size: int) -> int:
    return vocab_size - 2


def unknown_token_id(vocab_size: int) -> int:
    return vocab_size - 1


def tokenize(text: str) -> list[list[str]]:
    """Split text into sentences of lowercase word tokens.

    Sentences break on terminal punctuation (. ! ?); punctuation marks are
    kept as tokens of their own. Empty text yields an empty list.
    """
    sentences = []
    for chunk in _SENTENCE_BREAK.split(text.lower()):
        words = _TOKEN.findall(chunk.replace("_", " _ "))
        if words:
            sentences.append(words)
    return sentences


class Vocabulary:
    """Word/index bijection, most frequent words first, specials on top.

    Index i maps to ``words[i]``. The three special tokens always occupy
    the highest indices (in the order start, end, unknown) so ordinary
    word ids are stable regardless of corpus size. Immutable once built.
    """

    def __init__(self, words: list[str]):
        if len(words) < N_SPECIAL_TOKENS or tuple(words[-3:]) != SPECIAL_TOKENS:
            raise ValueError("vocabulary must end with the three special tokens")
        if len(set(words)) != len(words):
            raise ValueError("vocabulary contains duplicate words")
        self.words: tuple[str, ...] = tuple(words)
        self.index_of: dict[str, int] = {w: i for i, w in enumerate(words)}

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def start_id(self) -> int:
        return start_token_id(self.size)

    @property
    def end_id(self) -> int:
        return end_token_id(self.size)

    @property
    def unknown_id(self) -> int:
        return unknown_token_id(self.size)

    def encode(self, word: str) -> int:
        """Token id of a word; out-of-vocabulary words map to the unknown id."""
        return self.index_of.get(word, self.unknown_id)

    def decode(self, token_id: int) -> str:
        if not 0 <= token_id < self.size:
            raise ValueError(f"token id {token_id} out of range [0, {self.size})")
        return self.words[token_id]

    def __len__(self) -> int:
        return self.size

    def __contains__(self, word: str) -> bool:
        return word in self.index_of


@dataclass(frozen=True)
class TrainingPair:
    """Equal-length input/label sequences; label is the input shifted by one."""

    input: list[int]
    label: list[int]


def build_vocab(sentences: list[list[str]], max_words: int = DEFAULT_VOCAB_BUDGET) -> Vocabulary:
    """Keep the ``max_words`` most frequent words plus the special tokens.

    Ties between equally frequent words are broken by first occurrence in
    the corpus, which makes the vocabulary deterministic.
    """
    if max_words < 1:
        raise ValueError("empty vocabulary: max_words must be >= 1")
    counts = Counter(w for sentence in sentences for w in sentence)
    # Counter iterates in first-seen order, and most_common is a stable
    # sort on the counts, which gives the first-occurrence tie-break.
    kept = [w for w, _ in counts.most_common(max_words)]
    return Vocabulary(kept + list(SPECIAL_TOKENS))


def pairs_from_encoded(encoded_sentences: list[list[int]], vocab_size: int) -> list[TrainingPair]:
    """Wrap already-encoded sentences into start-prefixed, end-suffixed pairs."""
    if not encoded_sentences:
        raise ValueError("no sentences to pair")
    start = start_token_id(vocab_size)
    end = end_token_id(vocab_size)
    pairs = []
    for ids in encoded_sentences:
        pairs.append(TrainingPair(input=[start] + list(ids), label=list(ids) + [end]))
    return pairs


def make_training_pairs(sentences: list[list[str]], vocab: Vocabulary) -> list[TrainingPair]:
    """Encode each sentence and build its shifted input/label pair."""
    encoded = [[vocab.encode(w) for w in sentence] for sentence in sentences]
    return pairs_from_encoded(encoded, vocab.size)


# ---------------------------------------------------------------------------
# File formats: vocabulary and encoded-corpus text files
# ---------------------------------------------------------------------------

def save_vocab(vocab: Vocabulary, path: str | Path) -> None:
    """One word per line; line number equals token id, specials last."""
    Path(path).write_text("\n".join(vocab.words) + "\n", encoding="utf-8")


def load_vocab(path: str | Path) -> Vocabulary:
    words = Path(path).read_text(encoding="utf-8").splitlines()
    return Vocabulary(words)


def save_encoded_corpus(encoded_sentences: list[list[int]], path: str | Path) -> None:
    """One sentence per line as space-separated token ids."""
    lines = [" ".join(str(i) for i in ids) for ids in encoded_sentences]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_encoded_corpus(path: str | Path, vocab_size: int) -> list[list[int]]:
    sentences = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        ids = [int(tok) for tok in line.split()]
        for i in ids:
            if not 0 <= i < vocab_size:
                raise ValueError(f"token id {i} on line {lineno} out of range [0, {vocab_size})")
        sentences.append(ids)
    return sentences


def bundled_corpus_path() -> Path:
    """Path of the small corpus shipped with the package, for demos and tests."""
    return Path(str(resources.files("drnnsim").joinpath("data/tiny_corpus.txt")))
