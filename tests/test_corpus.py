"""Tokenizer, vocabulary, and training-pair construction tests."""

import random
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from drnnsim import corpus
from drnnsim.corpus import (
    SENTENCE_END,
    SENTENCE_START,
    SPECIAL_TOKENS,
    UNKNOWN_TOKEN,
    Vocabulary,
    build_vocab,
    make_training_pairs,
    tokenize,
)


def ascii_tokenize(text):
    """The tokenizer as it was before it accepted letters and digits of every script."""
    chunks = re.split(r"(?<=[.!?])\s+", text.lower())
    return [words for words in (re.findall(r"[a-z0-9']+|[^\sa-z0-9']", chunk) for chunk in chunks) if words]


class TestTokenize:
    def test_empty_text(self):
        assert tokenize("") == []

    def test_two_sentences(self):
        assert tokenize("The cat sat. The cat ran.") == [
            ["the", "cat", "sat", "."],
            ["the", "cat", "ran", "."],
        ]

    def test_exclamation(self):
        assert tokenize("Hi!") == [["hi", "!"]]

    def test_question_mark_and_case(self):
        assert tokenize("Is it? Yes.") == [["is", "it", "?"], ["yes", "."]]

    def test_no_terminal_punctuation(self):
        assert tokenize("hello world") == [["hello", "world"]]

    def test_inner_punctuation_kept_as_tokens(self):
        assert tokenize("well, yes.") == [["well", ",", "yes", "."]]

    def test_unicode_letters_stay_in_their_word(self):
        assert tokenize("Café naïve Ωμέγα 12³.") == [["café", "naïve", "ωμέγα", "12³", "."]]

    def test_underscore_is_punctuation(self):
        assert tokenize("snake_case") == [["snake", "_", "case"]]

    @given(st.text(alphabet=st.characters(max_codepoint=127)))
    def test_ascii_text_tokenizes_as_before(self, text):
        assert tokenize(text) == ascii_tokenize(text)


class TestBuildVocab:
    def test_frequency_and_tie_break(self):
        sentences = tokenize("the cat sat on the mat")
        vocab = build_vocab(sentences, max_words=2)
        assert vocab.words[0] == "the"  # freq 2
        assert vocab.words[1] == "cat"  # first seen among freq-1 words
        assert vocab.words[2:] == SPECIAL_TOKENS
        assert vocab.size == 5

    def test_fewer_distinct_words_than_budget(self):
        sentences = [["hello"]] * 5
        vocab = build_vocab(sentences, max_words=10)
        assert vocab.size == 4  # 1 word + 3 specials

    def test_zero_budget_is_an_error(self):
        with pytest.raises(ValueError, match="empty vocabulary"):
            build_vocab([["a"]], max_words=0)

    def test_specials_occupy_highest_indices(self):
        vocab = build_vocab([["a", "b"]], max_words=10)
        assert vocab.decode(vocab.start_id) == SENTENCE_START
        assert vocab.decode(vocab.end_id) == SENTENCE_END
        assert vocab.decode(vocab.unknown_id) == UNKNOWN_TOKEN
        assert vocab.unknown_id == vocab.size - 1

    def test_frequencies_non_increasing(self):
        rng = random.Random(11)
        words = [f"w{i}" for i in range(30)]
        sentences = [[rng.choice(words) for _ in range(8)] for _ in range(40)]
        vocab = build_vocab(sentences, max_words=20)
        counts = Counter(w for s in sentences for w in s)
        freqs = [counts[w] for w in vocab.words[:-3]]
        assert freqs == sorted(freqs, reverse=True)


class TestVocabulary:
    def test_encode_decode_roundtrip(self):
        vocab = build_vocab(tokenize("alpha beta gamma. beta gamma. gamma."), max_words=10)
        for word in vocab.words:
            assert vocab.decode(vocab.encode(word)) == word

    def test_unknown_word_maps_to_unknown_id(self):
        vocab = build_vocab([["known"]], max_words=5)
        assert vocab.encode("never-seen") == vocab.unknown_id

    def test_decode_out_of_range(self):
        vocab = build_vocab([["a"]], max_words=5)
        with pytest.raises(ValueError):
            vocab.decode(vocab.size)

    def test_rejects_missing_specials(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "b", "c"])

    def test_file_roundtrip(self, tmp_path):
        vocab = build_vocab(tokenize("one two two three three three."), max_words=10)
        path = tmp_path / "vocab.txt"
        corpus.save_vocab(vocab, path)
        lines = path.read_text().splitlines()
        assert lines == list(vocab.words)
        assert lines[-3:] == list(SPECIAL_TOKENS)
        assert corpus.load_vocab(path).words == vocab.words


class TestTrainingPairs:
    def test_minimal_sentence(self):
        vocab = build_vocab([["hi"]], max_words=5)
        (pair,) = make_training_pairs([["hi"]], vocab)
        assert pair.input == [vocab.start_id, vocab.encode("hi")]
        assert pair.label == [vocab.encode("hi"), vocab.end_id]

    def test_oov_word_encodes_to_unknown(self):
        vocab = build_vocab([["hi"]], max_words=5)
        (pair,) = make_training_pairs([["hi", "stranger"]], vocab)
        assert pair.input[2] == vocab.unknown_id
        assert pair.label[1] == vocab.unknown_id

    def test_pair_invariants(self):
        sentences = tokenize("the cat sat. the dog ran away. hi!")
        vocab = build_vocab(sentences, max_words=10)
        pairs = make_training_pairs(sentences, vocab)
        assert len(pairs) == 3
        for pair in pairs:
            assert len(pair.input) == len(pair.label)
            assert pair.input[0] == vocab.start_id
            assert pair.label[-1] == vocab.end_id
            for t in range(len(pair.input) - 1):
                assert pair.label[t] == pair.input[t + 1]
            assert all(0 <= i < vocab.size for i in pair.input + pair.label)

    def test_empty_sentence_list_is_an_error(self):
        vocab = build_vocab([["a"]], max_words=5)
        with pytest.raises(ValueError):
            make_training_pairs([], vocab)

    def test_random_corpora_hold_invariants(self):
        rng = random.Random(3)
        lexicon = [f"w{i}" for i in range(25)]
        for _ in range(20):
            sentences = [
                [rng.choice(lexicon) for _ in range(rng.randint(1, 9))]
                for _ in range(rng.randint(1, 15))
            ]
            vocab = build_vocab(sentences, max_words=rng.randint(1, 30))
            for pair in make_training_pairs(sentences, vocab):
                assert len(pair.input) == len(pair.label)
                assert pair.label[:-1] == pair.input[1:]


class TestEncodedCorpusFile:
    def test_roundtrip(self, tmp_path):
        encoded = [[0, 3, 2], [1], [4, 4]]
        path = tmp_path / "tokens.txt"
        corpus.save_encoded_corpus(encoded, path)
        assert corpus.load_encoded_corpus(path, vocab_size=5) == encoded

    def test_out_of_range_id_rejected(self, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_text("0 7\n")
        with pytest.raises(ValueError, match="out of range"):
            corpus.load_encoded_corpus(path, vocab_size=5)


def test_bundled_corpus_is_within_budget():
    sentences = tokenize(corpus.bundled_corpus_path().read_text(encoding="utf-8"))
    assert 0 < len(sentences) <= 200
    vocab = build_vocab(sentences, max_words=100)
    assert vocab.size <= 100


def test_bundled_corpus_tokenizes_as_before():
    text = corpus.bundled_corpus_path().read_text(encoding="utf-8")
    assert tokenize(text) == ascii_tokenize(text)
    assert build_vocab(tokenize(text)).words == build_vocab(ascii_tokenize(text)).words
