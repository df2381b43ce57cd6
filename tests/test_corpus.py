"""Tokenizer, vocabulary, and training-pair construction tests."""

import random
import re
import tempfile
import unicodedata
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

# Every character str.splitlines breaks at except LF and CR, which read_text maps to LF.
LINE_BREAKS_THAT_ARE_NOT_LF = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


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

    def test_decomposed_letters_stay_in_their_word(self):
        assert tokenize(unicodedata.normalize("NFD", "naïve café")) == [["naïve", "café"]]

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
        with pytest.raises(ValueError, match="^max_words must be >= 1, got 0$"):
            build_vocab([["a"]], max_words=0)

    @pytest.mark.parametrize("max_words", [2.5, True, "3", None], ids=repr)
    def test_budget_follows_the_integer_rule(self, max_words):
        with pytest.raises(ValueError, match=f"^max_words must be an integer, got {re.escape(repr(max_words))}$"):
            build_vocab([["a"]], max_words=max_words)

    def test_specials_occupy_highest_indices(self):
        vocab = build_vocab([["a", "b"]], max_words=10)
        assert vocab.decode(corpus.start_token_id(vocab.size)) == SENTENCE_START
        assert vocab.decode(corpus.end_token_id(vocab.size)) == SENTENCE_END
        assert vocab.decode(corpus.unknown_token_id(vocab.size)) == UNKNOWN_TOKEN
        assert corpus.unknown_token_id(vocab.size) == vocab.size - 1

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
        assert vocab.encode("never-seen") == corpus.unknown_token_id(vocab.size)

    def test_decode_out_of_range(self):
        vocab = build_vocab([["a"]], max_words=5)
        with pytest.raises(ValueError):
            vocab.decode(vocab.size)

    def test_rejects_missing_specials(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "b", "c"])

    def test_rejects_duplicate_words(self):
        with pytest.raises(ValueError, match="duplicate words"):
            Vocabulary(["a", "b", "a", *SPECIAL_TOKENS])

    @pytest.mark.parametrize("word", ["a\rb", "a\nb", "\r\n"], ids=repr)
    def test_rejects_a_word_holding_a_line_end(self, word):
        with pytest.raises(ValueError, match=f"^vocabulary word {re.escape(repr(word))} contains a line end$"):
            Vocabulary([word, "c", *SPECIAL_TOKENS])

    @pytest.mark.parametrize("make, word", [
        (lambda: Vocabulary([1, 2, *SPECIAL_TOKENS]), 1),
        (lambda: build_vocab([[1, 2]]), 1),
        (lambda: Vocabulary([["a"], "b", *SPECIAL_TOKENS]), ["a"]),
    ], ids=["Vocabulary", "build_vocab", "unhashable"])
    def test_rejects_a_word_that_is_not_a_str(self, make, word):
        with pytest.raises(ValueError, match=f"^vocabulary word {re.escape(repr(word))} is not a str$"):
            make()

    @given(st.lists(st.text(), unique=True))
    def test_every_vocabulary_that_constructs_survives_the_file(self, words):
        try:
            vocab = Vocabulary([*words, *SPECIAL_TOKENS])
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/vocab.txt"
            corpus.save_vocab(vocab, path)
            assert corpus.load_vocab(path).words == vocab.words

    def test_file_roundtrip(self, tmp_path):
        vocab = build_vocab(tokenize("one two two three three three."), max_words=10)
        path = tmp_path / "vocab.txt"
        corpus.save_vocab(vocab, path)
        lines = path.read_text().splitlines()
        assert lines == list(vocab.words)
        assert lines[-3:] == list(SPECIAL_TOKENS)
        assert corpus.load_vocab(path).words == vocab.words

    @pytest.mark.parametrize("sep", LINE_BREAKS_THAT_ARE_NOT_LF, ids=repr)
    def test_a_word_line_ends_only_at_lf(self, tmp_path, sep):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join([f"a{sep}b", "c", *SPECIAL_TOKENS]) + "\n", encoding="utf-8")
        assert corpus.load_vocab(path).words == (f"a{sep}b", "c", *SPECIAL_TOKENS)

    def test_crlf_vocabulary_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        for end in ("\r\n", "\r"):  # a lone CR ends a line too: read_text reads universal newlines
            path.write_bytes(end.join(["a", "b", *SPECIAL_TOKENS]).encode() + end.encode())
            assert corpus.load_vocab(path).words == ("a", "b", *SPECIAL_TOKENS)


class TestTrainingPairs:
    def test_minimal_sentence(self):
        vocab = build_vocab([["hi"]], max_words=5)
        (pair,) = make_training_pairs([["hi"]], vocab)
        assert pair.input == [corpus.start_token_id(vocab.size), vocab.encode("hi")]
        assert pair.label == [vocab.encode("hi"), corpus.end_token_id(vocab.size)]

    def test_oov_word_encodes_to_unknown(self):
        vocab = build_vocab([["hi"]], max_words=5)
        (pair,) = make_training_pairs([["hi", "stranger"]], vocab)
        assert pair.input[2] == corpus.unknown_token_id(vocab.size)
        assert pair.label[1] == corpus.unknown_token_id(vocab.size)

    def test_pair_invariants(self):
        sentences = tokenize("the cat sat. the dog ran away. hi!")
        vocab = build_vocab(sentences, max_words=10)
        pairs = make_training_pairs(sentences, vocab)
        assert len(pairs) == 3
        for pair in pairs:
            assert len(pair.input) == len(pair.label)
            assert pair.input[0] == corpus.start_token_id(vocab.size)
            assert pair.label[-1] == corpus.end_token_id(vocab.size)
            for t in range(len(pair.input) - 1):
                assert pair.label[t] == pair.input[t + 1]
            assert all(0 <= i < vocab.size for i in pair.input + pair.label)

    def test_pairs_encode_as_the_vocabulary_does(self):
        sentences = tokenize(corpus.bundled_corpus_path().read_text(encoding="utf-8"))
        for budget in (5, 100):  # many unknown words, then none
            vocab = build_vocab(sentences, max_words=budget)
            want = corpus.pairs_from_encoded([[vocab.encode(w) for w in s] for s in sentences], vocab.size)
            assert make_training_pairs(sentences, vocab) == want

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

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_text("0 1\n\n \t \n2\n")
        assert corpus.load_encoded_corpus(path, vocab_size=5) == [[0, 1], [2]]

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "+4", "-1", "abc", "0x1", "\u00b2", "1.0"])
    def test_only_ascii_decimal_ids_are_read(self, tmp_path, token):
        path = tmp_path / "tokens.txt"
        path.write_text(f"0 1\n2 {token} 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^token {re.escape(repr(token))} on line 2 is not a decimal token id$"):
            corpus.load_encoded_corpus(path, vocab_size=5)

    @pytest.mark.parametrize("sep", LINE_BREAKS_THAT_ARE_NOT_LF, ids=repr)
    def test_a_sentence_line_ends_only_at_lf(self, tmp_path, sep):
        path = tmp_path / "tokens.txt"
        path.write_text(f"1 2{sep}3 4\n0\n", encoding="utf-8")
        assert corpus.load_encoded_corpus(path, vocab_size=5) == [[1, 2, 3, 4], [0]]

    def test_crlf_token_file(self, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_bytes(b"0 1\r\n\r\n2\r\n")
        assert corpus.load_encoded_corpus(path, vocab_size=5) == [[0, 1], [2]]
        path.write_bytes(b"1 2\r3 4\n")  # a lone CR ends a line too
        assert corpus.load_encoded_corpus(path, vocab_size=5) == [[1, 2], [3, 4]]

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
