"""Tests for online variational LDA."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.common.errors import ValidationError
from repro.ml.lda import OnlineLDA
from repro.ml.tokenize import tokenize
from repro.ml.vocab import Vocabulary


@pytest.fixture()
def corpus():
    vocab = Vocabulary()
    topic_a = "disk full block storage allocate blocks failed volume"
    topic_b = "consumer lag kafka queue backlog messages broker partition"
    docs = [tokenize(topic_a) for _ in range(30)] + [tokenize(topic_b) for _ in range(30)]
    return vocab, vocab.docs_to_bows(docs)


class TestLearning:
    def test_separates_two_topics(self, corpus):
        vocab, bows = corpus
        lda = OnlineLDA(n_topics=2, vocab_size=len(vocab), seed=1)
        for start in range(0, len(bows), 10):
            lda.partial_fit(bows[start:start + 10])
        theta = lda.transform([bows[0], bows[-1]])
        assert theta[0].argmax() != theta[1].argmax()
        assert theta[0].max() > 0.8
        assert theta[1].max() > 0.8

    def test_topic_word_normalised(self, corpus):
        vocab, bows = corpus
        lda = OnlineLDA(n_topics=3, vocab_size=len(vocab), seed=1)
        lda.partial_fit(bows[:20])
        assert np.allclose(lda.topic_word.sum(axis=1), 1.0)

    def test_updates_counted(self, corpus):
        vocab, bows = corpus
        lda = OnlineLDA(n_topics=2, vocab_size=len(vocab), seed=1)
        lda.partial_fit(bows[:5])
        lda.partial_fit(bows[5:10])
        assert lda.updates == 2

    def test_top_words_align_with_topics(self, corpus):
        vocab, bows = corpus
        lda = OnlineLDA(n_topics=2, vocab_size=len(vocab), seed=1)
        for start in range(0, len(bows), 10):
            lda.partial_fit(bows[start:start + 10])
        theta = lda.transform([bows[0]])
        disk_topic = int(theta[0].argmax())
        top = {vocab.token_of(i) for i in lda.top_words(disk_topic, n=5)}
        assert "disk" in top or "storage" in top

    def test_perplexity_improves_with_training(self, corpus):
        vocab, bows = corpus
        untrained = OnlineLDA(n_topics=2, vocab_size=len(vocab), seed=1)
        early = untrained.perplexity(bows[:10])
        trained = OnlineLDA(n_topics=2, vocab_size=len(vocab), seed=1)
        for start in range(0, len(bows), 10):
            trained.partial_fit(bows[start:start + 10])
        late = trained.perplexity(bows[:10])
        assert late < early


class TestNovelty:
    def test_novel_document_scores_low(self, corpus):
        vocab, bows = corpus
        lda = OnlineLDA(n_topics=2, vocab_size=len(vocab), seed=1)
        for start in range(0, len(bows), 10):
            lda.partial_fit(bows[start:start + 10])
        in_model = lda.score(bows[0])
        novel_doc = vocab.doc_to_bow(tokenize("gpu thermal runaway xid nvlink errors"))
        lda.grow_vocab(len(vocab))
        assert lda.score(novel_doc) < in_model - 5.0


class TestVocabGrowth:
    def test_grow_extends_columns(self, corpus):
        vocab, bows = corpus
        lda = OnlineLDA(n_topics=2, vocab_size=10, seed=1)
        lda.grow_vocab(len(vocab))
        assert lda.vocab_size == len(vocab)
        lda.partial_fit(bows[:5])  # must not raise

    def test_shrink_rejected(self):
        lda = OnlineLDA(n_topics=2, vocab_size=10, seed=1)
        with pytest.raises(ValidationError):
            lda.grow_vocab(5)

    def test_out_of_vocab_document_rejected(self):
        lda = OnlineLDA(n_topics=2, vocab_size=3, seed=1)
        doc = (np.array([5]), np.array([1]))
        with pytest.raises(ValidationError):
            lda.partial_fit([doc])


class TestValidation:
    def test_empty_batch_rejected(self):
        lda = OnlineLDA(n_topics=2, vocab_size=3, seed=1)
        with pytest.raises(ValidationError):
            lda.partial_fit([])

    def test_bad_kappa_rejected(self):
        with pytest.raises(ValidationError):
            OnlineLDA(n_topics=2, vocab_size=3, kappa=0.3)

    def test_topic_out_of_range(self):
        lda = OnlineLDA(n_topics=2, vocab_size=3, seed=1)
        with pytest.raises(ValidationError):
            lda.top_words(5)

    def test_empty_doc_scores_zero(self):
        lda = OnlineLDA(n_topics=2, vocab_size=3, seed=1)
        assert lda.score((np.empty(0, dtype=int), np.empty(0, dtype=int))) == 0.0

    def test_perplexity_of_empty_rejected(self):
        lda = OnlineLDA(n_topics=2, vocab_size=3, seed=1)
        with pytest.raises(ValidationError):
            lda.perplexity([(np.empty(0, dtype=int), np.empty(0, dtype=int))])


def test_the_gateway_and_service_do_not_import_scipy():
    """scipy is only for fitting LDA: importing it would cost every
    gateway and service process a quarter second at start."""
    probe = (
        "import sys, repro, repro.streaming.gateway, repro.serving.service; "
        "sys.exit('scipy' in sys.modules)"
    )
    source = str(Path(repro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": source}
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
