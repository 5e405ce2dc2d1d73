"""Adaptive online Latent Dirichlet Allocation (variational Bayes).

Implements Hoffman, Blei & Bach's *Online Learning for Latent Dirichlet
Allocation* (NIPS 2010): mini-batch variational E-steps and stochastic
natural-gradient M-steps with learning rate ``rho_t = (tau0 + t)^-kappa``.
This is the algorithm family the paper's R4 (emerging alert detection)
builds on — its refs [30]/[31] use adaptive online LDA over text streams
to surface *emerging topics*, which the mitigation package applies to
alert streams.

The vocabulary may *grow* between batches (``grow_vocab``): new columns
are appended with prior weight, which is the "adaptive" part — alert
streams keep introducing new component names.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.common.validation import require_positive

__all__ = ["OnlineLDA"]

#: A bag-of-words document: (word ids, word counts), aligned arrays.
BowDoc = tuple[np.ndarray, np.ndarray]


def _dirichlet_expectation(alpha: np.ndarray) -> np.ndarray:
    """E[log theta] for theta ~ Dir(alpha), rows independent."""
    # Imported here: scipy would cost every process a quarter second.
    from scipy.special import psi

    if alpha.ndim == 1:
        return psi(alpha) - psi(alpha.sum())
    return psi(alpha) - psi(alpha.sum(axis=1))[:, np.newaxis]


class OnlineLDA:
    """Online variational Bayes for LDA."""

    def __init__(
        self,
        n_topics: int,
        vocab_size: int,
        alpha: float | None = None,
        eta: float = 0.01,
        tau0: float = 1.0,
        kappa: float = 0.7,
        seed: int = 42,
        e_step_iters: int = 60,
        e_step_tol: float = 1e-4,
    ) -> None:
        require_positive(n_topics, "n_topics")
        require_positive(vocab_size, "vocab_size")
        require_positive(eta, "eta")
        if not 0.5 < kappa <= 1.0:
            raise ValidationError(f"kappa must be in (0.5, 1] for convergence, got {kappa}")
        self.n_topics = int(n_topics)
        self.vocab_size = int(vocab_size)
        self.alpha = float(alpha) if alpha is not None else 1.0 / n_topics
        self.eta = float(eta)
        self.tau0 = float(tau0)
        self.kappa = float(kappa)
        self._e_step_iters = int(e_step_iters)
        self._e_step_tol = float(e_step_tol)
        self._updates = 0
        rng = np.random.default_rng(seed)
        self._lambda = rng.gamma(100.0, 1.0 / 100.0, (n_topics, vocab_size))
        self._refresh_expectations()

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def updates(self) -> int:
        """Number of mini-batch updates applied."""
        return self._updates

    @property
    def topic_word(self) -> np.ndarray:
        """Normalised topic-word distributions, shape (K, V)."""
        return self._lambda / self._lambda.sum(axis=1)[:, np.newaxis]

    def top_words(self, topic: int, n: int = 8) -> list[int]:
        """Ids of the ``n`` highest-probability words of ``topic``."""
        if not 0 <= topic < self.n_topics:
            raise ValidationError(f"topic {topic} out of range")
        return list(np.argsort(-self._lambda[topic])[:n])

    # ------------------------------------------------------------------
    # learning
    # ------------------------------------------------------------------
    def grow_vocab(self, new_vocab_size: int) -> None:
        """Extend the vocabulary axis with prior-weight columns."""
        if new_vocab_size < self.vocab_size:
            raise ValidationError(
                f"vocabulary cannot shrink: {new_vocab_size} < {self.vocab_size}"
            )
        if new_vocab_size == self.vocab_size:
            return
        extra = new_vocab_size - self.vocab_size
        prior = np.full((self.n_topics, extra), self.eta)
        self._lambda = np.hstack([self._lambda, prior])
        self.vocab_size = new_vocab_size
        self._refresh_expectations()

    def partial_fit(self, docs: list[BowDoc], corpus_size: int | None = None) -> np.ndarray:
        """One online update from a mini-batch; returns the batch gammas.

        ``corpus_size`` scales the sufficient statistics (D in the paper's
        update); defaults to the batch size, appropriate for a pure stream.
        """
        if not docs:
            raise ValidationError("mini-batch must contain at least one document")
        corpus_size = corpus_size or len(docs)
        gamma, sstats = self._e_step(docs)
        rho = (self.tau0 + self._updates) ** (-self.kappa)
        scaled = self.eta + (corpus_size / len(docs)) * sstats
        self._lambda = (1.0 - rho) * self._lambda + rho * scaled
        self._refresh_expectations()
        self._updates += 1
        return gamma

    def transform(self, docs: list[BowDoc]) -> np.ndarray:
        """Per-document topic proportions (normalised variational gamma)."""
        gamma, _ = self._e_step(docs, collect_sstats=False)
        return gamma / gamma.sum(axis=1)[:, np.newaxis]

    def score(self, doc: BowDoc) -> float:
        """Per-word variational log-likelihood bound of one document.

        Higher means the model explains the document well; *emerging*
        documents (novel word combinations) score low.
        """
        ids, counts = doc
        if ids.size == 0:
            return 0.0
        gamma, _ = self._e_step([doc], collect_sstats=False)
        e_log_theta = _dirichlet_expectation(gamma)[0]
        log_phi = self._e_log_beta[:, ids] + e_log_theta[:, np.newaxis]
        # log sum_k exp(log phi_kw) per word, stabilised.
        peak = log_phi.max(axis=0)
        word_ll = peak + np.log(np.exp(log_phi - peak).sum(axis=0))
        return float((counts * word_ll).sum() / counts.sum())

    def perplexity(self, docs: list[BowDoc]) -> float:
        """exp(-mean per-word bound) over ``docs`` (lower is better)."""
        total_ll = 0.0
        total_words = 0
        for doc in docs:
            ids, counts = doc
            if ids.size == 0:
                continue
            total_ll += self.score(doc) * counts.sum()
            total_words += int(counts.sum())
        if total_words == 0:
            raise ValidationError("cannot compute perplexity of empty documents")
        return float(np.exp(-total_ll / total_words))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _refresh_expectations(self) -> None:
        self._e_log_beta = _dirichlet_expectation(self._lambda)
        self._exp_e_log_beta = np.exp(self._e_log_beta)

    def _e_step(self, docs: list[BowDoc],
                collect_sstats: bool = True) -> tuple[np.ndarray, np.ndarray]:
        n_docs = len(docs)
        gamma = np.ones((n_docs, self.n_topics))
        sstats = np.zeros_like(self._lambda) if collect_sstats else np.empty(0)
        for d, (ids, counts) in enumerate(docs):
            if ids.size == 0:
                continue
            if ids.max() >= self.vocab_size:
                raise ValidationError(
                    f"document references word id {int(ids.max())} beyond "
                    f"vocab size {self.vocab_size}; call grow_vocab first"
                )
            counts_f = counts.astype(float)
            gamma_d = gamma[d]
            exp_e_log_theta = np.exp(_dirichlet_expectation(gamma_d))
            exp_e_log_beta_d = self._exp_e_log_beta[:, ids]
            phinorm = exp_e_log_theta @ exp_e_log_beta_d + 1e-100
            for _ in range(self._e_step_iters):
                last_gamma = gamma_d
                gamma_d = self.alpha + exp_e_log_theta * (
                    (counts_f / phinorm) @ exp_e_log_beta_d.T
                )
                exp_e_log_theta = np.exp(_dirichlet_expectation(gamma_d))
                phinorm = exp_e_log_theta @ exp_e_log_beta_d + 1e-100
                if np.mean(np.abs(gamma_d - last_gamma)) < self._e_step_tol:
                    break
            gamma[d] = gamma_d
            if collect_sstats:
                sstats[:, ids] += np.outer(exp_e_log_theta, counts_f / phinorm)
        if collect_sstats:
            sstats *= self._exp_e_log_beta
        return gamma, sstats
