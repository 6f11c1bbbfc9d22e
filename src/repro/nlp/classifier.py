"""Intent classification: multinomial logistic regression + pipeline wrapper."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from repro.errors import NLPError, NotFittedError
from repro.nlp.tokenizer import Utterance
from repro.nlp.vectorizer import TfidfVectorizer


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class SoftmaxClassifier:
    """Multinomial logistic regression trained by full-batch gradient descent.

    Works directly on SciPy sparse matrices.  Uses L2 regularization and a
    simple momentum update; deterministic given the inputs.

    Parameters
    ----------
    learning_rate:
        Gradient-descent step size.
    epochs:
        Number of full-batch iterations.
    l2:
        L2 regularization strength on the weights (not the bias).
    momentum:
        Classical momentum coefficient.
    """

    def __init__(
        self,
        learning_rate: float = 2.0,
        epochs: int = 600,
        l2: float = 3e-5,
        momentum: float = 0.9,
    ) -> None:
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.momentum = momentum
        self.classes_: list[str] | None = None
        self.weights_: np.ndarray | None = None
        self.bias_: np.ndarray | None = None

    def fit(self, features: sparse.csr_matrix, labels: Sequence[str]) -> "SoftmaxClassifier":
        """Train on sparse ``features`` with string ``labels``."""
        if features.shape[0] != len(labels):
            raise NLPError(
                f"feature rows ({features.shape[0]}) != labels ({len(labels)})"
            )
        if features.shape[0] == 0:
            raise NLPError("cannot fit on an empty training set")
        classes = sorted(set(labels))
        class_index = {c: i for i, c in enumerate(classes)}
        y = np.array([class_index[label] for label in labels], dtype=np.int64)
        n_samples, n_features = features.shape
        n_classes = len(classes)

        one_hot = np.zeros((n_samples, n_classes), dtype=np.float64)
        one_hot[np.arange(n_samples), y] = 1.0

        weights = np.zeros((n_features, n_classes), dtype=np.float64)
        bias = np.zeros(n_classes, dtype=np.float64)
        vel_w = np.zeros_like(weights)
        vel_b = np.zeros_like(bias)
        features_t = features.T.tocsr()

        for _ in range(self.epochs):
            logits = features @ weights + bias
            probs = _softmax(logits)
            error = (probs - one_hot) / n_samples
            grad_w = features_t @ error + self.l2 * weights
            grad_b = error.sum(axis=0)
            vel_w = self.momentum * vel_w - self.learning_rate * grad_w
            vel_b = self.momentum * vel_b - self.learning_rate * grad_b
            weights += vel_w
            bias += vel_b

        self.classes_ = classes
        self.weights_ = weights
        self.bias_ = bias
        return self

    def predict_proba(self, features: sparse.csr_matrix) -> np.ndarray:
        """Class probabilities, shape (n_samples, n_classes)."""
        if self.weights_ is None or self.bias_ is None or self.classes_ is None:
            raise NotFittedError("SoftmaxClassifier is not fitted")
        return _softmax(features @ self.weights_ + self.bias_)

    def score(self, columns: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Class probabilities of one sparse row given as (column ids,
        values) with ascending column ids, shape (n_classes,).

        Gathers the weight rows and accumulates them one column at a
        time in ascending column order — the order of SciPy's CSR
        matrix-times-dense product — so the result is bit-identical to
        :meth:`predict_proba` on the same row.
        """
        if self.weights_ is None or self.bias_ is None or self.classes_ is None:
            raise NotFittedError("SoftmaxClassifier is not fitted")
        if len(columns):
            weighted = self.weights_[columns] * values[:, None]
            logits = np.cumsum(weighted, axis=0)[-1] + self.bias_
        else:
            logits = np.zeros_like(self.bias_) + self.bias_
        return _softmax(logits[None, :])[0]

    def predict(self, features: sparse.csr_matrix) -> list[str]:
        """Most likely class per sample."""
        probs = self.predict_proba(features)
        assert self.classes_ is not None
        return [self.classes_[i] for i in probs.argmax(axis=1)]


@dataclass(frozen=True)
class IntentPrediction:
    """One classified utterance: the intent plus the model's confidence."""

    intent: str
    confidence: float

    def is_confident(self, threshold: float) -> bool:
        """True when the confidence meets ``threshold``."""
        return self.confidence >= threshold


@dataclass(frozen=True)
class UtteranceAnalysis:
    """One utterance analysed once for a whole turn.

    Holds the tokenized :class:`~repro.nlp.tokenizer.Utterance`, its
    TF-IDF row (ascending vocabulary column ids and values) and the
    class probabilities.  The turn's classification, its top-k
    candidates, entity recognition and the gibberish guard all read
    this object instead of re-tokenizing or re-scoring the text.
    """

    utterance: Utterance
    columns: np.ndarray
    values: np.ndarray
    probabilities: np.ndarray
    classes: Sequence[str]

    @property
    def prediction(self) -> IntentPrediction:
        """The most likely intent and its confidence."""
        best = int(self.probabilities.argmax())
        return IntentPrediction(self.classes[best], float(self.probabilities[best]))

    def top_k(self, k: int = 3) -> list[IntentPrediction]:
        """The ``k`` most likely intents, best first."""
        order = np.argsort(self.probabilities)[::-1][:k]
        return [
            IntentPrediction(self.classes[i], float(self.probabilities[i]))
            for i in order
        ]


class IntentClassifier:
    """End-to-end intent classifier: text in, (intent, confidence) out.

    This mirrors the Watson Assistant contract described in §7 of the
    paper: "Watson Assistant returns an intent detected corresponding to
    each user utterance with a confidence score."

    Parameters
    ----------
    vectorizer:
        Feature extractor; a default word+char TF-IDF vectorizer is used
        when omitted.
    model:
        The underlying classifier; defaults to :class:`SoftmaxClassifier`.
    """

    def __init__(
        self,
        vectorizer: TfidfVectorizer | None = None,
        model: SoftmaxClassifier | None = None,
    ) -> None:
        self.vectorizer = vectorizer or TfidfVectorizer()
        self.model = model or SoftmaxClassifier()
        self._fitted = False

    def fit(self, utterances: Sequence[str], intents: Sequence[str]) -> "IntentClassifier":
        """Train on parallel lists of example utterances and intent labels."""
        if len(utterances) != len(intents):
            raise NLPError("utterances and intents must have equal length")
        features = self.vectorizer.fit_transform(utterances)
        self.model.fit(features, intents)
        self._fitted = True
        return self

    @property
    def intents(self) -> list[str]:
        """The intent labels this classifier can produce."""
        if not self._fitted or self.model.classes_ is None:
            raise NotFittedError("IntentClassifier is not fitted")
        return list(self.model.classes_)

    def analyze(self, utterance: str | Utterance) -> UtteranceAnalysis:
        """Tokenize, featurize and score one utterance, each exactly once.

        This is the per-turn entry point; it builds no sparse matrix.
        """
        if not self._fitted:
            raise NotFittedError("IntentClassifier is not fitted")
        text = Utterance.parse(utterance)
        columns, values = self.vectorizer.featurize(text)
        probabilities = self.model.score(columns, values)
        assert self.model.classes_ is not None
        return UtteranceAnalysis(
            text, columns, values, probabilities, self.model.classes_
        )

    def classify(self, utterance: str) -> IntentPrediction:
        """Classify one utterance."""
        return self.analyze(utterance).prediction

    def classify_batch(self, utterances: Sequence[str]) -> list[IntentPrediction]:
        """Classify many utterances at once (single matrix multiply)."""
        if not self._fitted:
            raise NotFittedError("IntentClassifier is not fitted")
        features = self.vectorizer.transform(utterances)
        probs = self.model.predict_proba(features)
        assert self.model.classes_ is not None
        best = probs.argmax(axis=1)
        return [
            IntentPrediction(self.model.classes_[idx], float(probs[row, idx]))
            for row, idx in enumerate(best)
        ]

    def top_k(self, utterance: str, k: int = 3) -> list[IntentPrediction]:
        """The ``k`` most likely intents for ``utterance``, best first."""
        return self.analyze(utterance).top_k(k)
