"""Heavy-tailed loss and censoring models with inverse-transform sampling.

The simulation design draws losses from a Burr distribution (or plain
Pareto for complete-data checks) and censors them by an independent Frechet
variable; all three have closed-form quantile functions, so sampling is a
pure function of draws from a counter-based generator, which makes
parallel and serial runs bit-identical.  Every stream, censored or
complete, is read as raw 64-bit words, and :func:`_uniforms` alone turns
them into the doubles ``Generator.random`` would give.  A draw of exactly
0 counts as 2^-53, the smallest positive draw, so that every draw depends
only on its position in the stream.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonPositiveObservation
from .samples import (_BLOCK_ROWS, CensoredSample, SortedCensoredSample, _finite_positive,
                      _integer, _RunningTop, _unchecked, sort_with_concomitants)


def _as_prob(u, lo_open, name="u"):
    arr = np.asarray(u, dtype=float)
    if not np.all(((arr > 0.0) if lo_open else (arr >= 0.0)) & (arr < 1.0)):  # NaN fails both
        lo = "(0, 1)" if lo_open else "[0, 1)"
        raise DomainError(f"{name} must lie in {lo}")
    return arr


def _scalar_like(u, out):
    if np.ndim(u) == 0:
        return float(out)
    return out


def _positive(value, name):
    """Refuse a model parameter that is not positive and finite."""
    if not (value > 0 and np.isfinite(value)):
        raise DomainError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class Burr:
    """Burr distribution with F(x) = 1 - (1 + x^(1/eta))^(-eta/gamma1).

    Regularly varying with tail index ``gamma1``; ``eta`` controls the
    second-order behavior of the tail.
    """

    gamma1: float
    eta: float

    def __post_init__(self):
        _positive(self.gamma1, "gamma1")
        _positive(self.eta, "eta")

    def cdf(self, x):
        arr = np.maximum(np.asarray(x, dtype=float), 0.0)
        out = 1.0 - (1.0 + arr ** (1.0 / self.eta)) ** (-self.eta / self.gamma1)
        return _scalar_like(x, out)

    def quantile(self, u):
        arr = _as_prob(u, lo_open=False)
        out = ((1.0 - arr) ** (-self.gamma1 / self.eta) - 1.0) ** self.eta
        return _scalar_like(u, out)


@dataclass(frozen=True)
class Pareto:
    """Pareto distribution with F(x) = 1 - x^(-1/gamma1) for x >= 1.

    An exact power tail: the second-order bias function vanishes
    identically, which makes it the reference model for normality checks.
    """

    gamma1: float

    def __post_init__(self):
        _positive(self.gamma1, "gamma1")

    def cdf(self, x):
        arr = np.maximum(np.asarray(x, dtype=float), 1.0)
        out = 1.0 - arr ** (-1.0 / self.gamma1)
        return _scalar_like(x, out)

    def quantile(self, u):
        arr = _as_prob(u, lo_open=False)
        out = (1.0 - arr) ** (-self.gamma1)
        return _scalar_like(u, out)


@dataclass(frozen=True)
class Frechet:
    """Frechet distribution with G(x) = exp(-x^(-1/gamma2)) for x > 0."""

    gamma2: float

    def __post_init__(self):
        _positive(self.gamma2, "gamma2")

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.zeros(arr.shape)
        positive = arr > 0
        out[positive] = np.exp(-arr[positive] ** (-1.0 / self.gamma2))
        return _scalar_like(x, out)

    def quantile(self, u):
        arr = _as_prob(u, lo_open=True)
        out = (-np.log(arr)) ** (-self.gamma2)
        return _scalar_like(u, out)


def gamma2_from_p(gamma1, p):
    """Censoring tail index giving upper uncensored proportion p.

    Solves p = gamma2 / (gamma1 + gamma2); p = 1 has no finite solution
    (complete data is modeled by censor=None instead).
    """
    _positive(gamma1, "gamma1")
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie strictly between 0 and 1, got {p}")
    return p * gamma1 / (1.0 - p)


@dataclass(frozen=True)
class ModelSpec:
    """A loss model optionally right-censored by an independent Frechet.

    ``censor=None`` means complete data (every indicator is 1).
    """

    loss: Burr | Pareto
    censor: Frechet | None = None

    @property
    def gamma1(self):
        return self.loss.gamma1

    @property
    def p(self):
        """Limiting proportion gamma2 / (gamma1 + gamma2) of uncensored top
        observations under independent Pareto-type censoring."""
        if self.censor is None:
            return 1.0
        return self.censor.gamma2 / (self.loss.gamma1 + self.censor.gamma2)


@dataclass(frozen=True)
class RngStream:
    """One substream of a counter-based random generator.

    Distinct ``stream_index`` values under the same ``master_seed`` yield
    statistically independent streams, and a given pair always reproduces
    the same draws, regardless of what other streams are consumed.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for field in ("master_seed", "stream_index"):
            value = _integer(getattr(self, field), field, DomainError)
            if not 0 <= value < 2**64:
                raise DomainError(f"{field} must be an unsigned 64-bit integer")
            object.__setattr__(self, field, value)

    def generator(self):
        """A fresh numpy Generator positioned at the start of the stream."""
        key = (self.stream_index << 64) | self.master_seed
        return np.random.Generator(np.random.Philox(key=key))

    def _words(self, start, size):
        """The raw 64-bit words at positions [start, start + size) of the
        stream, those ``generator().bit_generator`` gives after ``start``
        words, read from this thread's kept Philox (:class:`_KeptPhilox`).

        The Philox is re-keyed first: counter ``start // 4`` (a counter
        step makes four words), key [master_seed, stream_index] and an empty
        buffer, and then the ``start % 4`` words before ``start`` are read
        and dropped.  So no state is carried from one call to the next, and
        the words do not depend on what was read before, in this thread, in
        another or in the process this one was forked from.
        """
        kept = _KEPT
        kept.counter[0] = start // 4
        kept.key[:] = self.master_seed, self.stream_index
        kept.bits.state = kept.state
        if start % 4:
            kept.bits.random_raw(start % 4)
        return kept.bits.random_raw(size)


class _KeptPhilox(threading.local):
    """A Philox for each thread, made on the thread's first use so that two
    threads never share one, and the state dict that re-keys it.  The
    dict's buffer is empty (``buffer_pos`` 4, ``has_uint32`` 0,
    ``uinteger`` 0) and stays so; :meth:`RngStream._words` sets its
    ``counter`` and ``key`` arrays."""

    def __init__(self):
        self.bits = np.random.Philox(0)
        self.state = self.bits.state
        self.counter, self.key = self.state["state"]["counter"], self.state["state"]["key"]


_KEPT = _KeptPhilox()


_ZERO_DRAW = 2.0**-53  # what a draw of exactly 0 counts as: the smallest positive draw


def sample_censored(spec, n, rng):
    """Draw a censored sample of size n from a model specification.

    Losses and censoring values are drawn independently through their
    quantile transforms; each observation is the minimum of the two with an
    indicator telling whether the loss itself was observed.  The loss
    draws are the raw words at positions [0, n) of the stream and the
    censoring draws those at positions [n, 2n), each made a uniform by
    :func:`_uniforms`, which counts a draw of exactly 0 as 2^-53, so each
    row is a deterministic function of the words at its own two positions.
    """
    if _integer(n, "sample size", DomainError) < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    return _transformed_top(spec, n, None, rng)


def _top_sample(spec, n, m, rng):
    """``sort_with_concomitants(top_order_statistics(sample_censored(spec,
    n, rng), m))``, bit for bit, drawn without holding the n rows.

    The raw words come in blocks (:func:`_word_blocks`), so a call takes
    O(m + block) memory and time still grows with n.  With complete data
    only the words above a cut are kept, and only the top m + 1 of them
    become uniforms and go through the quantile (:func:`_complete_top`);
    censored blocks are transformed whole and merged into a running top
    (:func:`_transformed_top`).  Both make uniforms of the words with
    :func:`_uniforms`, as ``sample_censored`` does, and both hand back the
    top already sorted, so the engine sorts nothing.
    """
    if spec.censor is None:
        return _complete_top(spec, n, m, rng)
    return _transformed_top(spec, n, m, rng)


def _word_blocks(rng, n, censored):
    """The raw 64-bit words of a sample of size n, as (loss, censor) pairs
    of blocks of at most ``_BLOCK_ROWS``; censor is None for complete data.

    The loss words are positions [0, n) of the stream and the censor words
    positions [n, 2n).  One block reads both runs in one call.  Every block
    is read by ``rng._words`` at its own position, which re-keys this
    thread's kept Philox first, so iterations alive at once, in one thread
    or in several, each get their own stream's words.
    """
    if n <= _BLOCK_ROWS:
        words = rng._words(0, 2 * n if censored else n)
        yield words[:n], words[n:] if censored else None
        return
    for start in range(0, n, _BLOCK_ROWS):
        size = min(_BLOCK_ROWS, n - start)
        yield rng._words(start, size), rng._words(n + start, size) if censored else None


def _uniforms(words):
    """The uniforms ``Generator.random`` makes of raw Philox ``words``, the
    word shifted right by 11 times 2^-53, with a 0 counted as
    ``_ZERO_DRAW`` so that each lies in (0, 1), inside the domain of every
    quantile.  Every draw is a multiple of 2^-53, so only a 0 is raised."""
    u = (words >> 11) * 2.0**-53
    return np.maximum(u, _ZERO_DRAW, out=u)


def _transformed_top(spec, n, m, rng):
    """The top m rows by the quantile of every draw, merged block by block
    and sorted by :func:`~censtail.samples.sort_with_concomitants`; with m
    None every row, in the order drawn.

    Every block is checked as :class:`~censtail.samples.CensoredSample`
    checks the whole sample, before any of its rows is dropped.
    """
    kept = _RunningTop(m)
    for loss_words, censor_words in _word_blocks(rng, n, spec.censor is not None):
        x = spec.loss.quantile(_uniforms(loss_words))
        if censor_words is None:
            z, delta = x, np.ones(x.size, dtype=np.int8)
        else:
            c = spec.censor.quantile(_uniforms(censor_words))
            z, delta = np.minimum(x, c), (x <= c).astype(np.int8)
        if not _finite_positive(z):
            raise NonPositiveObservation("all observations must be finite and strictly positive")
        kept.add(z, delta)
    sample = _unchecked(CensoredSample, *kept.rows())
    return sample if m is None else sort_with_concomitants(sample)


def _cut_word(m, n):
    """The smallest raw word whose uniform is at least ``cut`` =
    1 - 8(m + 1)/n, the pre-filter of :func:`_complete_top`.

    It is ceil(cut * 2^53) shifted left by 11: 0 when cut <= 0, so that
    every word passes, and 2^64, which no word reaches, when cut rounds to
    1.0 (n > 2^57 (m + 1)).  A Python int, so it neither wraps nor
    overflows.
    """
    cut = 1.0 - 8.0 * (m + 1) / n
    return math.ceil(max(cut, 0.0) * 2.0**53) << 11


def _complete_top(spec, n, m, rng):
    """The top m rows of complete data, sorted, found among the raw words
    before the quantile is taken.

    The quantile is increasing, so the rows it ranks highest come from the
    highest words.  Each block keeps only the words at or above the cut
    word (:func:`_cut_word`), above which about 8(m + 1) of the n lie, and
    notes its smallest word.  Only the words kept are sorted, and only the
    top m + 1 of them (all n when n <= m) become uniforms and go through
    the quantile, in one call with the smallest word.  Every block is
    transformed instead (:func:`_transformed_top`) when fewer than m + 1
    words pass the cut, and when a guard fails: the (m + 1)-th largest
    uniform must map strictly below every row of the top m, which a tie
    or rounding could break, and the smallest uniform of all must map to a
    finite positive value, as then every dropped one does.
    """
    cut = _cut_word(m, n)
    if cut >> 64:  # no word passes
        return _transformed_top(spec, n, m, rng)
    cut, passed, low = np.uint64(cut), [], []
    for words, _ in _word_blocks(rng, n, False):
        low.append(words.min())
        passed.append(words[words >= cut])
    words = np.concatenate(passed)
    if words.size < min(m + 1, n):
        return _transformed_top(spec, n, m, rng)
    words.sort()
    # the smallest word, then the top m + 1 words (all n when n <= m), ascending
    x = spec.loss.quantile(_uniforms(np.append(min(low), words[-m - 1:])))
    z = np.sort(x[-min(m, n):])  # rounding may leave neighbouring quantiles out of order
    if _finite_positive(x) and (n <= m or x[-m - 1] < z[0]):
        return _unchecked(SortedCensoredSample, z, np.ones(z.size, dtype=np.int8))
    return _transformed_top(spec, n, m, rng)
