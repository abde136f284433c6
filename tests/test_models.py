import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censtail import (
    Burr,
    Frechet,
    ModelSpec,
    Pareto,
    RngStream,
    gamma2_from_p,
    hill,
    p_hat,
    sample_censored,
    sort_with_concomitants,
    top_order_statistics,
)
from censtail import models
from censtail.errors import DomainError, NonPositiveObservation
from censtail.models import _top_sample
from reference_impl import whole_sample


class TestBurr:
    def test_quantile_at_zero(self):
        assert Burr(0.4, 0.25).quantile(0.0) == 0.0

    def test_median_matches_cdf_round_trip(self):
        x = Burr(0.4, 0.25).quantile(0.5)
        assert x == pytest.approx((2**1.6 - 1) ** 0.25, abs=1e-12)
        assert Burr(0.4, 0.25).cdf(x) == pytest.approx(0.5, abs=1e-12)

    def test_round_trip_on_grid(self):
        grid = np.linspace(0.0, 0.999, 200)
        for gamma1, eta in ((0.4, 0.25), (0.6, 0.25), (1.5, 2.0)):
            model = Burr(gamma1, eta)
            assert np.allclose(model.cdf(model.quantile(grid)), grid, atol=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            Burr(0.0, 0.25)
        with pytest.raises(DomainError):
            Burr(0.4, -1.0)
        with pytest.raises(DomainError):
            Burr(0.4, 0.25).quantile(1.0)
        with pytest.raises(DomainError):
            Burr(0.4, 0.25).quantile(-0.1)


class TestFrechet:
    def test_unit_quantile_at_exp_minus_one(self):
        assert Frechet(0.6).quantile(math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_median(self):
        assert Frechet(0.6).quantile(0.5) == pytest.approx(
            math.log(2) ** -0.6, abs=1e-12
        )

    def test_round_trip_on_grid(self):
        grid = np.linspace(1e-6, 1 - 1e-6, 200)
        for gamma2 in (0.6, 3.6, 1.0):
            model = Frechet(gamma2)
            assert np.allclose(model.cdf(model.quantile(grid)), grid, atol=1e-12)

    def test_monotone_to_zero(self):
        us = np.array([1e-12, 1e-8, 1e-4, 1e-2])
        xs = Frechet(0.6).quantile(us)
        assert np.all(np.diff(xs) > 0)
        assert xs[0] > 0.0
        with pytest.raises(DomainError):
            Frechet(0.6).quantile(0.0)


class TestPareto:
    def test_round_trip(self):
        grid = np.linspace(0.0, 0.999, 100)
        model = Pareto(1.0)
        assert np.allclose(model.cdf(model.quantile(grid)), grid, atol=1e-12)

    def test_support_starts_at_one(self):
        assert Pareto(2.0).quantile(0.0) == 1.0


_TINY, _BELOW_ONE = 2.0**-1074, 1.0 - 2.0**-53


@pytest.mark.parametrize("u, closed_ok, open_ok", [
    (0.0, True, False), (-0.0, True, False), (1.0, False, False),
    (_BELOW_ONE, True, True), (_TINY, True, True),
    (math.nan, False, False), (math.inf, False, False), (-math.inf, False, False),
    ([], True, True), ([0.5, math.nan], False, False), ([0.5, 1.0], False, False),
    ([0.2, -0.1], False, False), ([0.0, 0.5], True, False), ([_TINY, 0.5], True, True),
    ([-0.0, 0.1], True, False), ([math.inf, 0.1], False, False),
])
def test_quantile_domain(u, closed_ok, open_ok):
    # Burr and Pareto take u in [0, 1), Frechet u in (0, 1); NaN and +-inf in neither
    for model, ok, interval in ((Burr(0.4, 0.25), closed_ok, "[0, 1)"),
                                (Pareto(1.0), closed_ok, "[0, 1)"),
                                (Frechet(0.6), open_ok, "(0, 1)")):
        if ok:
            got = np.asarray(model.quantile(u))
            assert got.shape == np.shape(u) and np.all(np.isfinite(got))
        else:
            with pytest.raises(DomainError, match=re.escape(f"u must lie in {interval}")):
                model.quantile(u)


class TestGamma2FromP:
    def test_arithmetic(self):
        assert gamma2_from_p(0.4, 0.6) == pytest.approx(0.6, abs=1e-15)
        assert gamma2_from_p(0.4, 0.9) == pytest.approx(3.6, abs=1e-12)

    def test_symmetric_point(self):
        assert gamma2_from_p(0.7, 0.5) == pytest.approx(0.7, abs=1e-15)

    def test_round_trip(self):
        for gamma1 in (0.4, 0.6, 2.0):
            for p in (0.55, 0.6, 0.75, 0.9, 0.99):
                gamma2 = gamma2_from_p(gamma1, p)
                model = ModelSpec(loss=Pareto(gamma1), censor=Frechet(gamma2))
                assert model.p == pytest.approx(p, abs=1e-12)

    def test_rejects_degenerate_p(self):
        with pytest.raises(DomainError):
            gamma2_from_p(0.4, 1.0)
        with pytest.raises(DomainError):
            gamma2_from_p(0.4, 0.0)


class TestRngStream:
    def test_same_stream_is_identical(self):
        a = RngStream(42, 3).generator().random(16)
        b = RngStream(42, 3).generator().random(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 3).generator().random(16)
        b = RngStream(42, 4).generator().random(16)
        c = RngStream(43, 3).generator().random(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        with pytest.raises(DomainError):
            RngStream(-1, 0)
        with pytest.raises(DomainError):
            RngStream(0, -2)

    # a float seed drew the stream of its integer part, and True ran as 1
    @pytest.mark.parametrize("seed, index", [(1.5, 2), (True, True), (1, 2.0), ("1", 2)],
                             ids=["float-seed", "bool-both", "float-index", "str-seed"])
    def test_rejects_non_integers(self, seed, index):
        with pytest.raises(DomainError, match="must be an integer"):
            RngStream(seed, index)

    def test_numpy_integers_are_stored_as_int(self):
        stream = RngStream(np.uint64(42), np.int64(3))
        assert type(stream.master_seed) is int and type(stream.stream_index) is int
        assert np.array_equal(stream.generator().random(4), RngStream(42, 3).generator().random(4))

    def test_philox_random_is_the_raw_word_shifted(self):
        """Every stream is read as raw words (models._uniforms): a numpy
        release that changed how Generator.random makes a double of a Philox
        word would fail here instead of moving the sampler's draws."""
        key = (3 << 64) | 42
        gen = np.random.Generator(np.random.Philox(key=key))
        raw = np.random.Philox(key=key)
        for size in (3, 20_001, 5):
            got, words = gen.random(size), raw.random_raw(size)
            assert got.tobytes() == ((words >> 11) * 2.0**-53).tobytes(), size
            assert got.tobytes() == models._uniforms(words).tobytes(), size


class TestSampleCensored:
    def test_complete_data_all_uncensored(self):
        spec = ModelSpec(loss=Burr(0.4, 0.25), censor=None)
        sample = sample_censored(spec, 50, RngStream(7, 1))
        assert np.all(sample.delta == 1)
        assert np.all(sample.z > 0)

    def test_deterministic_for_fixed_stream(self):
        spec = ModelSpec(loss=Burr(0.4, 0.25), censor=Frechet(3.6))
        a = sample_censored(spec, 100, RngStream(7, 2))
        b = sample_censored(spec, 100, RngStream(7, 2))
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.delta, b.delta)

    def test_streams_do_not_interfere(self):
        spec = ModelSpec(loss=Burr(0.4, 0.25), censor=Frechet(3.6))
        alone = sample_censored(spec, 10, RngStream(7, 5))
        sample_censored(spec, 1000, RngStream(7, 4))
        after = sample_censored(spec, 10, RngStream(7, 5))
        assert np.array_equal(alone.z, after.z)

    def test_rejects_empty(self):
        spec = ModelSpec(loss=Pareto(1.0))
        with pytest.raises(DomainError):
            sample_censored(spec, 0, RngStream(1, 1))

    # each was a bare TypeError from numpy or from the comparison with 1
    @pytest.mark.parametrize("n", [10.5, True, "5"], ids=["float", "bool", "str"])
    def test_rejects_non_integer_size(self, n):
        spec = ModelSpec(loss=Burr(0.4, 0.25), censor=Frechet(3.6))
        with pytest.raises(DomainError, match="sample size must be an integer"):
            sample_censored(spec, n, RngStream(1, 1))

    def test_top_censoring_rate_near_limit(self):
        # censored fraction among the top order statistics approaches 1 - p
        gamma1, p = 0.4, 0.9
        spec = ModelSpec(loss=Burr(gamma1, 0.25),
                         censor=Frechet(gamma2_from_p(gamma1, p)))
        n = 100_000
        k = int(n**0.7)
        sample = sort_with_concomitants(sample_censored(spec, n, RngStream(11, 1)))
        assert p_hat(sample, k) == pytest.approx(p, abs=0.03)

    def test_hill_recovers_burr_tail_index(self):
        # complete Burr samples: median Hill estimate within 0.05 of gamma1
        gamma1 = 0.4
        spec = ModelSpec(loss=Burr(gamma1, 0.25))
        n = 10_000
        k = int(n**0.55)
        estimates = []
        for seed in range(100):
            sample = sort_with_concomitants(sample_censored(spec, n, RngStream(1, seed)))
            estimates.append(hill(sample, k))
        assert abs(np.median(estimates) - gamma1) < 0.05

    def test_model_spec_p(self):
        spec = ModelSpec(loss=Burr(0.4, 0.25), censor=Frechet(3.6))
        assert spec.p == pytest.approx(0.9, abs=1e-12)
        assert ModelSpec(loss=Pareto(1.0)).p == 1.0

    def test_sample_feeds_estimators(self):
        spec = ModelSpec(loss=Burr(0.4, 0.25), censor=Frechet(3.6))
        sample = sort_with_concomitants(sample_censored(spec, 500, RngStream(3, 1)))
        value = hill(sample, 50)
        assert np.isfinite(value) and value > 0


# models for the block sampler: censored and complete, and two whose values
# tie (gamma 1e-15 leaves few distinct values), so that tie blocks straddle
# the cuts and the complete-data guard fails
TOP_MODELS = [
    ModelSpec(loss=Burr(0.4, 0.25), censor=Frechet(3.6)),
    ModelSpec(loss=Burr(0.4, 0.25), censor=Frechet(0.6)),
    ModelSpec(loss=Pareto(1e-15), censor=Frechet(1e-15)),
    ModelSpec(loss=Pareto(1.0)),
    ModelSpec(loss=Pareto(0.05)),
    ModelSpec(loss=Burr(1.5, 2.0)),
    ModelSpec(loss=Pareto(1e-15)),
]


def sorted_top(sample, m):
    return sort_with_concomitants(top_order_statistics(sample, m))


def whole_top(spec, n, m, rng):
    return sorted_top(whole_sample(spec, n, rng), m)


def assert_same_rows(got, want):
    assert type(got) is type(want)
    assert got.z.tobytes() == want.z.tobytes()
    assert got.delta.tobytes() == want.delta.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TOP_MODELS), st.integers(1, 21), st.integers(1, 21),
       st.integers(0, 2**64 - 1), st.integers(1, 50))
def test_top_sample_is_the_top_of_the_whole_sample(spec, n, m, seed, index):
    """Drawn in blocks of 7, so up to three blocks merge, the sample is the
    whole sample and the top is its sorted top, for m = n as well."""
    m = min(m, n)
    rng = RngStream(seed, index)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_BLOCK_ROWS", 7)
        sample = sample_censored(spec, n, rng)
        got, got_all = _top_sample(spec, n, m, rng), _top_sample(spec, n, n, rng)
    assert_same_rows(sample, whole_sample(spec, n, rng))
    assert_same_rows(got, whole_top(spec, n, m, rng))
    assert_same_rows(got_all, whole_top(spec, n, n, rng))


class _Stream:
    """An RngStream stand-in whose generators draw ``values`` in order,
    rounded to multiples of 2^-53 as every ``Generator.random`` draw is."""

    def __init__(self, values):
        self.words = np.round(np.asarray(values) * 2.0**53).astype(np.uint64) << 11

    def generator(self):
        return _Generator(self.words)

    def _words(self, start, size):  # the sampler's seam, RngStream._words
        return self.generator().bit_generator.random_raw(start + size)[start:]


class _WordStream(_Stream):
    """A ``_Stream`` of the raw ``words`` given, the 11 low bits that the
    uniforms drop included."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)


class _Generator:
    """Serves the words as Philox does: ``random_raw`` gives the words,
    ``random`` (word >> 11) * 2^-53."""

    def __init__(self, words):
        self.words = words
        self.position, self.bit_generator = 0, self

    def random_raw(self, size):
        start, self.position = self.position, self.position + size
        return self.words[start:self.position].copy()

    def random(self, size):
        return (self.random_raw(size) >> 11) * 2.0**-53


class _RawStream(_Stream):
    """A ``_Stream`` whose generators serve only raw words."""

    def generator(self):
        return _RawGenerator(self.words)


class _RawGenerator(_Generator):
    def random(self, size):
        raise AssertionError("the sampler called Generator.random")


class TestTopSample:
    @pytest.mark.parametrize("spec", TOP_MODELS[::3], ids=["censored", "complete", "ties"])
    @pytest.mark.parametrize("n", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 << 16])
    def test_full_blocks(self, spec, n):
        for m in (1, 101):
            assert_same_rows(_top_sample(spec, n, m, RngStream(5, 2)),
                             whole_top(spec, n, m, RngStream(5, 2)))

    @pytest.mark.parametrize("zeros", [(0,), (3, 4), (13, 20), (21,), (30, 41), (5, 25)],
                             ids=["loss-first", "loss-pair", "loss-blocks", "censor-first",
                                  "censor-blocks", "both"])
    @pytest.mark.parametrize("spec", TOP_MODELS[::3], ids=["censored", "complete", "ties"])
    def test_zero_uniforms_are_redrawn_as_sample_censored_does(self, monkeypatch, spec,
                                                              zeros):
        """A draw of 0 is not drawn again: it gives the row of a draw of
        2^-53, in ``sample_censored`` and ``_top_sample`` alike."""
        # n = 21 in blocks of 7: positions 0-20 are the losses, 21-41 the censors
        monkeypatch.setattr(models, "_BLOCK_ROWS", 7)
        values = RngStream(8, 1).generator().random(60)
        smallest = values.copy()
        values[list(zeros)], smallest[list(zeros)] = 0.0, 2.0**-53
        want = whole_sample(spec, 21, _Stream(smallest))
        assert_same_rows(sample_censored(spec, 21, _Stream(values)), want)
        for m in (1, 4, 21):
            assert_same_rows(_top_sample(spec, 21, m, _Stream(values)), sorted_top(want, m))

    @pytest.mark.parametrize("n", [5, 21])
    @pytest.mark.parametrize("spec", TOP_MODELS[::3], ids=["censored", "complete", "ties"])
    def test_every_stream_is_read_as_raw_words(self, monkeypatch, spec, n):
        """Neither sampler calls ``Generator.random``: the loss and censor
        runs, in one block (n = 5) or several (n = 21), are raw words made
        uniforms by ``_uniforms`` alone."""
        monkeypatch.setattr(models, "_BLOCK_ROWS", 7)
        values = RngStream(6, 1).generator().random(2 * n)
        want = whole_sample(spec, n, _Stream(values))
        assert_same_rows(sample_censored(spec, n, _RawStream(values)), want)
        for m in (1, 4, n):
            assert_same_rows(_top_sample(spec, n, m, _RawStream(values)), sorted_top(want, m))

    def test_uniforms_count_a_zero_draw_as_the_smallest_draw(self):
        words = np.array([0, 2047, 2048, 4096], dtype=np.uint64)
        want = [2.0**-53, 2.0**-53, 2.0**-53, 2.0**-52]
        assert models._uniforms(words).tolist() == want

    def test_a_failing_guard_transforms_every_block(self, monkeypatch):
        # gamma 3e-16 maps neighbouring uniforms to one value: the top m + 1
        # uniforms do not decide the top m values
        transformed = []
        whole = models._transformed_top

        def recording(*args):
            transformed.append(args)
            return whole(*args)

        monkeypatch.setattr(models, "_transformed_top", recording)
        monkeypatch.setattr(models, "_BLOCK_ROWS", 7)
        spec = ModelSpec(loss=Pareto(3e-16))
        for seed in range(1, 6):
            assert_same_rows(_top_sample(spec, 20, 10, RngStream(seed, 1)),
                             whole_top(spec, 20, 10, RngStream(seed, 1)))
        assert len(transformed) == 5
        transformed.clear()
        _top_sample(ModelSpec(loss=Pareto(1.0)), 20, 3, RngStream(1, 1))
        assert transformed == []

    def test_a_top_below_the_cut_transforms_every_block(self, monkeypatch):
        # n = 1000, m = 10: the cut keeps uniforms above 0.912, here only five
        transformed = []
        whole = models._transformed_top
        monkeypatch.setattr(models, "_transformed_top",
                            lambda *args: transformed.append(args) or whole(*args))
        values = RngStream(4, 1).generator().random(1000) * 0.9
        values[[3, 200, 201, 650, 999]] = [0.95, 0.99, 0.93, 0.97, 0.96]
        spec = ModelSpec(loss=Pareto(1.0))
        assert_same_rows(_top_sample(spec, 1000, 10, _Stream(values)),
                         whole_top(spec, 1000, 10, _Stream(values)))
        assert len(transformed) == 1

    @pytest.mark.parametrize("m, n", [(1, 1000), (10, 1000), (53, 20_000), (100, 10**7),
                                      (1, 2**40), (1, 17), (10, 100), (5, 7), (1, 16)])
    def test_the_cut_word_is_the_first_word_of_a_uniform_at_the_cut(self, m, n):
        cut = 1.0 - 8.0 * (m + 1) / n
        word = models._cut_word(m, n)
        if cut <= 0:
            assert word == 0
        else:
            assert word % 2048 == 0 and 0 < word < 2**64
            at, below = models._uniforms(np.array([word, word - 1], dtype=np.uint64))
            assert at >= cut > below

    def test_a_cut_that_rounds_to_one_passes_no_word(self, monkeypatch):
        # n = 2^62, m = 1: 1 - 16 / 2^62 rounds to 1.0, and ceil(2^53) << 11 is 2^64
        assert 1.0 - 8.0 * 2 / 2**62 == 1.0
        assert models._cut_word(1, 2**62) == 2**64
        transformed = []
        monkeypatch.setattr(models, "_transformed_top",
                            lambda *args: transformed.append(args) or "transformed")
        monkeypatch.setattr(models, "_word_blocks", lambda *args: pytest.fail("drawn"))
        spec = ModelSpec(loss=Pareto(1.0))
        assert models._complete_top(spec, 2**62, 1, RngStream(1, 1)) == "transformed"
        assert transformed == [(spec, 2**62, 1, RngStream(1, 1))]

    @pytest.mark.parametrize("block", [7, 1 << 16])
    def test_underflow_below_the_top_still_fails(self, monkeypatch, block):
        # Burr(0.1, 100) underflows to 0 for all but the highest uniforms
        monkeypatch.setattr(models, "_BLOCK_ROWS", block)
        spec = ModelSpec(loss=Burr(0.1, 100.0))
        rng = RngStream(1, 1)
        u = np.sort(rng.generator().random(1000))
        assert spec.loss.quantile(u[0]) == 0 and (spec.loss.quantile(u[-10:]) > 0).all()
        with pytest.raises(NonPositiveObservation):
            sample_censored(spec, 1000, rng)
        with pytest.raises(NonPositiveObservation):
            _top_sample(spec, 1000, 10, rng)
        # a censor value that underflows fails too: here row 0's, in the first
        # censor block
        spec = ModelSpec(loss=Burr(0.4, 0.25), censor=Frechet(1000.0))
        values = RngStream(3, 1).generator().random(42)
        values[21:] = 0.5 + values[21:] / 2  # censor values 10^159 or more: z = x
        values[21] = 0.01  # censors row 0 at 0
        with np.errstate(over="ignore"):
            with pytest.raises(NonPositiveObservation):
                sample_censored(spec, 21, _Stream(values))
            with pytest.raises(NonPositiveObservation):
                _top_sample(spec, 21, 5, _Stream(values))


def _word(u, low=0):
    """The raw word of the draw nearest u, with ``low`` in the 11 low bits
    that its uniform drops."""
    return (round(u * 2**53) << 11) | low


class TestSortedTop:
    """Complete-data tops picked from the raw words at and above the cut,
    against the sorted top of the whole sample, counting the replications
    that transform every block instead."""

    M, N = 10, 1000  # the cut word is that of the uniform 1 - 88/1000 = 0.912

    def top(self, monkeypatch, words, block):
        transformed = []
        whole = models._transformed_top
        monkeypatch.setattr(models, "_transformed_top",
                            lambda *args: transformed.append(args) or whole(*args))
        monkeypatch.setattr(models, "_BLOCK_ROWS", block)
        spec, n = ModelSpec(loss=Pareto(1.0)), len(words)
        got = _top_sample(spec, n, self.M, _WordStream(words))
        assert_same_rows(got, whole_top(spec, n, self.M, _WordStream(words)))
        return got, len(transformed)

    @pytest.mark.parametrize("block", [64, 1 << 16], ids=["blocks", "one-block"])
    @pytest.mark.parametrize("tail, size, fallbacks", [
        ([(0.93, 0), (0.93, 0)], 11, 1),
        ([(0.93, 0), (0.93, 5)], 11, 1),
        ([(0.93, 0), (0.92, 0), (0.92, 0)], 10, 0),
        ([(0.93, 0), (0.92, 5), (0.92, 0)], 10, 0),
    ], ids=["tie-at-the-cut", "tied-uniforms-at-the-cut", "tie-below", "tied-uniforms-below"])
    def test_ties_around_the_m_th_uniform(self, monkeypatch, block, tail, size, fallbacks):
        """The top m - 1 uniforms are distinct, then come ``tail``'s (uniform,
        low bits) pairs, all spread over the stream (so over several blocks
        of 64).  A tie of the m-th and (m + 1)-th uniforms, by equal words or
        by words that differ only in their low bits, takes the tie block
        along and transforms every block; a tie of the (m + 1)-th and
        (m + 2)-th decides nothing and keeps the raw-word path."""
        words = RngStream(9, 1).generator().bit_generator.random_raw(self.N) >> 1
        top = [_word(0.99 - 0.005 * i) for i in range(self.M - 1)]
        top += [_word(u, low) for u, low in tail]
        words[np.linspace(0, self.N - 1, len(top)).astype(int)] = top
        got, count = self.top(monkeypatch, words, block)
        assert (got.z.size, count) == (size, fallbacks)

    @pytest.mark.parametrize("n", [8, 10, 11, 50, 88])
    def test_a_cut_word_of_zero_passes_every_word(self, monkeypatch, n):
        """With n <= 8(m + 1) every word passes; with n <= m the top is the
        whole sample, its zero word counted as 2^-53."""
        assert models._cut_word(self.M, n) == 0
        words = RngStream(9, 2).generator().bit_generator.random_raw(n)
        words[[0, n - 1]] = [0, 1 << 63]
        got, count = self.top(monkeypatch, words, 7)
        assert (got.z.size, count) == (min(n, self.M), 0)


def _philox_words(rng, count):
    """The first ``count`` words of a fresh ``Philox(key=...)`` on the stream."""
    return np.random.Philox(key=(rng.stream_index << 64) | rng.master_seed).random_raw(count)


def _read(blocks):
    """The loss and the censor words of ``_word_blocks`` pairs, each run
    joined (censor None for complete data)."""
    loss, censor = zip(*blocks)
    return np.concatenate(loss), None if censor[0] is None else np.concatenate(censor)


def _assert_stream_words(rng, n, censored, got):
    want = _philox_words(rng, 2 * n)
    loss, censor = got
    assert loss.tobytes() == want[:n].tobytes()
    if censored:
        assert censor.tobytes() == want[n:].tobytes()
    else:
        assert censor is None


EDGE_KEYS = [0, 1, 2**64 - 1]


class TestKeptPhilox:
    """The sampler reads every block from a Philox kept for each thread and
    re-keyed first (``RngStream._words``): its words are a fresh
    ``Philox(key=...)``'s, whatever was read before, in whichever thread."""

    @pytest.mark.parametrize("index", EDGE_KEYS)
    @pytest.mark.parametrize("seed", EDGE_KEYS)
    def test_edge_keys_give_the_words_of_a_fresh_philox(self, monkeypatch, seed, index):
        monkeypatch.setattr(models, "_BLOCK_ROWS", 7)
        rng = RngStream(seed, index)
        want = _philox_words(rng, 40)
        for start in range(10):  # every counter step and place in a step
            assert rng._words(start, 30 - start).tobytes() == want[start:30].tobytes()
        for n, censored in ((5, False), (5, True), (23, False), (23, True)):
            _assert_stream_words(rng, n, censored, _read(models._word_blocks(rng, n, censored)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(1, 40),
           st.booleans())
    def test_random_keys_give_the_words_of_a_fresh_philox(self, seed, index, n, censored):
        rng = RngStream(seed, index)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "_BLOCK_ROWS", 7)
            _assert_stream_words(rng, n, censored, _read(models._word_blocks(rng, n, censored)))

    @pytest.mark.parametrize("block", [7, 1 << 16])
    def test_iterations_alive_at_once_in_one_thread_get_their_own_words(self, monkeypatch,
                                                                        block):
        """Censored n > _BLOCK_ROWS with n % 4 = 3: the loss and censor
        runs of three streams read block by block, in turn."""
        monkeypatch.setattr(models, "_BLOCK_ROWS", block)
        n = 3 * block + 3 if block < 100 else block + 3
        streams = [RngStream(5, 1), RngStream(5, 2), RngStream(2**64 - 1, 1)]
        got = [[] for _ in streams]
        for pairs in zip(*(models._word_blocks(rng, n, True) for rng in streams)):
            for rows, pair in zip(got, pairs):
                rows.append(pair)
        assert len(got[0]) == -(-n // block)
        for rng, rows in zip(streams, got):
            _assert_stream_words(rng, n, True, _read(rows))

    def test_threads_sampling_at_once_get_their_own_streams(self, monkeypatch):
        """Four threads, each drawing its own stream's top in blocks of 64
        again and again, switching every microsecond."""
        monkeypatch.setattr(models, "_BLOCK_ROWS", 64)
        spec, n, m = TOP_MODELS[0], 1003, 20
        streams = [RngStream(31, index) for index in range(4)]
        want = [_top_sample(spec, n, m, rng) for rng in streams]
        start, wrong = threading.Barrier(len(streams)), []

        def draw(rng, serial):
            start.wait(60)
            for _ in range(30):
                got = _top_sample(spec, n, m, rng)
                if got.z.tobytes() != serial.z.tobytes() or \
                        got.delta.tobytes() != serial.delta.tobytes():
                    wrong.append(rng)

        threads = [threading.Thread(target=draw, args=pair) for pair in zip(streams, want)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        for rng, serial in zip(streams, want):
            assert_same_rows(serial, whole_top(spec, n, m, rng))

