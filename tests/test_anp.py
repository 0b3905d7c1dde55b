import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nplab import runners
from nplab.anp import (anp_predict, attention_weights,
                       factorization_counterexample, log_kernel_score,
                       nadaraya_watson)
from nplab.cnp import ContextSet, context_from_pairs, example_collision_pair
from nplab.errors import InputError, NumericError
from nplab.gp_oracle import two_point_weight
from nplab.kernels import KernelSpec, eval_kernel

RBF = KernelSpec(family="rbf")

# exact two-point posterior weights for the equal-radius configurations
W1_FAR = np.exp(-0.5) / (1.0 + np.exp(-2.0))    # opposite points, distance 2
W1_NEAR = np.exp(-0.5) / (1.0 + np.exp(-0.5))   # 60 degrees, distance 1
CLOSED_FORM_GAP = W1_FAR - W1_NEAR


def uniform_score(C, x_t):
    return np.zeros(C.n)


def factorized(s):
    """The score that gives each context point s(x_t, x_i, y_i), from that
    point alone."""
    return lambda C, x_t: np.array([s(x_t, x, y) for x, y in
                                    zip(C.locations, C.values)])


class TestAttentionWeights:
    def test_uniform_weights(self):
        C = context_from_pairs([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        w = attention_weights(uniform_score, C, 0.5)
        assert w == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_simplex_property(self):
        C = context_from_pairs([(0.0, 1.0), (3.0, -1.0)])
        score = log_kernel_score(RBF)
        w = attention_weights(score, C, 0.2)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(w > 0)

    def test_log_kernel_closed_form(self):
        # softmax(log k) is kernel-proportional weighting
        C = context_from_pairs([(0.0, 1.0), (2.0, 5.0)])
        score = log_kernel_score(RBF)
        w = attention_weights(score, C, 0.5)
        k0 = eval_kernel(RBF, 0.5, 0.0)
        k1 = eval_kernel(RBF, 0.5, 2.0)
        assert w[0] == pytest.approx(k0 / (k0 + k1), abs=1e-14)

    def test_extreme_scores_stay_finite(self):
        C = context_from_pairs([(0.0, 1.0), (20.0, 2.0)])
        score = log_kernel_score(RBF)
        w = attention_weights(score, C, 0.0)  # log k gap of ~200
        assert np.all(np.isfinite(w)) and w.sum() == pytest.approx(1.0,
                                                                   abs=1e-14)
        assert w[0] == pytest.approx(1.0, abs=1e-80)

    def test_underflowed_kernel_rejected(self):
        C = context_from_pairs([(0.0, 1.0), (60.0, 2.0)])
        score = log_kernel_score(RBF)
        with pytest.raises(InputError):
            attention_weights(score, C, 0.0)


class TestKernelSmootherEquivalence:
    def test_matches_nadaraya_watson_over_configs(self):
        # log-kernel scores, value map y, identity decoder: the attention
        # readout is exactly the kernel-weighted mean
        rng = np.random.default_rng(42)
        score = log_kernel_score(RBF)
        value_map = lambda C: C.values
        decoder = lambda x_t, r: float(r[0])
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 8))
            C = context_from_pairs(list(zip(rng.uniform(-2, 2, n),
                                            rng.normal(size=n))))
            x_t = float(rng.uniform(-2, 2))
            a = anp_predict(score, value_map, decoder, C, x_t)
            b = nadaraya_watson(RBF, C, x_t)
            worst = max(worst, abs(a - b))
        assert worst <= 1e-10

    def test_value_map_needs_one_row_per_point(self):
        C = context_from_pairs([(0.0, 1.0), (1.0, 2.0)])
        for value_map in (lambda C: C.values[:, 0], lambda C: C.values[:1]):
            with pytest.raises(InputError):
                anp_predict(uniform_score, value_map,
                            lambda x_t, r: r[0], C, 0.5)


def _batch(rng, batch, n, dim):
    return (ContextSet(rng.uniform(-3, 3, batch + (n, dim)),
                       rng.normal(size=batch + (n, 1))),
            rng.uniform(-3, 3, batch + (dim,)))


SMOOTHER_VALUES = lambda C: np.concatenate((C.values, np.ones_like(C.values)),
                                           axis=-1)
SMOOTHER_DECODER = lambda x_t, r: r[..., 0] / r[..., 1]


class TestBatchedContexts:
    # leading axes hold contexts of one size; each member's weights and
    # predictions are the bits of its own single-context call
    @pytest.mark.parametrize("batch", [(4,), (2, 3)], ids=["b", "b1-b2"])
    @pytest.mark.parametrize("n", [1, 5, 16, 64])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_members_match_single_calls(self, batch, n, dim):
        rng = np.random.default_rng(n + 7 * dim + len(batch))
        spec = KernelSpec(family="rbf", lengthscale=1.3)
        score = log_kernel_score(spec)
        C, x_t = _batch(rng, batch, n, dim)
        assert C.n == n
        w = attention_weights(score, C, x_t)
        a = anp_predict(score, SMOOTHER_VALUES, SMOOTHER_DECODER, C, x_t)
        b = nadaraya_watson(spec, C, x_t)
        assert w.shape == batch + (n,)
        assert a.shape == b.shape == batch
        for i in np.ndindex(batch):
            Ci = ContextSet(C.locations[i], C.values[i])
            assert np.array_equal(w[i], attention_weights(score, Ci, x_t[i]))
            single = anp_predict(score, SMOOTHER_VALUES, SMOOTHER_DECODER,
                                 Ci, x_t[i])
            assert type(single) is float and a[i] == single
            single = nadaraya_watson(spec, Ci, x_t[i])
            assert type(single) is float and b[i] == single

    def test_one_underflowing_member_is_named(self):
        # member 1 sits 60 lengthscales from its query; its total weight
        # exp(-1800) is 0 and is the error's residual
        locations = np.array([[[0.0], [0.5]], [[60.0], [61.0]],
                              [[1.0], [-1.0]]])
        C = ContextSet(locations, np.ones((3, 2, 1)))
        with pytest.raises(NumericError) as err:
            nadaraya_watson(RBF, C, np.zeros((3, 1)))
        assert err.value.residual == 0.0
        C = ContextSet(np.array([[[0.0]], [[37.5]]]), np.ones((2, 1, 1)))
        with pytest.raises(NumericError) as err:
            nadaraya_watson(RBF, C, np.zeros((2, 1)))
        assert err.value.residual == float(np.exp(-0.5 * 37.5 ** 2))
        assert 0.0 < err.value.residual <= 1e-300

    def test_mismatched_batches_rejected(self):
        with pytest.raises(InputError, match="batch shapes differ"):
            ContextSet(np.zeros((2, 3, 1)), np.zeros((4, 3, 1)))
        C = ContextSet(np.zeros((2, 3, 1)), np.zeros((2, 3, 1)))
        with pytest.raises(InputError, match="one row per context point"):
            anp_predict(uniform_score, lambda C: C.values[0],
                        SMOOTHER_DECODER, C, np.zeros((2, 1)))


class TestKernelSmootherRunner:
    def test_one_stream_per_run(self, monkeypatch):
        labels = []
        stream = runners.rng.stream

        def counting(seed, *path):
            labels.append(path)
            return stream(seed, *path)

        monkeypatch.setattr("nplab.rng.stream", counting)
        runners._run_kernel_smoother(
            {"n_configs": 500, "n_max": 16, "lengthscale": 1.0}, 3)
        assert labels == [("anp.kernel_smoother",)]

    # the declared corners: n_configs and n_max at both ends, lengthscale
    # at both ends except for the largest corner, which runs at one
    # lengthscale to keep the suite fast
    @pytest.mark.parametrize("n_configs,n_max,lengthscale", [
        (n_configs, n_max, ell) for n_configs in (1, 10_000)
        for n_max in (1, 64) for ell in (0.2, 10.0)
        if (n_configs, n_max, ell) != (10_000, 64, 10.0)])
    def test_declared_corners(self, n_configs, n_max, lengthscale):
        [check] = runners._run_kernel_smoother(
            {"n_configs": n_configs, "n_max": n_max,
             "lengthscale": lengthscale}, 0)
        assert check.name == "max_gap" and check.value <= 1e-10


class TestFactorizationCounterexample:
    def test_closed_form_weights(self):
        out = factorization_counterexample(RBF)
        for label, want in (("A", W1_FAR), ("B", W1_NEAR)):
            config = out[f"config_{label}"]
            w1, _ = two_point_weight(RBF, config["x1"], config["x2"],
                                     np.zeros(2))
            assert w1 == pytest.approx(want, abs=1e-12)

    def test_gap_value(self):
        out = factorization_counterexample(RBF)
        assert out["gp_weight_gap"] == pytest.approx(CLOSED_FORM_GAP,
                                                     abs=1e-12)
        assert out["gp_weight_gap"] >= 0.15

    def test_score_inputs_identical(self):
        out = factorization_counterexample(RBF)
        assert out["score_inputs_identical"]

    def test_every_factorized_rule_is_blind(self):
        # any factorized score sees identical (distance, value) inputs, so
        # the attention weights agree across the two configurations
        out = factorization_counterexample(RBF)
        CA = context_from_pairs([(out["config_A"]["x1"], 1.0),
                                 (out["config_A"]["x2"], 1.0)])
        CB = context_from_pairs([(out["config_B"]["x1"], 1.0),
                                 (out["config_B"]["x2"], 1.0)])
        score = factorized(lambda x_t, x, y: float(
            np.cos(np.linalg.norm(x_t - x)) + y[0]))
        wa = attention_weights(score, CA, np.zeros(2))
        wb = attention_weights(score, CB, np.zeros(2))
        assert np.max(np.abs(wa - wb)) < 1e-15

    def test_nonstationary_rejected(self):
        poly = KernelSpec(family="polynomial", degree=2)
        with pytest.raises(InputError):
            factorization_counterexample(poly)


class TestEquivalenceProbe:
    def test_uniform_attention_inherits_cnp_collision(self):
        # uniform attention over (x, y) values is the CNP's mean encoding,
        # so each coordinate of the attended value agrees on the pair
        res = example_collision_pair()
        score = uniform_score
        value_map = lambda C: np.hstack([C.locations, C.values])
        gaps = [abs(anp_predict(score, value_map, read, res.C, x_t)
                    - anp_predict(score, value_map, read, res.C2, x_t))
                for read in (lambda x_t, r: r[0], lambda x_t, r: r[1])
                for x_t in np.linspace(-2, 2, 9)]
        assert max(gaps) <= 1e-7

    def test_log_kernel_attention_separates_the_pair(self):
        res = example_collision_pair()
        score = log_kernel_score(RBF)
        value_map = lambda C: C.values
        read = lambda x_t, r: r[0]
        gaps = [abs(anp_predict(score, value_map, read, res.C, x_t)
                    - anp_predict(score, value_map, read, res.C2, x_t))
                for x_t in np.linspace(-2, 2, 50)]
        assert max(gaps) > 1e-3


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 5.0))
def test_nadaraya_watson_stays_in_value_hull(seed, tau):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    ys = rng.normal(size=n)
    C = context_from_pairs(list(zip(rng.uniform(-2, 2, n), ys)))
    val = nadaraya_watson(RBF, C, float(rng.uniform(-3, 3)))
    assert ys.min() - 1e-12 <= val <= ys.max() + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_attention_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    n = 5
    C = context_from_pairs(list(zip(rng.uniform(-2, 2, n), rng.normal(size=n))))
    perm = rng.permutation(n)
    score = log_kernel_score(RBF)
    w = attention_weights(score, C, 0.1)
    wp = attention_weights(
        score, ContextSet(C.locations[perm], C.values[perm]), 0.1)
    assert np.max(np.abs(w[perm] - wp)) < 1e-14
