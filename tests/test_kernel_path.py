"""Kernel values reach the rest of nplab through `kernel_matrix` alone.

Each function below is the per-point `eval_kernel` loop its module used
before it took its values from `kernel_matrix` or `cross_vector`, frozen
here as an oracle.  The vector forms must reproduce them bit for bit:
every `eval_kernel` call gets the same two points, at most swapped, and
the kernels are exactly symmetric.
"""

import numpy as np
import pytest

from nplab import kernels
from nplab.anp import attention_weights, log_kernel_score, nadaraya_watson
from nplab.cnp import ContextSet
from nplab.convcnp import WRAP_REACH, GridSpec, wrapped_kernel_row
from nplab.errors import InputError, NumericError
from nplab.gp_oracle import two_point_weight
from nplab.kernels import KernelSpec, eval_kernel, kernel_matrix

STATIONARY = [KernelSpec(family="rbf"),
              KernelSpec(family="rbf", lengthscale=0.3),
              KernelSpec(family="matern")]
SCALED = KernelSpec(family="scaled", base=KernelSpec(family="matern"),
                    amplitude=lambda x: 1.0 + 0.5 * np.sin(x[0]))
SPECS = STATIONARY + [SCALED]
SPEC_IDS = ["rbf", "rbf-0.3", "matern-1/2", "scaled"]


def _reference_score(spec, x_t, x):
    val = eval_kernel(spec, x_t, x)
    if val <= 0:
        raise InputError("log-kernel score needs positive kernel values")
    return float(np.log(val))


def _reference_scores(spec, C, x_t):
    return np.array([_reference_score(spec, x_t, x) for x in C.locations])


def _reference_nadaraya_watson(spec, C, x_t):
    w = np.array([eval_kernel(spec, x_t, x) for x in C.locations])
    total = w.sum()
    if total <= 1e-300:
        raise NumericError("total kernel weight underflowed",
                           residual=float(total))
    return float(w @ C.values[:, 0] / total)


def _reference_wrapped_kernel_row(spec, grid):
    reach = WRAP_REACH * spec.lengthscale
    extent = grid.extent
    n_images = int(np.ceil(reach / extent)) + 1
    row = np.zeros(grid.n)
    for m in range(grid.n):
        base = m * grid.spacing
        for j in range(-n_images, n_images + 1):
            offset = base + j * extent
            if abs(offset) <= reach:
                row[m] += eval_kernel(spec, [0.0], [offset])
    return row


def _reference_two_point_weight(spec, x1, x2, x_t):
    p1 = np.atleast_1d(np.asarray(x1, dtype=float))
    p2 = np.atleast_1d(np.asarray(x2, dtype=float))
    a = eval_kernel(spec, x_t, p1)
    b = eval_kernel(spec, x_t, p2)
    c = eval_kernel(spec, p1, p2)
    v = eval_kernel(spec, p1, p1)
    det = v * v - c * c
    return (a * v - b * c) / det, (b * v - a * c) / det


def _context(seed, dim):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 17))
    C = ContextSet(rng.uniform(-3, 3, (n, dim)), rng.normal(size=(n, 1)))
    return C, rng.uniform(-3, 3, dim)


CASES = [(spec, dim, seed) for spec in SPECS for dim in (1, 2)
         for seed in range(4)]
CASE_IDS = [f"{name}-{dim}d-{seed}" for name in SPEC_IDS for dim in (1, 2)
            for seed in range(4)]


@pytest.mark.parametrize("spec,dim,seed", CASES, ids=CASE_IDS)
def test_log_kernel_scores_match_per_point_loop(spec, dim, seed):
    C, x_t = _context(seed, dim)
    score = log_kernel_score(spec)
    ref = _reference_scores(spec, C, x_t)
    assert np.array_equal(score(C, x_t), ref)
    w = np.exp(ref - ref.max())
    assert np.array_equal(attention_weights(score, C, x_t), w / w.sum())


@pytest.mark.parametrize("dim", [1, 2])
def test_uniform_and_custom_scores_match_per_point_loop(dim):
    # a score nplab did not build is any (C, x_t) function, and its weights
    # are the softmax of the scores it gives
    C, x_t = _context(7, dim)
    custom = np.array([float(np.cos(np.linalg.norm(x_t - x)) + y[0])
                       for x, y in zip(C.locations, C.values)])
    for ref in (np.zeros(C.n), custom):
        w = np.exp(ref - ref.max())
        assert np.array_equal(attention_weights(lambda C, x_t: ref, C, x_t),
                              w / w.sum())


@pytest.mark.parametrize("spec,dim,seed", CASES, ids=CASE_IDS)
def test_nadaraya_watson_matches_per_point_loop(spec, dim, seed):
    C, x_t = _context(seed, dim)
    assert np.array_equal(nadaraya_watson(spec, C, x_t),
                          _reference_nadaraya_watson(spec, C, x_t))


# (n, spacing): extent n * spacing from 0.4 (hundreds of images per row at
# lengthscale 10) to 32 (one image)
GRIDS = [(4, 0.1), (8, 0.5), (5, 0.37), (16, 0.25), (3, 1.0), (64, 0.5)]


@pytest.mark.parametrize("spec", STATIONARY, ids=SPEC_IDS[:-1])
@pytest.mark.parametrize("n,spacing", GRIDS)
@pytest.mark.parametrize("lengthscale", [1.0, 10.0])
def test_wrapped_kernel_row_matches_double_loop(spec, n, spacing,
                                                lengthscale):
    spec = KernelSpec(family=spec.family,
                      lengthscale=spec.lengthscale * lengthscale)
    grid = GridSpec(n=n, spacing=spacing)
    assert np.array_equal(wrapped_kernel_row(spec, grid),
                          _reference_wrapped_kernel_row(spec, grid))


def test_wrapped_grids_need_many_images():
    # the bit-identity grids include rows that sum at least 8 images, where
    # the order of the additions shows in the last bits
    reach = WRAP_REACH * 10.0
    n, spacing = GRIDS[0]
    extent = n * spacing
    per_row = [sum(abs(m * spacing + j * extent) <= reach
                   for j in range(-200, 201)) for m in range(n)]
    assert min(per_row) >= 8


@pytest.mark.parametrize("spec,dim,seed", CASES, ids=CASE_IDS)
def test_two_point_weight_matches_four_calls(spec, dim, seed):
    rng = np.random.default_rng(seed)
    x1, x2, x_t = rng.uniform(-2, 2, (3, dim))
    assert np.array_equal(two_point_weight(spec, x1, x2, x_t),
                          _reference_two_point_weight(spec, x1, x2, x_t))


def test_two_point_weight_takes_scalar_points():
    spec = KernelSpec(family="matern")
    assert np.array_equal(two_point_weight(spec, 0.0, 2.0, 0.5),
                          _reference_two_point_weight(spec, 0.0, 2.0, 0.5))


def _reference_eval_kernel(spec, x, x2):
    """`eval_kernel` as it was written with np.atleast_1d and
    np.linalg.norm, frozen as the oracle of its leaner form."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    q = np.atleast_1d(np.asarray(x2, dtype=float))
    if p.ndim != 1 or q.ndim != 1 or p.shape != q.shape:
        raise InputError("bad points")
    if spec.family == "scaled":
        return (spec.amplitude(p) * spec.amplitude(q)
                * _reference_eval_kernel(spec.base, p, q))
    if spec.family == "polynomial":
        return (1.0 + float(p @ q) / spec.lengthscale**2) ** spec.degree
    r = float(np.linalg.norm(p - q)) / spec.lengthscale
    if spec.family == "rbf":
        return np.exp(-0.5 * r * r)
    return np.exp(-r)


def _point_pairs():
    """Pairs in 1, 2 and 3 dimensions, as scalars where 1-d, at ordinary
    distances, at distances whose square overflows (1e200) and at
    subnormal ones."""
    rng = np.random.default_rng(0)
    pairs = [(0.3, -1.2), (np.float64(2.0), np.array([2.5])), (0.0, -0.0)]
    for d in (1, 2, 3):
        for scale in (1.0, 1e200, 1e-310):
            for _ in range(4):
                x = rng.normal(size=d) * scale
                pairs.append((x, x + rng.normal(size=d) * scale))
                pairs.append((x, x))
    return pairs


@pytest.mark.parametrize("spec", SPECS + [
    KernelSpec(family="polynomial", degree=3, lengthscale=1.5)],
    ids=SPEC_IDS + ["polynomial"])
def test_lean_eval_kernel_matches_norm_reference(spec):
    for x, x2 in _point_pairs():
        # both forms overflow alike at 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            got = eval_kernel(spec, x, x2)
            want = _reference_eval_kernel(spec, x, x2)
        assert type(got) is type(want)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.signbit(got) == np.signbit(want)


# one coordinate at the edges of float64: signed zeros, subnormals, 1e-160
# (whose square underflows into the subnormals, so sqrt(d * d) is not |d|),
# 1e150 (whose products overflow a polynomial's float power), 1e155 (whose
# squares overflow) and 40 (whose RBF value exp(-800) underflows to 0)
EDGE_COORDINATES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-322, 1e-310, 1e-160,
                    -1e-160, 3e-160, 1.0, -1.0, 0.3, 40.0, 1e150, -1e150,
                    1e155, -1e155]
# a lengthscale of 1e-160 turns the rounded distances near 1e-160 into
# kernel values of order one, where every bit of them shows
FLOAT_SPECS = {f"{family}-{ell}": KernelSpec(family=family, lengthscale=ell)
               for family in ("rbf", "matern") for ell in (1.0, 1e-160)}
FLOAT_SPECS.update({
    f"polynomial{degree}-{ell}": KernelSpec(family="polynomial",
                                            degree=degree, lengthscale=ell)
    for degree in range(4) for ell in (1.0, 1e-160)})
FLOAT_SPECS.update({"scaled-1.0": SCALED, "scaled-1e-160": KernelSpec(
    family="scaled", base=KernelSpec(lengthscale=1e-160),
    amplitude=SCALED.amplitude)})


def _outcome(spec, x, x2):
    """The value's type and bits, or the type of the error raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = eval_kernel(spec, x, x2)
    except OverflowError as err:  # a polynomial's float power overflows
        return type(err)
    return type(value), np.float64(value).tobytes()


@pytest.mark.parametrize("spec", FLOAT_SPECS.values(),
                         ids=FLOAT_SPECS.keys())
def test_float_coordinates_give_the_point_bits(spec):
    # two Python floats take eval_kernel's float path, two 1-element
    # points its vector path; the values agree bit for bit
    for x in EDGE_COORDINATES:
        for x2 in EDGE_COORDINATES:
            assert _outcome(spec, x, x2) == \
                _outcome(spec, np.array([x]), np.array([x2])), (x, x2)


POLYNOMIAL = KernelSpec(family="polynomial", degree=3, lengthscale=1.5)
BATCHES = [(), (3,), (2, 3)]


@pytest.mark.parametrize("batch", BATCHES, ids=["2d", "b", "b1-b2"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("spec", SPECS + [POLYNOMIAL],
                         ids=SPEC_IDS + ["polynomial"])
def test_batched_members_match_their_own_calls(spec, d, batch):
    # leading axes hold independent point sets; each member's matrix,
    # Gram and cross vector is the bits of its own 2-d call
    rng = np.random.default_rng(len(batch) + 3 * d)
    X = rng.uniform(-3, 3, batch + (5, d))
    Y = rng.uniform(-3, 3, batch + (4, d))
    x_t = rng.uniform(-3, 3, batch + (d,))
    K, G = kernel_matrix(spec, X, Y), kernel_matrix(spec, X)
    k = kernels.cross_vector(spec, X, x_t)
    assert K.shape == batch + (5, 4) and G.shape == batch + (5, 5)
    assert k.shape == batch + (5,)
    for i in np.ndindex(batch):
        assert np.array_equal(K[i], kernel_matrix(spec, X[i], Y[i]))
        assert np.array_equal(G[i], kernel_matrix(spec, X[i]))
        assert np.array_equal(k[i], kernels.cross_vector(spec, X[i], x_t[i]))


def test_unequal_batch_shapes_rejected():
    spec = KernelSpec()
    X = np.zeros((3, 5, 1))
    for Y in (np.zeros((2, 4, 1)), np.zeros((4, 1)), np.zeros((1, 3, 4, 1))):
        with pytest.raises(InputError, match="batch shapes differ"):
            kernel_matrix(spec, X, Y)
    for x_t in (np.zeros((2, 1)), np.zeros(1)):
        with pytest.raises(InputError, match="batch shapes differ"):
            kernels.cross_vector(spec, X, x_t)
    with pytest.raises(InputError, match="batch shapes differ"):
        kernels.cross_vector(spec, X[0], np.zeros((3, 1)))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("cross", [False, True], ids=["gram", "cross"])
def test_kernel_matrix_calls_eval_kernel_once_per_pair(monkeypatch, d,
                                                      cross):
    # a tracer counts kernel_matrix's calls through kernels.eval_kernel, so
    # a Gram of n points is n * n calls, not a mirrored triangle, and a
    # batch of two is that many calls for each member
    rng = np.random.default_rng(d)
    spec = KernelSpec(family="matern")
    calls = []

    def counting(*args):
        calls.append(args)
        return eval_kernel(*args)

    for members, batch in ((1, ()), (2, (2,))):
        X = rng.normal(size=batch + (5, d))
        Y = rng.normal(size=batch + (3, d)) if cross else None
        want = kernel_matrix(spec, X, Y)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "eval_kernel", counting)
            got = kernel_matrix(spec, X, Y)
        assert len(calls) == members * 5 * (5 if Y is None else 3)
        assert np.array_equal(got, want)
