"""Panel generation tests: determinism, dependence control, law moments, row sums."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from exceedlab import experiments as ex
from exceedlab import panelgen as pg
from exceedlab import studentize as stu


def _se(x):
    return x.std(ddof=1) / math.sqrt(x.size)


def test_generation_is_deterministic():
    spec = pg.PanelSpec(
        p=3, n=4, model=pg.DependenceModel.iid(), law=pg.InnovationLaw.normal(),
        seed=12345,
    )
    a = pg.generate(spec)
    b = pg.generate(spec)
    assert np.array_equal(a.data, b.data)
    assert a.data.shape == (3, 4)


def test_replicates_are_fresh_and_uncorrelated():
    spec = pg.PanelSpec(
        p=1000, n=100, model=pg.DependenceModel.iid(),
        law=pg.InnovationLaw.normal(), seed=99,
    )
    a = pg.generate(spec).data.ravel()
    b = pg.generate(spec.with_replicate(1)).data.ravel()
    assert not np.array_equal(a, b)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(a.size)


def test_moving_average_lag_one_correlation():
    # window 4 implies lag-1 correlation (kappa - 1)/kappa = 0.75
    spec = pg.PanelSpec(
        p=10**6 + 1, n=1, model=pg.DependenceModel.moving_average(4),
        law=pg.InnovationLaw.normal(), seed=5,
    )
    x = pg.generate(spec).data[:, 0]
    prod = x[:-1] * x[1:]
    r1 = prod.mean()
    assert abs(r1 - 0.75) < 4.0 * _se(prod)
    prod5 = x[:-5] * x[5:]
    assert abs(prod5.mean()) < 4.0 * _se(prod5)


def test_gaussian_kdep_hits_requested_correlations():
    rho = (0.1, 0.08, 0.06, 0.04, 0.02)
    spec = pg.PanelSpec(
        p=400_001, n=1, model=pg.DependenceModel.gaussian_kdep(rho),
        law=pg.InnovationLaw.normal(), seed=17,
    )
    x = pg.generate(spec).data[:, 0]
    for m, want in [(1, 0.1), (3, 0.06), (5, 0.02), (6, 0.0), (9, 0.0)]:
        prod = x[:-m] * x[m:]
        assert abs(prod.mean() - want) < 4.0 * _se(prod), f"lag {m}"


def test_two_point_law_zero_rows():
    # an atom of 0.5 at zero makes a whole row of n = 3 vanish with prob 1/8
    spec = pg.PanelSpec(
        p=10**6, n=3, model=pg.DependenceModel.iid(),
        law=pg.InnovationLaw.two_point(0.5), seed=3,
    )
    flags = (pg.generate(spec).data == 0.0).all(axis=1)
    frac = flags.mean()
    assert abs(frac - 0.125) < 4.0 * _se(flags.astype(float))


def test_offsets_shift_rows_exactly():
    base = pg.PanelSpec(
        p=10, n=50, model=pg.DependenceModel.moving_average(3),
        law=pg.InnovationLaw.normal(), seed=41,
    )
    shifted = pg.PanelSpec(
        p=10, n=50, model=pg.DependenceModel.moving_average(3),
        law=pg.InnovationLaw.normal(), seed=41, offsets=((4, 0.37),),
    )
    a = pg.generate(base).data
    b = pg.generate(shifted).data
    assert np.array_equal(b[3], a[3] + 0.37)
    mask = np.ones(10, dtype=bool)
    mask[3] = False
    assert np.array_equal(b[mask], a[mask])


def test_law_moments_closed_forms():
    mean, var, m3 = pg.standardized_law_moments(pg.InnovationLaw.normal())
    assert (mean, var) == (0.0, 1.0)
    # quadrature oracle for E|Z|^3
    oracle, _ = quad(
        lambda x: abs(x) ** 3 * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
        -math.inf, math.inf,
    )
    assert m3 == pytest.approx(oracle, rel=1e-10)
    assert m3 == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-14)

    assert pg.standardized_law_moments(pg.InnovationLaw.rademacher()) == (0.0, 1.0, 1.0)

    _, _, m3_tp = pg.standardized_law_moments(pg.InnovationLaw.two_point(0.3))
    assert m3_tp == pytest.approx(1.0 / math.sqrt(0.7), rel=1e-14)


def test_pareto_moments_closed_form_vs_quadrature():
    a = 4.0
    mu = a / (a - 1.0)
    sigma3 = (a / ((a - 1.0) ** 2 * (a - 2.0))) ** 1.5
    oracle, _ = quad(
        lambda x: abs(x - mu) ** 3 * a * x ** (-a - 1.0), 1.0, math.inf, limit=300
    )
    _, _, m3 = pg.standardized_law_moments(pg.InnovationLaw.pareto(a))
    assert m3 == pytest.approx(oracle / sigma3, rel=1e-9)


def test_pareto_moments_monte_carlo_cross_check():
    law = pg.InnovationLaw.pareto(4.0)
    _, _, m3 = pg.standardized_law_moments(law)
    rng = np.random.default_rng(271828)
    x = law.sample(rng, 10**7)
    cubes = np.abs(x) ** 3
    # heavy-tailed summands: the self-normalized comparison still brackets
    # the closed form at 4 empirical standard errors for this seed
    assert abs(cubes.mean() - m3) < 4.0 * _se(cubes)


@pytest.mark.parametrize(
    "law",
    [
        pg.InnovationLaw.normal(),
        pg.InnovationLaw.pareto(4.5),
        pg.InnovationLaw.rademacher(),
        pg.InnovationLaw.two_point(0.4),
    ],
    ids=lambda law: law.kind,
)
def test_law_sample_moment_conformance(law):
    rng = np.random.default_rng(abs(hash(law.kind)) % 2**32)
    x = law.sample(rng, 10**6)
    assert abs(x.mean()) <= 4.0 * _se(x)
    sq = x * x
    assert abs(sq.mean() - 1.0) <= 4.0 * _se(sq)


def test_filter_weights_solve():
    w = pg.ma_filter_weights((0.5,))
    assert np.allclose(w, [1 / math.sqrt(2)] * 2, atol=1e-7)
    w3 = pg.ma_filter_weights((2 / 3, 1 / 3))
    assert np.allclose(w3, [1 / math.sqrt(3)] * 3, atol=1e-7)
    interior = pg.ma_filter_weights((0.1, 0.05))
    implied = [
        float(np.dot(interior[:-1], interior[1:])),
        float(np.dot(interior[:-2], interior[2:])),
    ]
    assert implied == pytest.approx([0.1, 0.05], abs=1e-9)
    assert float(np.dot(interior, interior)) == pytest.approx(1.0, abs=1e-12)


def _min_root(w):
    """Smallest |z| over the roots of sum_k w_k z^k."""
    return float(np.min(np.abs(np.roots(w[::-1])), initial=np.inf))


def test_filter_weights_closed_forms_on_the_boundary():
    # the density touches zero: one unit root, two unit roots (their taps
    # are checked in test_filter_weights_solve), a triple one
    for rho in [(0.5,), (2 / 3, 1 / 3)]:
        assert _min_root(pg.ma_filter_weights(rho)) >= 1.0 - 1e-6
    # (1 + z)^3 / sqrt(20).  Rounding 0.3 and 0.05 puts the density at
    # -2.8e-17 at omega = pi, so no exact factor exists, and near a six-fold
    # zero that fixes the taps only to ~1e-3: moving 0.3 or 0.05 by a few
    # ulps moves them by 6e-4 to 1.2e-3
    triple = pg.ma_filter_weights((0.75, 0.3, 0.05))
    assert triple == pytest.approx(np.array([1, 3, 3, 1]) / math.sqrt(20), abs=2e-3)


def _dense_cholesky_row(rho, size):
    """Last row of the Cholesky factor of the size-square banded Toeplitz matrix."""
    kappa = len(rho)
    col = np.zeros(size)
    col[0], col[1:kappa + 1] = 1.0, rho
    lags = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
    return np.linalg.cholesky(col[lags])[-1, size - 1 - np.arange(kappa + 1)]


@pytest.mark.parametrize("kappa", [1, 2, 5, 10, 40, 100])
@pytest.mark.parametrize("rho_max", [0.01, 0.3, 0.4999])
def test_filter_weights_match_the_dense_cholesky_row(kappa, rho_max):
    # the criterion-4 band: lag correlations falling linearly from rho_max.
    # The rows settle like |z_min|^(-2 size); at kappa = 100 the nearest
    # root is at |z| = 1.006, so that band needs the larger matrix
    rho = tuple(rho_max * (kappa - m + 1) / kappa for m in range(1, kappa + 1))
    w = pg.ma_filter_weights(rho)
    oracle = _dense_cholesky_row(rho, 2048 if kappa > 40 else 1024)
    assert np.max(np.abs(w - oracle)) <= 1e-12
    assert _min_root(w) >= 1.0 - 1e-6


def test_filter_weights_are_minimum_phase_near_the_boundary():
    # kappa = 12 taps with a root just outside the unit circle: the
    # density's minimum is ~3.6e-6, where the stationary Cholesky rows
    # converge too slowly to settle
    w = np.random.default_rng(6643).random(13)
    w /= np.linalg.norm(w)
    rho = tuple(float(np.dot(w[:13 - m], w[m:])) for m in range(1, 13))
    got = pg.ma_filter_weights(rho)
    assert _min_root(got) >= 1.0 - 1e-6
    assert _min_root(w) < 1.0  # the taps that made rho are not the factor returned
    implied = [float(np.dot(got[:13 - m], got[m:])) for m in range(1, 13)]
    assert implied == pytest.approx(rho, abs=1e-9)


def test_filter_weights_are_read_only_at_every_kappa():
    for rho in [(), (0.2,), (0.3, 0.1)]:
        w = pg.ma_filter_weights(rho)
        with pytest.raises(ValueError):
            w[0] = 5.0
    assert pg.ma_filter_weights(()).tolist() == [1.0]


def test_spec_rejections():
    model = pg.DependenceModel.iid()
    law = pg.InnovationLaw.normal()
    with pytest.raises(pg.SpecError):
        pg.InnovationLaw.pareto(3.0).validate()
    with pytest.raises(pg.SpecError):
        pg.InnovationLaw.two_point(1.0).validate()
    with pytest.raises(pg.SpecError):
        pg.DependenceModel.gaussian_kdep((1.0,)).validate()
    with pytest.raises(pg.SpecError):
        pg.DependenceModel.gaussian_kdep((0.6,)).validate()  # infeasible spectrum
    with pytest.raises(pg.SpecError):
        pg.PanelSpec(p=0, n=4, model=model, law=law).validate()
    with pytest.raises(pg.SpecError):
        pg.PanelSpec(p=4, n=4, model=model, law=law, offsets=((1, -0.1),)).validate()
    with pytest.raises(pg.SpecError):
        pg.PanelSpec(p=4, n=4, model=model, law=law, offsets=((9, 0.1),)).validate()
    with pytest.raises(pg.SpecError):
        pg.PanelSpec(
            p=4, n=4, model=model, law=law, offsets=((1, 0.1), (1, 0.2))
        ).validate()
    with pytest.raises(pg.SpecError):
        pg.PanelSpec(
            p=4, n=4, model=pg.DependenceModel.gaussian_kdep((0.1,)),
            law=pg.InnovationLaw.pareto(4.0),
        ).validate()
    with pytest.raises(pg.SpecError):
        pg.PanelSpec(p=4, n=4, model=model, law=law, seed=-1).validate()


def test_model_lag_correlations():
    ma = pg.DependenceModel.moving_average(4)
    assert ma.lag_correlation(1) == 0.75
    assert ma.lag_correlation(4) == 0.0
    assert ma.rho_max == 0.75
    kdep = pg.DependenceModel.gaussian_kdep((0.2, 0.1))
    assert kdep.lag_correlation(2) == 0.1
    assert kdep.lag_correlation(3) == 0.0
    assert kdep.rho_max == 0.2
    assert pg.DependenceModel.iid().rho_max == 0.0


@pytest.mark.parametrize("model, law, lags", [
    (pg.DependenceModel.moving_average(4), pg.InnovationLaw.normal(), (1, 2, 4)),
    (pg.DependenceModel.moving_average(3), pg.InnovationLaw.rademacher(), (1, 3)),
    (pg.DependenceModel.gaussian_kdep((0.5, 0.2)), pg.InnovationLaw.normal(), (1, 2, 3)),
], ids=["moving-average", "moving-average-rademacher", "gaussian-kdep"])
def test_copies_sums_lag_products(model, law, lags):
    # at n = 1 a row's S1 is its one cell: lag-m products of the copies of a
    # sub-panel of m + 1 rows estimate the model's lag correlation
    rng = np.random.default_rng(9)
    for m in lags:
        spec = pg.PanelSpec(p=m + 1, n=1, model=model, law=law)
        s1, s2 = pg.copies_sums(spec, 200_000, rng)
        assert s1.shape == s2.shape == (200_000, m + 1)
        np.testing.assert_allclose(s2, s1 * s1, rtol=1e-12)
        prod = s1[:, 0] * s1[:, m]
        assert abs(prod.mean() - model.lag_correlation(m)) < 4.0 * _se(prod), m


def _panel_text(spec):
    # the panel's config text is the [panel] section ExperimentConfig writes
    return ex.ExperimentConfig(kind="calibrate", panel=spec).to_text()


def test_spec_config_round_trip():
    spec = pg.PanelSpec(
        p=1000, n=64, model=pg.DependenceModel.moving_average(6),
        law=pg.InnovationLaw.pareto(4.25), seed=77, replicate=2,
        offsets=((3, 0.5), (10, 1.25)),
    )
    text = _panel_text(spec)
    back = ex.ExperimentConfig.from_text(text).panel
    assert back.p == spec.p and back.n == spec.n
    assert back.model == spec.model
    assert back.law == spec.law
    assert back.offsets == spec.offsets
    # replicate r always draws from stream(seed, r), so the text carries no replicate
    assert "replicate" not in text
    assert back.seed == spec.seed and back == spec.with_replicate(0)


def test_spec_config_round_trip_kdep():
    spec = pg.PanelSpec(
        p=50, n=8, model=pg.DependenceModel.gaussian_kdep((0.1, 0.05)),
        law=pg.InnovationLaw.normal(), seed=5,
    )
    back = ex.ExperimentConfig.from_text(_panel_text(spec)).panel
    assert back.model == spec.model
    assert np.array_equal(pg.generate(back).data, pg.generate(spec).data)


def test_spec_config_weights_file(tmp_path):
    # weights_file is not a [panel] key: it fails like any unknown key,
    # before any file is read
    spec = pg.PanelSpec(
        p=4, n=3, model=pg.DependenceModel.iid(), law=pg.InnovationLaw.normal(),
    )
    text = _panel_text(spec).replace(
        "[panel]\n", f"[panel]\nweights_file = {tmp_path / 'w.npy'}\n"
    )
    with pytest.raises(pg.SpecError, match="weights_file"):
        ex.ExperimentConfig.from_text(text)


def test_spec_config_unknown_key_rejected():
    text = "[panel]\np = 4\nn = 3\nbogus = 1\n"
    with pytest.raises(pg.SpecError, match="bogus"):
        ex.ExperimentConfig.from_text(text)
    # per-row group sizes are not a key: every row has the group size n
    with pytest.raises(pg.SpecError, match="^\\[panel\\] sizes: not a key of this section$"):
        ex.ExperimentConfig.from_text("[panel]\np = 2\nn = 3\nsizes = 3, 2\n")


# ---------------------------------------------------------------------------
# Row sums drawn without cells
# ---------------------------------------------------------------------------

# A strong band, so that a lost carry between blocks shows in the moments.
STRONG = pg.DependenceModel.gaussian_kdep((0.6, 0.3))
Z_MAX = 4.5


def _strong_spec(p, n, seed, **kw):
    return pg.PanelSpec(p=p, n=n, model=STRONG, law=pg.InnovationLaw.normal(),
                        seed=seed, **kw)


def _sums(spec, reps, batch=50):
    parts = [pg.row_sums(spec, range(a, min(a + batch, reps)))
             for a in range(0, reps, batch)]
    return (np.concatenate([s1 for s1, _ in parts]),
            np.concatenate([s2 for _, s2 in parts]))


def _z(per_rep, expected):
    """Mean of per-replicate values (iid across replicates) in SE units."""
    return (per_rep.mean() - expected) / (per_rep.std(ddof=1) / math.sqrt(per_rep.size))


def _moment_z(s1, s2, spec, rows, pair_rows):
    """z-scores of the exact second moments of the row sums.

    ``rows`` selects the rows for E S2 and Var S2; ``pair_rows(m)`` the
    first rows i of the lag-m pairs (i, i + m).
    """
    n, model = spec.n, spec.model
    c2 = s2 - n
    z = {"E S2": _z(c2[:, rows].mean(axis=1), 0.0),
         "Var S2": _z((c2[:, rows] ** 2).mean(axis=1), 2.0 * n)}
    i = pair_rows(1)
    z["Cov(S1_i, S2_i+1)"] = _z((s1[:, i] * c2[:, i + 1]).mean(axis=1), 0.0)
    for m in range(1, model.kappa + 2):
        rho = model.lag_correlation(m)
        i = pair_rows(m)
        z[f"Cov(S1_i, S1_i+{m})"] = _z((s1[:, i] * s1[:, i + m]).mean(axis=1), n * rho)
        z[f"Cov(S2_i, S2_i+{m})"] = _z((c2[:, i] * c2[:, i + m]).mean(axis=1),
                                        2.0 * n * rho * rho)
    return z


# Strong filters of L = 6 taps (the benchmark's kappa = 5 band) and L = 9,
# the narrowest filter whose frames are worked one matrix at a time.
STRONG6 = pg.DependenceModel.gaussian_kdep((0.6, 0.45, 0.3, 0.2, 0.1))
STRONG9 = pg.DependenceModel.gaussian_kdep(tuple(0.6 * (8 - m) / 8 for m in range(8)))


def test_row_sums_exact_second_moments():
    # n = 30 at K = L - 1 for L = 3, 6 and 9; p = 640 rows span more than
    # one chunk of blocks at each K
    for model in (STRONG, STRONG6, STRONG9):
        spec = pg.PanelSpec(p=640, n=30, model=model, law=pg.InnovationLaw.normal(),
                            seed=41)
        s1, s2 = _sums(spec, 2000)
        K = model.kappa  # L - 1 new drivers per block
        everywhere = _moment_z(s1, s2, spec, slice(None),
                               lambda m: np.arange(spec.p - m))

        def straddling(m):
            i = np.arange(spec.p - m)
            return i[i // K != (i + m) // K]

        # rows whose window reaches into the carried drivers, and pairs
        # that straddle a block boundary
        straddle = _moment_z(s1, s2, spec,
                             np.flatnonzero(np.arange(spec.p) % K < model.kappa),
                             straddling)
        for label, z in (("all rows", everywhere), ("block boundaries", straddle)):
            bad = {k: round(v, 2) for k, v in z.items() if abs(v) > Z_MAX}
            assert not bad, (model.kappa + 1, label, bad)


def test_row_sums_smallest_group_size():
    # n = 2L - 1: blocks of K = L - 1 new drivers, the fewest that leave
    # no carry chained; p = 600 rows span 300 blocks, more than one chunk.
    spec = _strong_spec(600, 5, seed=43)
    s1, s2 = _sums(spec, 3000)
    z = _moment_z(s1, s2, spec, slice(None), lambda m: np.arange(spec.p - m))
    bad = {k: round(v, 2) for k, v in z.items() if abs(v) > Z_MAX}
    assert not bad, bad


def test_row_sums_studentized_marginal_is_scaled_t():
    from scipy import stats

    n = 8
    spec = _strong_spec(600, n, seed=47)
    s1, s2 = _sums(spec, 1000)
    # rows L = kappa + 1 apart share no driver, so they are independent
    t = stu.studentize_sums(s1[:, ::3].ravel(), s2[:, ::3].ravel(), n).t
    ks = stats.kstest(t * math.sqrt((n - 1) / n), stats.t(n - 1).cdf)
    assert ks.pvalue > 1e-3, ks


def test_row_sums_max_t_matches_explicit_panels():
    from scipy import stats

    spec = _strong_spec(300, 20, seed=53, offsets=((7, 0.4), (150, 0.8)))
    reps = 800
    s1, s2 = _sums(spec, reps)
    fast = [stu.studentize_sums(s1[k], s2[k], spec.n).t.max() for k in range(reps)]
    slow = [stu.studentize_panel(pg.generate(spec.with_replicate(reps + k))).t.max()
            for k in range(reps)]
    ks = stats.ks_2samp(fast, slow)
    assert ks.pvalue > 1e-3, ks


_SPLIT_SPECS = (
    _strong_spec(1100, 30, seed=0),  # more blocks than one chunk
    _strong_spec(600, 5, seed=0),  # n = 2L - 1, more blocks than one chunk
    # L = 6: each carry is the previous block's new rows; 7 chunks of
    # blocks, worked in 1 to 4 passes as the batch grows from 1 to 9
    pg.PanelSpec(p=3600, n=40, model=STRONG6, law=pg.InnovationLaw.normal()),
    pg.PanelSpec(p=600, n=20, model=STRONG9, law=pg.InnovationLaw.normal()),
    pg.PanelSpec(p=257, n=9, model=pg.DependenceModel.moving_average(4),
                 law=pg.InnovationLaw.normal(), offsets=((3, 1.0), (257, 0.5))),
    pg.PanelSpec(p=60, n=5, model=pg.DependenceModel.iid(),
                 law=pg.InnovationLaw.normal()),
)


@settings(max_examples=30, deadline=None)
@example(which=2, seed=0, reps=list(range(9)), cuts=[1], u_min=-math.inf)
@example(which=2, seed=0, reps=list(range(9)), cuts=[1], u_min=1.5)
@example(which=2, seed=0, reps=list(range(9)), cuts=[1], u_min=0.0)  # runs across passes
@given(
    which=st.integers(0, len(_SPLIT_SPECS) - 1),
    seed=st.integers(0, 2**64 - 1),
    reps=st.lists(st.integers(0, 10**6), min_size=1, max_size=9, unique=True),
    cuts=st.lists(st.integers(1, 8), max_size=4),
    u_min=st.sampled_from([-math.inf, 0.0, 1.5, 3.0]),
)
def test_row_sums_bit_identical_across_batch_splits(which, seed, reps, cuts, u_min):
    # the level cut too: which rows a replicate draws is its own affair
    spec = replace(_SPLIT_SPECS[which], seed=seed)
    whole = pg.row_sums(spec, reps, u_min)
    bounds = sorted({0, len(reps), *(c for c in cuts if c < len(reps))})
    parts = [pg.row_sums(spec, reps[a:b], u_min) for a, b in zip(bounds[:-1], bounds[1:])]
    for k in (0, 1):
        joined = np.concatenate([part[k] for part in parts])
        assert joined.shape == (len(reps), spec.p)
        assert joined.tobytes() == whole[k].tobytes()


# Specs for the level cut: the criterion-4 filter at a small p, the
# narrowest filter worked one frame at a time, a moving average with
# offsets, and iid rows.
_CUT_SPECS = (
    pg.PanelSpec(p=1500, n=30, model=STRONG6, law=pg.InnovationLaw.normal(), seed=5),
    pg.PanelSpec(p=600, n=20, model=STRONG9, law=pg.InnovationLaw.normal(), seed=6),
    pg.PanelSpec(p=257, n=9, model=pg.DependenceModel.moving_average(4),
                 law=pg.InnovationLaw.normal(), seed=7, offsets=((3, 1.0), (257, 0.5))),
    pg.PanelSpec(p=300, n=5, model=pg.DependenceModel.iid(),
                 law=pg.InnovationLaw.normal(), seed=8),
)


@pytest.mark.parametrize("spec", _CUT_SPECS, ids=["L6", "L9", "ma-offsets", "iid"])
def test_row_sums_cut_below_every_row_is_row_sums(spec):
    # u_min below every u keeps every block, one run: the full draw, bit for bit
    reps = list(range(7))
    full, kept = pg.row_sums(spec, reps), pg.row_sums(spec, reps, u_min=-1e300)
    for a, b in zip(full, kept):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", _CUT_SPECS, ids=["L6", "L9", "ma-offsets", "iid"])
def test_row_sums_cut_draws_every_row_above_it(spec):
    # S1 comes from the a_j alone, drawn first: the same with or without a
    # cut.  Every row with u above the cut has its S2, and the rows without
    # one lie in blocks that hold no such row.
    reps = list(range(20))
    u_min = 1.0
    s1, _ = pg.row_sums(spec, reps)
    c1, c2 = pg.row_sums(spec, reps, u_min)
    assert c1.tobytes() == s1.tobytes()
    u = c1 / math.sqrt(spec.n)
    taps = spec.model.kappa + 1 if spec.model.kind == "gaussian-kdep" else max(
        spec.model.kappa, 1)
    K = max(1, taps - 1)
    above = u > u_min
    drawn = ~np.isnan(c2)
    assert not np.any(above & ~drawn)
    blocks = np.zeros((len(reps), -(-spec.p // K) * K), dtype=bool)
    blocks[:, :spec.p] = above
    in_block = np.repeat(blocks.reshape(len(reps), -1, K).any(axis=2), K, axis=1)
    assert np.array_equal(drawn, in_block[:, :spec.p])
    assert 0 < drawn.mean() < 1


@pytest.mark.parametrize("spec", _CUT_SPECS, ids=["L6", "L9", "ma-offsets", "iid"])
def test_row_sums_cut_at_zero_counts_exceedances_in_law(spec):
    # A row with u <= 0 has T <= 0, so the cut at 0 is exact: at a low level
    # (many hits) its exceedance counts have the law of the full draw's.
    # Distinct replicates keep the two samples independent.
    from scipy import stats

    reps, level = 400, 0.5

    def counts(first, u_min):
        s1, s2 = pg.row_sums(spec, range(first, first + reps), u_min)
        drawn = ~np.isnan(s2)
        t = np.full(s1.shape, -np.inf)
        t[drawn] = stu.studentize_sums(s1[drawn], s2[drawn], spec.n).t
        return (t > level).sum(axis=1)

    cut, full = counts(0, 0.0), counts(10**6, -math.inf)
    assert cut.mean() > 20
    ks = stats.ks_2samp(cut, full)
    assert ks.pvalue > 1e-3, (cut.mean(), full.mean(), ks)


def test_level_cut_skips_rows_with_chance_at_most_delta():
    from scipy import stats

    for n in (2, 5, 40, 200, 2000):
        for p in (10, 10_000, 10**7):
            spec = pg.PanelSpec(p=p, n=n, model=pg.DependenceModel.iid(),
                                law=pg.InnovationLaw.normal())
            u_min, delta = pg.level_cut(spec, 4.0)
            assert delta == 2.0 ** -64 / p
            # a row at u = u_min exceeds 4 iff V < n u_min^2 / 16 = x
            x = n * u_min * u_min / 16.0
            chance = stats.chi2.cdf(x, n - 1)
            # at most delta, and the Chernoff floor within a few decades of it
            assert delta * 1e-4 <= chance <= delta, (n, p, chance / delta)
    spec = _CUT_SPECS[0]
    assert pg.level_cut(spec, 0.0)[0] == -math.inf
    assert pg.level_cut(spec, -1.0)[0] == -math.inf


@pytest.mark.parametrize("c", [1, 2, 5, 10, 20])
def test_gram_cholesky_matches_lapack(c):
    # stacks of c rows shaped as a frame's last c rows (D = 2c columns, row i
    # vanishing beyond column c + i); in the second half every row is within
    # 1% of the first, Gram condition numbers up to ~1e7
    rng = np.random.default_rng(c)
    stack, D = 40, 2 * c
    support = np.arange(D) <= c + np.arange(c)[:, None]
    rows = rng.standard_normal((stack, c, D)) * support
    rows[stack // 2:] = (rows[stack // 2:, :1] + 1e-2 * rows[stack // 2:]) * support
    got = np.moveaxis(pg._gram_cholesky(np.moveaxis(rows, 0, -1)), -1, 0)
    want = np.linalg.cholesky(rows @ rows.swapaxes(-1, -2))
    assert not np.any(np.triu(got, 1))
    err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert err.max() <= 1e-12, err.max()


def test_row_sums_offsets_shift_in_closed_form():
    spec = _strong_spec(40, 12, seed=59)
    shifted = replace(spec, offsets=((1, 0.5), (40, 2.0)))
    s1, s2 = pg.row_sums(spec, [3])
    t1, t2 = pg.row_sums(shifted, [3])
    d = shifted.offset_vector()
    assert np.allclose(t1[0], s1[0] + spec.n * d, rtol=0, atol=1e-12)
    assert np.allclose(t2[0], s2[0] + 2.0 * d * s1[0] + spec.n * d * d,
                       rtol=0, atol=1e-12)


def test_row_sums_refuses_what_it_cannot_draw():
    ma = pg.DependenceModel.moving_average(3)
    cases = [
        pg.PanelSpec(p=10, n=20, model=ma, law=pg.InnovationLaw.rademacher()),
        _strong_spec(10, 4, seed=0),  # n = 2L - 2
    ]
    for spec in cases:
        assert pg.row_sums_unsupported(spec)
        assert not pg.row_sums_preferred(spec)
        with pytest.raises(pg.SpecError):
            pg.row_sums(spec, [0])
    assert pg.row_sums_unsupported(_strong_spec(10, 5, seed=0)) is None
    s1, s2 = pg.row_sums(_strong_spec(10, 5, seed=0), [])
    assert s1.shape == s2.shape == (0, 10)


def test_row_sums_preferred_from_n_minus_L_of_six():
    normal = pg.InnovationLaw.normal()
    iid = pg.DependenceModel.iid()
    assert pg.row_sums_preferred(pg.PanelSpec(p=10, n=2, model=iid, law=normal))
    # L = 3: exact from n = 5, preferred from n = L + 6
    assert pg.row_sums_unsupported(_strong_spec(10, 8, seed=0)) is None
    assert not pg.row_sums_preferred(_strong_spec(10, 8, seed=0))
    assert pg.row_sums_preferred(_strong_spec(10, 9, seed=0))
    # L = 21: preferred as soon as it is exact, at n = 2L - 1
    wide = pg.DependenceModel.gaussian_kdep((0.01,) * 20)
    assert not pg.row_sums_preferred(pg.PanelSpec(p=10, n=40, model=wide, law=normal))
    assert pg.row_sums_preferred(pg.PanelSpec(p=10, n=41, model=wide, law=normal))


def test_row_sums_wide_filter_moments():
    # L = 21: blocks of K = L - 1 = 20 new drivers, worked one frame at a time
    model = pg.DependenceModel.gaussian_kdep(tuple(0.6 * (20 - m) / 20 for m in range(20)))
    spec = pg.PanelSpec(p=200, n=41, model=model, law=pg.InnovationLaw.normal(), seed=61)
    s1, s2 = _sums(spec, 2000)
    z = _moment_z(s1, s2, spec, slice(None), lambda m: np.arange(spec.p - m))
    bad = {k: round(v, 2) for k, v in z.items() if abs(v) > Z_MAX}
    assert not bad, bad


# lag-m correlation 1 - m/10 (m < 10), which moving-average(10) implies too
_TRIANGLE = tuple((10 - m) / 10 for m in range(1, 10))


@pytest.mark.parametrize("model", [
    pg.DependenceModel.gaussian_kdep(_TRIANGLE), pg.DependenceModel.moving_average(10),
], ids=["gaussian-kdep", "moving-average"])
def test_rows_sums_sufficiency_exact_law(model):
    # for W = S2 - S1^2 / n: S1 ~ N(n d, n), W ~ chi2(n - 1) independent of
    # S1, Cov(S1_a, S1_b) = n rho and Cov(W_a, W_b) = 2 (n - 1) rho^2
    n, copies = 12, 40_000
    spec = pg.PanelSpec(p=15, n=n, model=model, law=pg.InnovationLaw.normal(),
                        offsets=((2, 0.3), (3, 0.5), (7, 0.2)), seed=71)
    d = spec.offset_vector()
    cases = [(2,), (2, 3), (7, 2), (2, 12)]  # one row; lags 1, 5 and 10
    assert [model.lag_correlation(abs(b - a)) for a, b in cases[1:]] == [0.9, 0.5, 0.0]
    z = {}
    for k, rows in enumerate(cases):
        method, drawn, s1, s2 = pg.rows_sums(spec, rows, copies, pg.stream(71, k))
        assert method == "sufficiency" and drawn == copies
        assert s1.shape == s2.shape == (len(rows), copies)
        c1 = s1 - n * d[[i - 1 for i in rows], None]
        w = s2 - s1 * s1 / n - (n - 1)
        for a, i in enumerate(rows):
            z[rows, i, "E S1"] = _z(c1[a], 0.0)
            z[rows, i, "Var S1"] = _z(c1[a] ** 2, n)
            z[rows, i, "E W"] = _z(w[a], 0.0)
            z[rows, i, "Var W"] = _z(w[a] ** 2, 2.0 * (n - 1))
            for b, j in enumerate(rows):
                z[rows, (i, j), "Cov(S1, W)"] = _z(c1[a] * w[b], 0.0)
        if len(rows) == 2:
            rho = model.lag_correlation(rows[1] - rows[0])
            z[rows, "Cov S1"] = _z(c1[0] * c1[1], n * rho)
            z[rows, "Cov W"] = _z(w[0] * w[1], 2.0 * (n - 1) * rho * rho)
    bad = {k: round(v, 2) for k, v in z.items() if abs(v) > Z_MAX}
    assert not bad, bad


# ---------------------------------------------------------------------------
# Matched panels and the replicate engine
# ---------------------------------------------------------------------------


def _matched_cells(spec):
    """The cells of both panels :func:`pg.matched_sums` sums on the cells
    path: the generated panel, and the matched independent one rebuilt
    from the same stream."""
    dep = pg.generate(spec).data
    model, law, p, n = spec.model, spec.law, spec.p, spec.n
    rng = pg.stream(spec.seed, spec.replicate)
    d = spec.offset_vector()[:, None]
    if model.kind == "iid":
        return dep, dep
    if law.is_gaussian:  # the panel's own first p drivers
        return dep, rng.standard_normal((p, n)) + d
    # fresh windows drawn after the panel's
    law.sample(rng, (p + model.kappa - 1, n))
    fresh = law.sample(rng, (p, model.kappa, n))
    return dep, fresh.sum(axis=1) / math.sqrt(model.kappa) + d


def _assert_sums_of(sums, cells):
    for (s1, s2), data in zip(sums, cells):
        np.testing.assert_allclose(s1, data.sum(axis=1), rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(s2, np.einsum("ij,ij->i", data, data), rtol=1e-12, atol=0)


def _one_replicate(sums):
    """The (S1, S2) of each arm of a :func:`pg.matched_sums` batch of one."""
    return [(s1[0], s2[0]) for s1, s2 in sums]


_PARETO, _TWO_POINT = pg.InnovationLaw.pareto(4.5), pg.InnovationLaw.two_point(0.3)


@pytest.mark.parametrize("model, law", [
    (pg.DependenceModel.gaussian_kdep((0.4, 0.2)), pg.InnovationLaw.normal()),
    (pg.DependenceModel.moving_average(3), pg.InnovationLaw.rademacher()),
    (pg.DependenceModel.iid(), _PARETO),
    (pg.DependenceModel.moving_average(3), pg.InnovationLaw.normal()),
    (pg.DependenceModel.moving_average(2), _PARETO),
    (pg.DependenceModel.moving_average(4), _TWO_POINT),
    (pg.DependenceModel.iid(), pg.InnovationLaw.normal()),
    (pg.DependenceModel.iid(), _TWO_POINT),
    (pg.DependenceModel.iid(), pg.InnovationLaw.rademacher()),
])
def test_matched_panels_draw_order(model, law, monkeypatch):
    # on the cells path, matched_sums sums the matched panels drawn in the
    # order of _matched_cells: for Gaussian panels the panel's cells and its
    # first p driver rows
    monkeypatch.setattr(pg, "row_sums_preferred", lambda spec: False)
    for n in (2, 7, 30):
        for offsets in ((), ((3, 0.5), (30, 1.25))):
            spec = pg.PanelSpec(p=30, n=n, model=model, law=law, seed=8, replicate=5,
                                offsets=offsets)
            sums = pg.matched_sums(spec, [spec.replicate])
            assert (sums[1] is sums[0]) == (model.kind == "iid")
            _assert_sums_of(_one_replicate(sums), _matched_cells(spec))


@pytest.mark.parametrize("kappa", [0, 1, 2, 3, 5], ids=lambda k: f"kappa{k}" if k else "iid")
def test_rademacher_matched_sums_equal_the_cells(kappa):
    # packed-bit sums, padding bits of a partial last byte included (n = 7, 203)
    model = pg.DependenceModel.moving_average(kappa) if kappa else pg.DependenceModel.iid()
    for n in (2, 7, 8, 30, 203):
        for offsets in ((), ((1, 0.5), (17, 2.25), (40, 0.125))):
            spec = pg.PanelSpec(p=40, n=n, model=model, law=pg.InnovationLaw.rademacher(),
                                seed=71, replicate=n, offsets=offsets)
            _assert_sums_of(_one_replicate(pg.matched_sums(spec, [spec.replicate])),
                            _matched_cells(spec))


_KDEP_ROWS = _strong_spec(40, 30, seed=9, offsets=((2, 0.5), (40, 1.5)))


@pytest.mark.parametrize("spec", [
    _KDEP_ROWS,  # row sums, both arms
    replace(_KDEP_ROWS, n=8),  # the panel from cells, its twin from row sums
    replace(_KDEP_ROWS, model=pg.DependenceModel.moving_average(3)),
    replace(_KDEP_ROWS, model=pg.DependenceModel.iid()),
    replace(_KDEP_ROWS, model=pg.DependenceModel.moving_average(3),
            law=pg.InnovationLaw.rademacher()),
    replace(_KDEP_ROWS, model=pg.DependenceModel.moving_average(2), law=_PARETO),
    replace(_KDEP_ROWS, model=pg.DependenceModel.iid(), law=_TWO_POINT),
], ids=["kdep-rows", "kdep-cells", "ma-normal", "iid-normal", "ma-rademacher",
        "ma-pareto", "iid-two-point"])
def test_matched_sums_do_not_depend_on_the_batch(spec):
    reps = [4, 0, 9]
    batch = pg.matched_sums(spec, reps)
    assert batch[0][0].shape == batch[1][1].shape == (3, spec.p)
    for k, r in enumerate(reps):
        for arms, one in zip(batch, pg.matched_sums(spec, [r])):
            for a, b in zip(arms, one):
                assert a[k].tobytes() == b[0].tobytes()
    # the dependent arm is the panel's own draw
    for a, b in zip(batch[0], pg.panel_sums(spec, reps)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("model", [pg.DependenceModel.gaussian_kdep((0.4, 0.2)),
                                   pg.DependenceModel.moving_average(3)],
                         ids=["gaussian-kdep", "moving-average"])
def test_gaussian_twin_shares_the_driver_means(model):
    # on the row-sums path the twin's row means are the panel's first p a_j
    spec = replace(_KDEP_ROWS, model=model)
    assert pg.row_sums_preferred(spec)
    reps = [3, 1]
    _, (s1, _) = pg.matched_sums(spec, reps)
    d, n = spec.offset_vector(), spec.n
    for k, r in enumerate(reps):
        a = pg.stream(spec.seed, r).standard_normal(spec.p)
        np.testing.assert_allclose(s1[k] / math.sqrt(n) - math.sqrt(n) * d, a,
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("spec", [
    _strong_spec(50, 8, seed=3, offsets=((2, 0.5),)),  # exact, but slower than the cells
    pg.PanelSpec(p=50, n=9, model=pg.DependenceModel.moving_average(2),
                 law=pg.InnovationLaw.rademacher(), seed=3, offsets=((50, 1.5),)),
    pg.PanelSpec(p=50, n=6, model=pg.DependenceModel.iid(), law=_TWO_POINT, seed=3),
], ids=["kdep", "ma-rademacher", "iid-two-point"])
def test_panel_sums_are_the_sums_of_generated_panels(spec):
    assert not pg.row_sums_preferred(spec)
    reps = [4, 0, 9]
    s1, s2 = pg.panel_sums(spec, reps)
    assert s1.shape == s2.shape == (3, spec.p)
    _assert_sums_of(zip(s1, s2), [pg.generate(spec.with_replicate(r)).data for r in reps])
    preferred = _strong_spec(50, 9, seed=3)
    assert pg.row_sums_preferred(preferred)
    for a, b in zip(pg.panel_sums(preferred, reps), pg.row_sums(preferred, reps)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kappa", [0, 1, 2, 3], ids=lambda k: f"kappa{k}" if k else "iid")
def test_copies_sums_from_packed_bits_equal_the_cells(kappa, monkeypatch):
    model = pg.DependenceModel.moving_average(kappa) if kappa else pg.DependenceModel.iid()
    for n in (2, 7, 8, 30):
        spec = pg.PanelSpec(p=20, n=n, model=model, law=pg.InnovationLaw.rademacher(),
                            seed=73, replicate=n, offsets=((1, 0.5), (13, 2.25)))
        packed = pg.copies_sums(spec, 50, np.random.default_rng(n))
        with monkeypatch.context() as patch:
            patch.setattr(pg, "rademacher_sums_supported", lambda spec: False)
            cells = pg.copies_sums(spec, 50, np.random.default_rng(n))
            # one copy of the cells is generate's panel
            one = pg.copies_sums(spec, 1, pg.stream(spec.seed, spec.replicate))
        data = pg.generate(spec).data
        for a, b in zip(packed, cells):
            assert a.shape == (50, 20)
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(one[0][0], data.sum(axis=1), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(one[1][0], (data * data).sum(axis=1), rtol=1e-12)


def test_rademacher_bits_law():
    reps, n = 40_000, 13  # the last byte holds 5 cells and 3 padding bits
    bits = pg.rademacher_bits(np.random.default_rng(2024), (reps, n))
    assert bits.shape == (reps, 2) and bits.dtype == np.uint8
    assert not np.any(bits[:, -1] & 0b111)
    x = pg.InnovationLaw.rademacher().sample(np.random.default_rng(2024), (reps, n))
    assert np.array_equal(x, np.unpackbits(bits, axis=-1, count=n) * 2.0 - 1.0)
    assert set(np.unique(x)) == {-1.0, 1.0}
    # every bit position, the partial byte's too, is a fair coin
    plus = (x > 0).sum(axis=0)
    chi2 = (2 * plus - reps) ** 2 / reps
    assert chi2.max() < 15.14, chi2  # the 0.9999 quantile of chi2(1)
    assert abs(x.mean()) <= 4.0 * _se(x)
    sq = (x - x.mean()) ** 2
    assert abs(sq.mean() - 1.0) <= 4.0 * _se(sq)
    for lag1 in ((x[:, 1:] * x[:, :-1]).ravel(), (x[1:] * x[:-1]).ravel()):
        assert abs(lag1.mean()) <= 4.0 * _se(lag1)


def _span(start, stop):
    return (start, stop)


def _fail_at_six(start, stop):
    if start <= 6 < stop:
        raise pg.SpecError(f"replicate 6 is bad ({start}..{stop - 1})")
    return stop - start


def test_map_replicates_chunks_in_order():
    assert pg.map_replicates(_span, 10, 3) == [(0, 3), (3, 6), (6, 10)]
    assert pg.map_replicates(_span, 10, 1) == [(0, 10)]
    assert pg.map_replicates(_span, 10, 0) == [(0, 10)]
    assert pg.map_replicates(_span, 2, 5) == [(0, 1), (1, 2)]
    assert pg.map_replicates(_span, 0, 2) == []


def test_map_replicates_starts_no_more_workers_than_usable_cpus(monkeypatch):
    # a fake pool records its size and runs the chunks here: no process starts
    import concurrent.futures
    import os

    sizes = []

    class InlinePool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert pg.map_replicates(_span, 5000, 5000) == [(r, r + 1) for r in range(5000)]
    assert pg.map_replicates(_span, 10, 2) == [(0, 5), (5, 10)]
    assert sizes == [3, 2]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert pg.map_replicates(_span, 10, 3) == [(0, 3), (3, 6), (6, 10)]
    assert pg.map_replicates(_span, 60, 60) == [(r, r + 1) for r in range(60)]
    assert sizes[2:] == [3, 4]


def test_every_worker_count_follows_a_one_cpu_affinity(monkeypatch):
    # default jobs, the replicate pool and the match-count threads all count
    # the CPUs this process may use, not the CPUs of the machine
    import concurrent.futures
    import os

    from exceedlab import exceedance as xc

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool started on one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.delenv("EXCEEDLAB_JOBS", raising=False)
    assert ex.default_jobs() == 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    with pytest.raises(AssertionError, match="one usable CPU"):
        pg.map_replicates(_span, 10, 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
    pi, pp = np.linspace(0.1, 0.9, 40), np.linspace(0.9, 0.1, 40)
    got = xc.simulate_count_match(pi, pp, 20_000, np.random.default_rng(5), jobs=4)
    assert got == xc.simulate_count_match(pi, pp, 20_000, np.random.default_rng(5), jobs=1)


def test_map_replicates_runs_in_process_where_the_os_cannot_fork(monkeypatch):
    import concurrent.futures
    import multiprocessing

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool started without fork")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    assert pg.map_replicates(_span, 10, 3) == [(0, 3), (3, 6), (6, 10)]
    assert pg.map_replicates(_span, 2, 5) == [(0, 1), (1, 2)]


def test_map_replicates_reraises_a_worker_error():
    with pytest.raises(pg.SpecError, match=r"replicate 6 is bad \(5\.\.9\)"):
        pg.map_replicates(_fail_at_six, 10, 2)


def test_map_replicates_dead_worker_raises_instead_of_hanging():
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import os\n"
        "from exceedlab import panelgen as pg\n"
        "def die(start, stop):\n"
        "    if start == 0:\n"
        "        os._exit(1)\n"
        "    return stop - start\n"
        "try:\n"
        "    pg.map_replicates(die, 10, 2)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(pg.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert "a replicate worker died; replicates 0..4" in proc.stdout
