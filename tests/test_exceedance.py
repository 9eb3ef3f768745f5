"""Exceedance extraction, block schemes, tail estimators, coupling bound."""

import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from exceedlab import exceedance as xc
from exceedlab import panelgen as pg
from exceedlab import studentize as stu
from exceedlab.numerics import bivariate_normal_tail, phi_bound, student_t_sf


def _normal_spec(p=10, n=100, seed=0, **kw):
    return pg.PanelSpec(
        p=p, n=n, model=pg.DependenceModel.iid(), law=pg.InnovationLaw.normal(),
        seed=seed, **kw,
    )


def _exact_single_tail(s, n):
    # P(R > s) for iid standard normal rows, through the exact t transform:
    # R > s iff t_classical > s * sqrt((n-1)/(n-s^2)).
    return float(student_t_sf(s * math.sqrt((n - 1.0) / (n - s * s)), n - 1))


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def test_extract_basic():
    got = xc.extract(np.array([0.5, 3.1, 0.2]), 3.0)
    assert got.indices.tolist() == [2]
    assert got.width == 3


def test_extract_empty_above_max():
    got = xc.extract(np.array([0.5, 3.1, 0.2]), 5.0)
    assert len(got) == 0


def test_extract_convention_rows():
    values = np.array([math.inf, 1.0, -math.inf, 2.0])
    assert xc.extract(values, 1.5).indices.tolist() == [1, 4]
    # the T = 1 convention row participates exactly when level < 1
    assert xc.extract(values, 0.5).indices.tolist() == [1, 2, 4]
    with pytest.raises(ValueError):
        xc.extract(values, math.inf)


def test_extract_t_r_equivalence():
    rng = np.random.default_rng(31)
    n = 12
    rows = stu.studentize_panel(rng.standard_normal((100_000, n)))
    for t in (0.8, 1.5, 2.2, 3.0):
        on_t = xc.extract(rows.t, t)
        on_r = xc.extract(rows.r, stu.t_level_to_r_level(t, n))
        assert np.array_equal(on_t.indices, on_r.indices)


# ---------------------------------------------------------------------------
# Block schemes and cluster statistics
# ---------------------------------------------------------------------------


def test_block_length_from_level():
    scheme = xc.block_scheme(10_000, 2, s=4.0)
    assert scheme.ell == 55  # ceil(e^4)
    assert scheme.blocks[1][2] - scheme.blocks[1][1] + 1 == 3  # kappa + 1


def test_block_layout_worked_example():
    scheme = xc.block_scheme(120, 2, ell=55)
    assert scheme.blocks == (
        ("large", 1, 55),
        ("small", 56, 58),
        ("large", 59, 113),
        ("small", 114, 116),
        ("fragment", 117, 120),
    )
    assert scheme.m == 2


def test_block_floor_and_small_level():
    # tiny levels floor the large block at kappa + 2
    scheme = xc.block_scheme(100, 5, s=0.5)
    assert scheme.ell == 7
    # enormous levels collapse to a single large block
    scheme = xc.block_scheme(100, 1, s=20.0)
    assert scheme.blocks == (("large", 1, 100),)


def test_cluster_stats_empty():
    scheme = xc.block_scheme(120, 2, ell=55)
    cs = xc.cluster_stats(xc.extract(np.zeros(120), 1.0), scheme)
    assert cs.total == 0 and cs.event_f
    assert cs.large_blocks_hit == 0 and cs.small_block_exceedances == 0


def test_cluster_stats_pair_in_one_block():
    scheme = xc.block_scheme(120, 2, ell=55)
    values = np.zeros(120)
    values[[2, 3]] = 9.0  # indices 3 and 4, both inside the first large block
    cs = xc.cluster_stats(xc.extract(values, 1.0), scheme)
    assert cs.total == 2
    assert cs.large_blocks_hit == 1
    assert cs.large_blocks_multi == 1
    assert not cs.event_f
    assert cs.max_run_length == 2 and cs.min_gap == 1


def test_cluster_stats_small_block_and_fragment():
    scheme = xc.block_scheme(120, 2, ell=55)
    values = np.zeros(120)
    values[56] = 9.0   # index 57: small block
    values[118] = 9.0  # index 119: fragment (length 4 >= kappa+1, not attached)
    cs = xc.cluster_stats(xc.extract(values, 1.0), scheme)
    assert cs.small_block_exceedances == 1
    assert cs.fragment_exceedances == 1
    assert not cs.event_f

    short_frag = xc.block_scheme(59, 2, ell=55)  # fragment 59..59, shorter than 3
    assert short_frag.blocks[-1] == ("fragment", 59, 59)
    values = np.zeros(59)
    values[58] = 9.0
    cs = xc.cluster_stats(xc.extract(values, 1.0), short_frag)
    assert cs.fragment_exceedances == 1
    assert cs.small_block_exceedances == 1  # attached stub
    assert not cs.event_f

    # several hits in a short trailing stub
    scheme = xc.block_scheme(61, 3, ell=55)
    assert scheme.blocks[-1] == ("fragment", 60, 61)
    values = np.zeros(61)
    values[[0, 58, 59, 60]] = 9.0
    cs = xc.cluster_stats(xc.extract(values, 1.0), scheme)
    assert (cs.fragment_exceedances, cs.small_block_exceedances) == (2, 3)
    assert (cs.large_blocks_hit, cs.max_run_length, cs.min_gap) == (1, 3, 1)


def _cluster_stats_by_block(exc, scheme):
    # explicit per-block loop: the oracle of the vectorised cluster_stats
    idx = exc.indices.tolist()
    counts = {"large": [], "small": 0, "fragment": 0}
    attached = 0
    for kind, start, end in scheme.blocks:
        c = sum(start <= i <= end for i in idx)
        if kind == "large":
            counts["large"].append(c)
        else:
            counts[kind] += c
            if kind == "fragment" and end - start + 1 < scheme.kappa + 1:
                attached += c
    gaps = np.diff(idx)
    runs = [1]
    for g in gaps:
        runs.append(runs[-1] + 1 if g == 1 else 1)
    multi = sum(c >= 2 for c in counts["large"])
    return xc.ClusterStats(
        total=len(idx),
        large_blocks_hit=sum(c >= 1 for c in counts["large"]),
        large_blocks_multi=multi,
        small_block_exceedances=counts["small"] + attached,
        fragment_exceedances=counts["fragment"],
        max_run_length=max(runs) if idx else 0,
        min_gap=int(gaps.min()) if len(idx) >= 2 else 0,
        event_f=counts["small"] == 0 and counts["fragment"] == 0 and multi == 0,
    )


@st.composite
def _scheme_and_hits(draw):
    p = draw(st.integers(1, 500))
    kappa = draw(st.integers(0, 6))
    ell = draw(st.integers(kappa + 2, kappa + 40))
    return p, kappa, ell, draw(st.sets(st.integers(1, p)))


@settings(max_examples=200, deadline=None)
@given(_scheme_and_hits())
# no fragment, a one-row stub, partial large blocks of kappa + 1 and 14 rows,
# and a panel shorter than one large block
@example((120, 2, 57, set()))
@example((121, 3, 8, set()))
@example((130, 2, 55, set()))
@example((9, 1, 20, set()))
def test_block_tiling_property(case):
    p, kappa, ell, _ = case
    scheme = xc.block_scheme(p, kappa, ell=ell)
    # the blocks tile [1, p]: large, small, large, ... and at most a last
    # fragment, shorter than the block it stands for
    pos = 1
    for j, (kind, start, end) in enumerate(scheme.blocks):
        assert start == pos and end >= start
        length = ell if j % 2 == 0 else kappa + 1
        if kind == "fragment":
            assert j == len(scheme.blocks) - 1 and end - start + 1 < length
        else:
            assert kind == ("large" if j % 2 == 0 else "small")
            assert end - start + 1 == length
        pos = end + 1
    assert pos == p + 1


@settings(max_examples=200, deadline=None)
@given(_scheme_and_hits())
# no fragment, a one-row stub (attached), partial large blocks of kappa + 1
# and 14 rows (raw), a panel shorter than one large block, and several hits
# in a short trailing stub
@example((120, 2, 57, {57, 58, 60, 61, 120}))
@example((121, 3, 8, {8, 9, 12, 13, 121}))
@example((119, 2, 55, {55, 56, 58, 117, 119}))
@example((130, 2, 55, {1, 2, 114, 116, 117, 130}))
@example((9, 1, 20, {1, 5, 9}))
@example((61, 3, 55, {1, 59, 60, 61}))
def test_cluster_stats_matches_the_block_loop(case):
    p, kappa, ell, hits = case
    scheme = xc.block_scheme(p, kappa, ell=ell)
    values = np.zeros(p)
    values[[i - 1 for i in hits]] = 9.0
    exc = xc.extract(values, 1.0)
    assert xc.cluster_stats(exc, scheme) == _cluster_stats_by_block(exc, scheme)


def test_cluster_counts_consistency_property():
    rng = np.random.default_rng(12)
    scheme = xc.block_scheme(500, 3, ell=20)
    for _ in range(40):
        values = rng.standard_normal(500) * 2.0
        cs = xc.cluster_stats(xc.extract(values, 2.0), scheme)
        assert cs.large_blocks_multi <= cs.large_blocks_hit <= cs.total
        outside = cs.small_block_exceedances + cs.fragment_exceedances
        assert cs.large_blocks_hit + outside <= cs.total + outside


def test_cluster_degeneracy_tracks_phi_shape():
    # P(event F fails) stays under the nominal phi shape (plus MC noise)
    # and both decrease along a level grid.
    rho = (0.1, 0.05)
    spec = pg.PanelSpec(
        p=600, n=150, model=pg.DependenceModel.gaussian_kdep(rho),
        law=pg.InnovationLaw.normal(), seed=77,
    )
    gamma = 1.0 + 0.25 * (1.0 - 0.1)
    reps = 300
    fails_prev = None
    for t in (3.2, 3.6, 4.0):
        s = stu.t_level_to_r_level(t, spec.n)
        scheme = xc.block_scheme(spec.p, 2, s=s)
        fails = 0
        for rep in range(reps):
            panel = pg.generate(spec.with_replicate(rep))
            rows = stu.studentize_panel(panel)
            cs = xc.cluster_stats(xc.extract(rows.r, s), scheme)
            if not cs.event_f:
                fails += 1
        rate = fails / reps
        bound = phi_bound(t, spec.p, gamma).phi_nominal
        se = math.sqrt(max(rate * (1 - rate), 1.0 / reps) / reps)
        assert rate <= bound + 3.0 * se, f"t={t}: {rate} vs {bound}"
        if fails_prev is not None:
            assert fails <= fails_prev + 3
        fails_prev = fails


# ---------------------------------------------------------------------------
# Tail estimators
# ---------------------------------------------------------------------------


def test_single_tail_guard():
    spec = _normal_spec(n=100)
    with pytest.raises(xc.InsufficientReplicates) as err:
        xc.tail_probability_single(spec, 3.5, 1000)
    assert err.value.required > 1000
    xc.tail_probability_single(spec, 3.5, err.value.required)


def test_tail_row_indices_range_checked():
    spec = _normal_spec(p=5, n=20, offsets=((5, 3.0),))
    for i in (0, 6):
        with pytest.raises(pg.SpecError, match=r"\bi = "):
            xc.tail_probability_single(spec, 2.0, 10_000, i=i)
    kdep = pg.PanelSpec(p=5, n=20, model=pg.DependenceModel.gaussian_kdep((0.3,)),
                        law=pg.InnovationLaw.normal())
    for i1, i2, name in ((0, 2, "i1"), (6, 2, "i1"), (1, 0, "i2"), (1, 6, "i2"),
                         (3, 3, "i2")):
        with pytest.raises(pg.SpecError, match=name):
            xc.tail_probability_pair(kdep, i1, i2, 1.0, 10_000)


def test_single_tail_symmetric_level():
    spec = _normal_spec(n=64)
    est = xc.tail_probability_single(spec, 0.0, 40_000)
    assert est.estimate == pytest.approx(0.5, abs=4.0 * est.se + 1e-3)
    assert math.isnan(est.exponent)
    with pytest.raises(ValueError):
        xc.tail_probability_single(spec, -1.0, 40_000)


def test_single_tail_matches_exact_reference():
    n = 400
    spec = _normal_spec(n=n, seed=21)
    est = xc.tail_probability_single(spec, 2.0, 400_000)
    exact = _exact_single_tail(2.0, n)
    assert est.wilson_low <= exact <= est.wilson_high
    assert est.method == "sufficiency"
    assert est.exponent > 1.0  # -log(p)/(s^2/2) approaches 1 from above


def _cells_only(spec, rows, copies, rng):
    """``panelgen.rows_sums`` held to its cell draw, the oracle of the exact-law draw."""
    return ("explicit", *pg._rows_cells_sums(spec, rows, copies, rng))


def test_single_tail_explicit_matches_sufficiency(monkeypatch):
    spec = pg.PanelSpec(
        p=10, n=30, model=pg.DependenceModel.gaussian_kdep((0.5,)),
        law=pg.InnovationLaw.normal(), seed=3,
    )
    fast = xc.tail_probability_single(spec, 1.2, 300_000)
    monkeypatch.setattr(pg, "rows_sums", _cells_only)
    slow = xc.tail_probability_single(spec, 1.2, 300_000)
    assert (fast.method, slow.method) == ("sufficiency", "explicit")
    gap = abs(fast.estimate - slow.estimate)
    assert gap < 4.0 * math.hypot(fast.se, slow.se)


def test_single_tail_offset_raises_probability():
    shifted = _normal_spec(n=100, seed=5, offsets=((1, 0.2),))
    flat = _normal_spec(n=100, seed=5)
    est_d = xc.tail_probability_single(shifted, 2.0, 150_000)
    est_0 = xc.tail_probability_single(flat, 2.0, 150_000)
    assert est_d.estimate > est_0.estimate + 3.0 * math.hypot(est_d.se, est_0.se)


def test_single_tail_non_gaussian_falls_back_to_explicit():
    spec = pg.PanelSpec(
        p=4, n=50, model=pg.DependenceModel.iid(),
        law=pg.InnovationLaw.rademacher(), seed=1,
    )
    est = xc.tail_probability_single(spec, 1.5, 100_000)
    assert est.method == "explicit"


@pytest.mark.parametrize("model, law", [
    (pg.DependenceModel.iid(), pg.InnovationLaw.two_point(0.5)),
    (pg.DependenceModel.moving_average(2), pg.InnovationLaw.rademacher()),
], ids=["two-point", "moving-average-rademacher"])
def test_single_tail_counts_zero_rows_by_the_studentize_convention(model, law):
    # both laws put mass 1/2 on a zero cell and 1/4 on each of +-sqrt(2);
    # at n = 2, R > 0.5 for the zero row (R = 1/sqrt(1.5) by convention),
    # for (0, +c) either way round and for (+c, +c): 1/4 + 1/4 + 1/16
    spec = pg.PanelSpec(p=5, n=2, model=model, law=law, seed=3)
    est = xc.tail_probability_single(spec, 0.5, 200_000, i=4)
    assert abs(est.estimate - 0.5625) < 4.0 * est.se


def test_explicit_chunks_stay_within_the_cell_budget(monkeypatch):
    spec = pg.PanelSpec(p=30, n=100, model=pg.DependenceModel.moving_average(3),
                        law=pg.InnovationLaw.pareto(4.5), seed=43)
    draws = []
    copies_sums = pg.copies_sums

    def spy(sub, copies, rng):
        draws.append((sub.p, copies, copies * (sub.p + 2) * sub.n))  # L - 1 = 2 rows
        return copies_sums(sub, copies, rng)

    monkeypatch.setattr(pg, "copies_sums", spy)
    reps = 30_000
    # a near pair is drawn as one panel of rows 2..3, a far one as two
    # independent one-row panels
    for i2, rows, panels in ((3, 2, 1), (20, 1, 2)):
        draws.clear()
        est = xc.tail_probability_pair(spec, 2, i2, 1.0, reps)
        assert est.method == "explicit" and est.hits > 0
        assert {p for p, _, _ in draws} == {rows}
        assert len(draws) > 2 * panels  # the budget split the run into chunks
        assert sum(c for _, c, _ in draws) == reps * panels
        assert max(cells for _, _, cells in draws) <= 1 << 22


def test_pair_tail_independent_quadrant():
    spec = _normal_spec(p=50, n=64, seed=13)
    est = xc.tail_probability_pair(spec, 1, 30, 0.0, 60_000)
    assert est.estimate == pytest.approx(0.25, abs=4.0 * est.se + 1e-3)


def test_pair_tail_clt_limit():
    spec = pg.PanelSpec(
        p=10, n=2000, model=pg.DependenceModel.gaussian_kdep((0.5,)),
        law=pg.InnovationLaw.normal(), seed=29,
    )
    est = xc.tail_probability_pair(spec, 1, 2, 2.5, 500_000)
    want = bivariate_normal_tail(2.5, 0.5)
    assert abs(est.estimate - want) < 3.0 * est.se + 0.02 * want


def test_pair_tail_beyond_range_factorizes():
    spec = pg.PanelSpec(
        p=10, n=200, model=pg.DependenceModel.gaussian_kdep((0.4,)),
        law=pg.InnovationLaw.normal(), seed=31,
    )
    pair = xc.tail_probability_pair(spec, 1, 5, 1.8, 400_000)
    single = xc.tail_probability_single(spec, 1.8, 400_000)
    prod = single.estimate**2
    se_prod = 2.0 * single.estimate * single.se
    assert abs(pair.estimate - prod) < 3.0 * math.hypot(pair.se, se_prod)
    assert pair.rho_lag == 0.0


def test_pair_tail_explicit_matches_sufficiency(monkeypatch):
    spec = pg.PanelSpec(
        p=10, n=24, model=pg.DependenceModel.moving_average(3),
        law=pg.InnovationLaw.normal(), seed=37,
    )
    fast = xc.tail_probability_pair(spec, 1, 2, 1.1, 250_000)
    monkeypatch.setattr(pg, "rows_sums", _cells_only)
    slow = xc.tail_probability_pair(spec, 1, 2, 1.1, 250_000)
    assert (fast.method, slow.method) == ("sufficiency", "explicit")
    assert abs(fast.estimate - slow.estimate) < 4.0 * math.hypot(fast.se, slow.se)


def test_gaussian_pair_at_n_2_is_drawn_from_the_cells():
    # the exact law of a pair's sums needs n >= 3; a single row's n >= 2.
    # Rows beyond the lag range are drawn one at a time, still from cells,
    # and their joint tail is the square of the single one.
    spec = pg.PanelSpec(p=10, n=2, model=pg.DependenceModel.moving_average(2),
                        law=pg.InnovationLaw.normal(), seed=47)
    near = xc.tail_probability_pair(spec, 2, 3, 0.8, 100_000)
    far = xc.tail_probability_pair(spec, 2, 6, 0.8, 100_000)
    single = xc.tail_probability_single(spec, 0.8, 100_000)
    assert (near.method, far.method, single.method) == ("explicit", "explicit",
                                                        "sufficiency")
    assert far.rho_lag == 0.0 and near.estimate > far.estimate
    se_prod = 2.0 * single.estimate * single.se
    assert abs(far.estimate - single.estimate ** 2) < 4.0 * math.hypot(far.se, se_prod)


def test_pair_exponent_exceeds_single_exponent():
    spec = pg.PanelSpec(
        p=10, n=400, model=pg.DependenceModel.gaussian_kdep((0.1,)),
        law=pg.InnovationLaw.normal(), seed=41,
    )
    pair = xc.tail_probability_pair(spec, 1, 2, 2.2, 2_000_000)
    single = xc.tail_probability_single(spec, 2.2, 2_000_000)
    assert pair.exponent > single.exponent


@pytest.mark.parametrize("draw", [
    pytest.param(lambda spec: xc.tail_probability_single(spec, 1.5, 20_000),
                 id="tail_probability_single"),
    pytest.param(lambda spec: xc.tail_probability_pair(spec, 1, 2, 0.5, 20_000),
                 id="tail_probability_pair"),
    pytest.param(lambda spec: pg.row_sums(spec, [0]), id="row_sums"),
    pytest.param(lambda spec: pg.copies_sums(spec, 1, pg.stream(0)), id="copies_sums"),
    pytest.param(pg.generate, id="generate"),
    pytest.param(lambda spec: xc.coupling_estimate(spec, xc.block_scheme(3, 0, ell=2),
                                                   1.5, 100, se_cap=0.05),
                 id="coupling_estimate"),
])
def test_per_row_sizes_are_refused_by_every_draw(draw):
    # every row is studentized at the full n; per-row sizes would be
    # silently ignored
    with pytest.raises(pg.SpecError, match=r"^\[panel\] sizes"):
        draw(_normal_spec(p=3, n=40, sizes=(5, 5, 5)))


# ---------------------------------------------------------------------------
# Coupling
# ---------------------------------------------------------------------------


def test_count_match_bound_identical_vectors():
    pi = np.array([0.3, 0.7, 0.05])
    assert xc.count_match_lower_bound(pi, pi) == 1.0
    rng = np.random.default_rng(0)
    freq, se = xc.simulate_count_match(pi, pi, 20_000, rng)
    assert freq == 1.0 and se == 0.0


def test_count_match_worked_example():
    pi = np.array([0.1, 0.2])
    pp = np.array([0.15, 0.2])
    bound = xc.count_match_lower_bound(pi, pp)
    assert bound == pytest.approx(0.95, abs=1e-15)
    rng = np.random.default_rng(123)
    freq, se = xc.simulate_count_match(pi, pp, 200_000, rng)
    # the shared-uniform construction achieves exactly 0.95 here
    assert freq >= bound - 3.0 * se
    assert freq == pytest.approx(0.95, abs=4.0 * se)


def test_count_match_bound_validity_random_vectors():
    rng = np.random.default_rng(99)
    for _ in range(10):
        m = int(rng.integers(1, 40))
        pi = rng.random(m)
        pp = np.clip(pi + rng.uniform(-0.05, 0.05, m), 0.0, 1.0)
        bound = xc.count_match_lower_bound(pi, pp)
        freq, se = xc.simulate_count_match(pi, pp, 30_000, rng)
        assert freq >= bound - 3.0 * se


def test_count_match_input_validation():
    def simulate(pi, pp):
        return xc.simulate_count_match(pi, pp, 100, np.random.default_rng(0))

    for call in (xc.count_match_lower_bound, xc.count_match_probability, simulate):
        with pytest.raises(ValueError, match="equal-length"):
            call([0.5], [0.5, 0.6])
        # NaN fails both v < 0 and v > 1, so it must be refused on its own
        for bad in (math.nan, math.inf, 1.5):
            for name in ("pi", "pi_prime"):
                vectors = {"pi": [0.5, 0.2], "pi_prime": [0.5, 0.2]}
                vectors[name] = [0.5, bad]
                with pytest.raises(ValueError, match=rf"^{name} entries"):
                    call(vectors["pi"], vectors["pi_prime"])
    with pytest.raises(ValueError):
        xc.simulate_count_match([0.5], [0.5], 0, np.random.default_rng(0))


def _count_match_by_enumeration(pi, pp) -> float:
    # one shared uniform per block falls below both probabilities, between
    # them (only the larger side hits) or above both: 3^m outcomes
    total = 0.0
    for outcome in itertools.product(range(3), repeat=len(pi)):
        prob, n_dep, n_ind = 1.0, 0, 0
        for k, a, b in zip(outcome, pi, pp):
            lo, hi = min(a, b), max(a, b)
            prob *= (lo, hi - lo, 1.0 - hi)[k]
            n_dep += k == 0 or (k == 1 and a > b)
            n_ind += k == 0 or (k == 1 and b > a)
        total += prob if n_dep == n_ind else 0.0
    return total


@pytest.mark.parametrize("m", range(1, 7))
def test_count_match_probability_equals_the_enumerated_construction(m):
    rng = np.random.default_rng(40 + m)
    for _ in range(3):
        pi = rng.random(m)
        pp = np.where(rng.random(m) < 0.3, pi, rng.random(m))  # some blocks tie
        pp[rng.random(m) < 0.2] = rng.choice([0.0, 1.0])
        assert xc.count_match_probability(pi, pp) == pytest.approx(
            _count_match_by_enumeration(pi, pp), abs=1e-13)


@pytest.mark.parametrize("pi, pp", [
    ([0.1, 0.2], [0.15, 0.2]),
    ([0.3, 0.7, 0.05, 0.5], [0.4, 0.6, 0.05, 0.9]),
    (np.linspace(0.05, 0.95, 12), np.linspace(0.95, 0.05, 12)),
], ids=["worked", "four", "reversed"])
def test_shared_uniform_oracle_lands_on_the_exact_law(pi, pp):
    draws = 20_000
    exact = xc.count_match_probability(pi, pp)
    freq = xc._shared_uniform_matches(pi, pp, draws, np.random.default_rng(8)) / draws
    assert freq == pytest.approx(exact, abs=4.0 * math.sqrt(exact * (1.0 - exact) / draws))


@pytest.mark.parametrize("m, draws", [(0, 5), (1, 1), (2, 70_001), (7, 40_000), (300, 999)])
def test_simulate_count_match_counts_what_the_oracle_counts_at_every_jobs(m, draws, monkeypatch):
    # same uniforms, same matches, and rng left where the oracle leaves it,
    # with a buffered 32-bit half-draw (from integers) kept across the call;
    # four usable CPUs, so that jobs = 3 runs three threads on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    rng = np.random.default_rng(60 + m)
    pi = rng.random(m)
    pp = np.where(rng.random(m) < 0.3, pi, np.clip(pi + rng.uniform(-0.1, 0.1, m), 0.0, 1.0))
    pp[: m // 4] = (pi[: m // 4] < 0.5).astype(float)  # pi' at 0 and 1 too

    def after(call):
        gen = np.random.default_rng(61)
        gen.integers(1, 101)
        out = call(gen)
        return out, gen.integers(1, 101, 4).tolist(), gen.random()

    want, *state = after(lambda gen: xc._shared_uniform_matches(pi, pp, draws, gen))
    se = math.sqrt(want / draws * (1.0 - want / draws) / draws)
    for jobs in (1, 2, 3):
        got = after(lambda gen: xc.simulate_count_match(pi, pp, draws, gen, jobs=jobs))
        assert got == ((want / draws, se), *state), jobs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=40))
def test_count_match_probability_meets_the_coupling_bound(pairs):
    pi, pp = (np.array(v) for v in zip(*pairs))
    exact = xc.count_match_probability(pi, pp)
    assert 0.0 <= exact <= 1.0
    assert exact >= xc.count_match_lower_bound(pi, pp) - 1e-12
    assert xc.count_match_probability(pi, pi) == 1.0


def test_coupling_estimate_guard():
    spec = pg.PanelSpec(
        p=60, n=30, model=pg.DependenceModel.gaussian_kdep((0.2,)),
        law=pg.InnovationLaw.normal(), seed=7,
    )
    scheme = xc.block_scheme(60, 1, ell=10)
    with pytest.raises(xc.InsufficientReplicates) as err:
        xc.coupling_estimate(spec, scheme, 1.5, 100, se_cap=0.02)
    assert err.value.required == 625


def test_coupling_estimate_end_to_end():
    spec = pg.PanelSpec(
        p=120, n=40, model=pg.DependenceModel.gaussian_kdep((0.3, 0.1)),
        law=pg.InnovationLaw.normal(), seed=17,
    )
    scheme = xc.block_scheme(120, 2, s=1.9)
    est = xc.coupling_estimate(spec, scheme, 1.9, 800, se_cap=0.02,
                               match_draws=40_000)
    assert est.pi.shape == est.pi_prime.shape == (scheme.m,)
    assert np.all((est.pi >= 0) & (est.pi <= 1))
    assert est.lower_bound <= 1.0
    slack = 3.0 * (est.realized_se + float(np.max(est.se_pi + est.se_pi_prime)))
    assert est.realized_match >= est.lower_bound - slack
    payload = est.to_json_dict()
    assert payload["m"] == scheme.m and len(payload["pi"]) == scheme.m


def test_coupling_bound_tightens_with_level():
    spec = pg.PanelSpec(
        p=200, n=60, model=pg.DependenceModel.gaussian_kdep((0.3,)),
        law=pg.InnovationLaw.normal(), seed=23,
    )
    bounds = []
    for s in (1.6, 2.4, 3.2):
        scheme = xc.block_scheme(200, 1, s=s)
        est = xc.coupling_estimate(spec, scheme, s, 1000, se_cap=0.02,
                                   match_draws=20_000)
        bounds.append(est.lower_bound)
    assert bounds[-1] > bounds[0]
    assert bounds[-1] > 0.95


@pytest.mark.parametrize("model, law", [
    (pg.DependenceModel.gaussian_kdep((0.3, 0.1)), pg.InnovationLaw.normal()),
    (pg.DependenceModel.moving_average(3), pg.InnovationLaw.rademacher()),
])
def test_coupling_estimate_is_the_same_at_every_jobs(model, law):
    spec = pg.PanelSpec(p=120, n=30, model=model, law=law, seed=29,
                        offsets=((5, 0.8),))
    scheme = xc.block_scheme(120, model.kappa, s=1.8)
    serial = xc.coupling_estimate(spec, scheme, 1.8, 101, se_cap=0.05,
                                  match_draws=5000)
    for jobs in (2, 3):
        est = xc.coupling_estimate(spec, scheme, 1.8, 101, se_cap=0.05,
                                   match_draws=5000, jobs=jobs)
        for name, value in vars(serial).items():
            assert np.array_equal(getattr(est, name), value), name


@pytest.mark.parametrize("model", [pg.DependenceModel.iid(), pg.DependenceModel.moving_average(3)],
                         ids=["iid", "moving-average"])
def test_coupling_from_packed_sums_equals_the_cells(model, monkeypatch):
    spec = pg.PanelSpec(p=120, n=30, model=model, law=pg.InnovationLaw.rademacher(),
                        seed=31, offsets=((5, 0.8), (60, 0.3)))
    scheme = xc.block_scheme(120, model.kappa, s=1.8)
    packed = xc.coupling_estimate(spec, scheme, 1.8, 101, se_cap=0.05, match_draws=5000)
    monkeypatch.setattr(pg, "rademacher_sums_supported", lambda spec: False)
    cells = xc.coupling_estimate(spec, scheme, 1.8, 101, se_cap=0.05, match_draws=5000)
    assert 0.0 < packed.pi.sum() and 0.0 < packed.pi_prime.sum()
    for name, value in vars(cells).items():
        assert np.array_equal(getattr(packed, name), value), name


def test_coupling_iid_panels_match_perfectly():
    spec = _normal_spec(p=80, n=30, seed=3)
    scheme = xc.block_scheme(80, 0, ell=10)
    est = xc.coupling_estimate(spec, scheme, 1.5, 700, match_draws=10_000)
    assert np.array_equal(est.pi, est.pi_prime)
    assert est.lower_bound == 1.0 and est.realized_match == 1.0


def test_wilson_interval():
    lo, hi = xc.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert 0.0 <= lo and hi <= 1.0
    lo, hi = xc.wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0.0
    with pytest.raises(ValueError):
        xc.wilson_interval(1, 0)
