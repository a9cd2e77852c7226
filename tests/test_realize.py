import itertools
import warnings

import numpy as np
import pytest

from alpvreal import (
    DEFAULT_TOL,
    ALPVSystem,
    AnalysisReport,
    DimensionMismatch,
    HankelBlockMatrix,
    IOOracle,
    NonFiniteEntry,
    NotIsomorphic,
    ShapeMismatch,
    analyze,
    build_hankel,
    extended_observability,
    extended_reachability,
    factored_hankel_rank,
    find_isomorphism,
    hankel_rank,
    hankel_singular_values,
    isomorphism_residual,
    kalman_ho,
    markov_block,
    markov_table,
    minimize,
    numerical_rank,
    obs_reduce,
    reach_reduce,
    simulate,
    system_oracle,
    word_count,
    words_up_to,
)
from alpvreal import fileio, realize
from alpvreal.linalg import singular_values

from helpers import (
    dense_kalman_ho,
    observability_factor,
    pad_unobservable,
    pad_unreachable,
    random_minimal_system,
    random_run,
    reachability_factor,
    transform_system,
)


def markov_match(sys1, sys2, max_len, atol):
    assert sys1.D == sys2.D
    for v in words_up_to(max_len, sys1.D):
        if not np.allclose(markov_block(sys1, v), markov_block(sys2, v), atol=atol):
            return False
    return True


def io_match(sys1, sys2, rng, samples, max_len, atol):
    for _ in range(samples):
        w = random_run(rng, sys1.D, sys1.m, int(rng.integers(1, max_len + 1)))
        y1 = simulate(sys1, np.zeros(sys1.n), w).final_output
        y2 = simulate(sys2, np.zeros(sys2.n), w).final_output
        if not np.allclose(y1, y2, atol=atol):
            return False
    return True


def test_extended_matrices_fixture_values(sigma_star, sigma2):
    assert np.allclose(extended_reachability(sigma_star, 0), [[1.0, 3.0]])
    assert np.allclose(extended_observability(sigma_star, 0), [[1.0], [2.0]])
    assert np.allclose(extended_observability(sigma2, 0), np.eye(2))
    R1 = extended_reachability(sigma2, 1)
    assert R1.shape == (2, 2 * 3)  # mD * (D+1)^1
    assert numerical_rank(R1) == 2


def test_extended_matrices_zero_families(sigma2):
    no_input = ALPVSystem(A=sigma2.A, B=[np.zeros((2, 1))] * 2, C=sigma2.C)
    assert np.allclose(extended_reachability(no_input, 3), 0.0)
    no_output = ALPVSystem(A=sigma2.A, B=sigma2.B, C=[np.zeros((1, 2))] * 2)
    assert np.allclose(extended_observability(no_output, 3), 0.0)


def test_extended_matrix_growth(sigma2):
    for depth in range(3):
        assert extended_reachability(sigma2, depth).shape == (2, 2 * 3 ** depth)
        assert extended_observability(sigma2, depth).shape == (2 * 3 ** depth, 2)


def test_analyze_fixture(sigma_star):
    report = analyze(sigma_star)
    assert (report.reach_rank, report.obs_rank) == (1, 1)
    assert report.minimal and report.reachable and report.observable


def test_analyze_planted_defects(sigma_star):
    rng = np.random.default_rng(21)
    padded = pad_unobservable(sigma_star, 1, rng)
    report = analyze(padded)
    assert report.obs_rank == 1 and report.n == 2
    assert not report.observable and not report.minimal

    padded = pad_unreachable(sigma_star, 1, rng)
    report = analyze(padded)
    assert report.reach_rank == 1 and report.n == 2
    assert not report.reachable and not report.minimal


def test_analyze_zero_dimensional():
    for D, m, p in itertools.product((1, 2, 3), (1, 2), (1, 2)):
        sys = ALPVSystem(A=np.zeros((D, 0, 0)), B=np.zeros((D, 0, m)), C=np.zeros((D, p, 0)))
        report = analyze(sys)
        assert report.minimal and report.n == 0
        assert report == AnalysisReport(0, 0, 0, True, True, True)
        for reduce in (reach_reduce, obs_reduce):
            reduced, basis = reduce(sys)
            assert reduced.dims == sys.dims and basis.shape == (0, 0)
        assert minimize(sys).dims == sys.dims
        assert find_isomorphism(sys, sys).shape == (0, 0)
        assert hankel_rank(sys, 1, 2) == 0
        assert hankel_singular_values(sys, 1, 2).shape == (0,)


def test_find_isomorphism_rejects_a_singular_transformation():
    # the second state is neither reachable nor observable, so the T that
    # satisfies every relation does not map it anywhere
    s = ALPVSystem(A=[[[0.5, 0.0], [0.0, 0.3]]], B=[[[1.0], [0.0]]], C=[[[1.0, 0.0]]])
    with pytest.raises(NotIsomorphic, match="singular"):
        find_isomorphism(s, s)


def test_kalman_ho_rejects_wrong_column_bound(sigma_star):
    with pytest.raises(ShapeMismatch):
        kalman_ho(build_hankel(sigma_star, 1, 1))


def test_kalman_ho_zero_hankel():
    sys = ALPVSystem(
        A=[np.eye(2), np.eye(2)],
        B=[np.zeros((2, 1))] * 2,
        C=[np.zeros((1, 2))] * 2,
    )
    recovered = kalman_ho(build_hankel(sys, 1, 2))
    assert recovered.n == 0
    assert recovered.dims == (2, 0, 1, 1)
    assert analyze(recovered).minimal


def test_kalman_ho_roundtrip_fixtures(sigma_star, sigma2):
    rec = kalman_ho(build_hankel(sigma_star, 0, 1))
    assert rec.n == 1
    assert markov_match(sigma_star, rec, 2, 1e-9)

    rec2 = kalman_ho(build_hankel(sigma2, 1, 2))
    assert rec2.n == 2
    assert markov_match(sigma2, rec2, 4, 1e-9)


def test_kalman_ho_output_is_minimal(minimal_population):
    for sys in minimal_population[:10]:
        rec = kalman_ho(build_hankel(sys, sys.n - 1, sys.n))
        assert rec.n == sys.n
        report = analyze(rec)
        assert report.reachable and report.observable


def test_reach_reduce_planted(sigma_star):
    rng = np.random.default_rng(31)
    padded = pad_unreachable(sigma_star, 1, rng)
    reduced, V = reach_reduce(padded)
    assert reduced.n == 1
    assert V.shape == (2, 1)
    assert np.allclose(V.T @ V, np.eye(1))
    assert markov_match(padded, reduced, 2 * padded.n, 1e-9)


def test_obs_reduce_planted(sigma_star):
    rng = np.random.default_rng(32)
    padded = pad_unobservable(sigma_star, 1, rng)
    reduced, W = obs_reduce(padded)
    assert reduced.n == 1
    assert W.shape == (1, 2)
    assert markov_match(padded, reduced, 2 * padded.n, 1e-9)


def test_reduce_idempotent_on_clean_systems(minimal_population):
    for sys in minimal_population[:5]:
        assert reach_reduce(sys)[0].n == sys.n
        assert obs_reduce(sys)[0].n == sys.n


def test_reduce_zero_families():
    dead = ALPVSystem(A=[np.eye(3)], B=[np.zeros((3, 1))], C=[np.ones((1, 3))])
    assert reach_reduce(dead)[0].n == 0
    deaf = ALPVSystem(A=[np.eye(3)], B=[np.ones((3, 1))], C=[np.zeros((1, 3))])
    assert obs_reduce(deaf)[0].n == 0


def test_reduction_soundness_random(minimal_population):
    rng = np.random.default_rng(33)
    for sys in minimal_population[:4]:
        padded = pad_unobservable(pad_unreachable(sys, 1, rng), 1, rng)
        n = padded.n
        reduced, _ = reach_reduce(padded)
        r = reduced.n
        assert numerical_rank(extended_reachability(reduced, max(r - 1, 0))) == r
        assert io_match(padded, reduced, rng, 50, 2 * n + 1, 1e-8)
        reduced2, _ = obs_reduce(reduced)
        r2 = reduced2.n
        assert numerical_rank(extended_observability(reduced2, max(r2 - 1, 0))) == r2
        assert io_match(padded, reduced2, rng, 50, 2 * n + 1, 1e-8)


def test_minimize_fixture_paddings(sigma_star, sigma2):
    rng = np.random.default_rng(34)
    padded = pad_unobservable(pad_unreachable(sigma_star, 1, rng), 1, rng)
    small = minimize(padded)
    assert small.n == 1
    assert small.n == hankel_rank(padded, padded.n - 1, padded.n - 1)
    assert analyze(small).minimal
    assert io_match(padded, small, rng, 200, 2 * padded.n + 1, 1e-8)

    padded2 = pad_unreachable(sigma2, 1, rng)
    small2 = minimize(padded2)
    assert small2.n == 2
    assert small2.n == hankel_rank(padded2, padded2.n - 1, padded2.n - 1)


def test_minimize_preserves_minimal_systems(sigma_star):
    out = minimize(sigma_star)
    assert out.n == 1
    T = find_isomorphism(sigma_star, out)
    assert isomorphism_residual(sigma_star, out, T) < 1e-10


def test_minimize_zero_system():
    dead = ALPVSystem(
        A=[np.eye(3), 0.5 * np.eye(3)],
        B=[np.zeros((3, 1))] * 2,
        C=[np.zeros((1, 3))] * 2,
    )
    assert minimize(dead).n == 0


def test_minimize_dimension_matches_hankel_rank(minimal_population):
    rng = np.random.default_rng(35)
    for sys in minimal_population[:6]:
        padded = pad_unreachable(sys, 1, rng)
        assert minimize(padded).n == factored_hankel_rank(
            padded, padded.n - 1, padded.n - 1
        )


def test_reduction_order_does_not_change_dimension(minimal_population):
    rng = np.random.default_rng(36)
    for sys in minimal_population[:5]:
        padded = pad_unobservable(pad_unreachable(sys, 1, rng), 1, rng)
        forward = minimize(padded)
        swapped = reach_reduce(obs_reduce(padded)[0])[0]
        assert forward.n == swapped.n


def test_find_isomorphism_scaled_fixture(sigma_star):
    scaled = ALPVSystem(
        A=sigma_star.A,
        B=[2.0 * Bq for Bq in sigma_star.B],
        C=[0.5 * Cq for Cq in sigma_star.C],
    )
    T = find_isomorphism(sigma_star, scaled)
    assert np.allclose(T, [[2.0]], atol=1e-12)


def test_find_isomorphism_identity(sigma_star):
    assert np.allclose(find_isomorphism(sigma_star, sigma_star), np.eye(1))


def test_find_isomorphism_dimension_mismatch(sigma_star, sigma2):
    with pytest.raises(DimensionMismatch):
        find_isomorphism(sigma_star, sigma2)


def test_isomorphism_residual_rejects_families_of_different_sizes(sigma1, sigma_star):
    # unchecked, the stacked relations of D = 1 against D = 2 would broadcast to a number,
    # and a T of the wrong size would fail inside matmul
    cases = (
        (sigma1, sigma_star, np.eye(1), "different dimensions"),
        (sigma_star, sigma1, np.eye(1), "different dimensions"),
        (sigma1, sigma1, np.eye(2), r"^T must be 1 x 1 for state dimension n=1, got \(2, 2\)$"),
    )
    for sys1, sys2, T, match in cases:
        with pytest.raises(DimensionMismatch, match=match):
            isomorphism_residual(sys1, sys2, T)


def test_isomorphism_residual_of_a_huge_or_non_finite_T():
    sys = ALPVSystem(A=[[[0.5]]], B=[[[1.0]]], C=[[[1.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert isomorphism_residual(sys, sys, [[2.0]]) == 0.25
        # B = T B fails by about 1 whether or not the norms of T B would overflow
        for T in (1e100, 1e200):
            assert isomorphism_residual(sys, sys, [[T]]) == pytest.approx(1.0)
        # T = 1e200 maps (0.5, 1e-200, 1e200) onto (0.5, 1, 1) exactly
        scaled = ALPVSystem(A=[[[0.5]]], B=[[[1e-200]]], C=[[[1e200]]])
        assert isomorphism_residual(scaled, sys, [[1e200]]) == 0.0
        for T in (np.nan, np.inf):
            with pytest.raises(NonFiniteEntry, match="NaN or Inf"):
                isomorphism_residual(sys, sys, [[T]])
        fast = ALPVSystem(A=[[[1e200]]], B=[[[1.0]]], C=[[[1.0]]])
        with pytest.raises(NonFiniteEntry, match="relation overflows"):
            isomorphism_residual(fast, fast, [[1e200]])
        big = ALPVSystem(A=[[[0.5]]], B=[[[1e200]]], C=[[[1e-200]]])
        assert np.allclose(find_isomorphism(big, big), [[1.0]], rtol=1e-12, atol=0)


def test_find_isomorphism_rejects_nonequivalent(sigma_star):
    other = ALPVSystem(A=sigma_star.A, B=[[[1.0]], [[4.0]]], C=sigma_star.C)
    with pytest.raises(NotIsomorphic):
        find_isomorphism(sigma_star, other)


def test_find_isomorphism_random_transforms(minimal_population):
    rng = np.random.default_rng(37)
    for sys in minimal_population[:8]:
        n = sys.n
        T_true = rng.uniform(-1, 1, (n, n)) + 2.0 * np.eye(n)
        other = transform_system(sys, T_true)
        T = find_isomorphism(sys, other)
        assert np.allclose(T, T_true, atol=1e-7 * (1 + np.abs(T_true).max()))


def markov_deviation(sys1, sys2, depth):
    """Largest |M1(v) - M2(v)| and largest |M1(v)| over all words with |v| <= 2 depth.

    Both are read off H_{depth,depth} = O R of the difference system, a
    block of rows at a time.
    """
    O = np.hstack([observability_factor(sys1, depth), -observability_factor(sys2, depth)])
    R = np.vstack([reachability_factor(sys1, depth), reachability_factor(sys2, depth)])
    n1, dev, top = sys1.n, 0.0, 0.0
    for i in range(0, len(O), 512):
        dev = max(dev, float(np.abs(O[i : i + 512] @ R).max()))
        top = max(top, float(np.abs(O[i : i + 512, :n1] @ R[:n1]).max()))
    return dev, top


@pytest.mark.parametrize("n, m, seed, stored", [(5, 1, 51, True), (6, 1, 61, False), (4, 2, 42, True)])
def test_given_windows_are_realized_through_the_search(monkeypatch, tmp_path, n, m, seed, stored):
    """A window given as data, or loaded from a CSV file, is searched and never factored whole.

    The 1092 x 3279 window of n = 6 is not stored: its CSV round trip alone takes seconds.
    """
    sys = random_minimal_system(np.random.default_rng(seed), n=n, D=3, m=m, p=m)
    H = build_hankel(sys, n - 1, n)
    windows = [HankelBlockMatrix(L=n - 1, M=n, D=3, m=m, p=m, data=H.data.copy())]
    if stored:
        fileio.save_hankel(tmp_path / "H.csv", H)
        windows.append(fileio.load_hankel(tmp_path / "H.csv"))

    def whole_refused(decompose):
        def call(M, *args, **kwargs):
            if np.shape(M) == H.shape:
                raise AssertionError("the window was factored whole")
            return decompose(M, *args, **kwargs)
        return call

    for name in ("rank_factorize", "numerical_rank", "pseudoinverse"):
        monkeypatch.setattr(realize, name, whole_refused(getattr(realize, name)))
    for realized in map(kalman_ho, windows):
        assert realized.n == n
        dev, top = markov_deviation(sys, realized, n)
        assert dev <= 1e-8 * max(1.0, top)
        T = find_isomorphism(sys, realized)
        assert isomorphism_residual(sys, realized, T) < 1e-7


@pytest.mark.parametrize("factor", [1e-3, 1e-1, 1e3])
def test_given_windows_with_noise_off_the_cutoff_keep_the_dense_order(factor):
    """Table windows plus Gaussian noise whose norm is `factor` times the window's cutoff.

    The searched order equals `numerical_rank` of the noisy window at the
    plateau, L = n - 1.  Within about a decade of the cutoff
    the two can differ either way, since the search ranks its own columns
    (for noise of 0.5 to 10 times the cutoff they differed on 80 of 320
    such windows), so those factors are not asserted.
    """
    for seed in range(8):
        rng = np.random.default_rng(7000 + seed)
        D, n, m, p = (int(rng.integers(1, hi)) for hi in (4, 5, 3, 3))
        sys = random_minimal_system(rng, n=n, D=D, m=m, p=p)
        H = build_hankel(markov_table(sys, 2 * n + 1), n - 1, n).data
        G = rng.standard_normal(H.shape)
        G *= factor * DEFAULT_TOL.cutoff(singular_values(H), H.shape) / singular_values(G)[0]
        noisy = HankelBlockMatrix(L=n - 1, M=n, D=D, m=m, p=p, data=H + G)
        assert kalman_ho(noisy).n == numerical_rank(noisy.data)


@pytest.mark.parametrize(
    "n, D, m, p, pad, seed",
    [(6, 3, 1, 1, 0, 61), (5, 3, 1, 1, 0, 51), (4, 3, 2, 2, 0, 42), (4, 3, 2, 2, 2, 42),
     (5, 2, 1, 2, 3, 52), (3, 1, 2, 1, 1, 31)],
)
def test_system_windows_are_realized_from_their_factors(monkeypatch, n, D, m, p, pad, seed):
    """`kalman_ho(build_hankel(system))` never searches or decomposes the window.

    Its order is the rank of the window under the window's own cutoff: the
    dense values-only rank, computed before the column search and the
    full-window factorization are made to refuse.
    """
    rng = np.random.default_rng(seed)
    core = random_minimal_system(rng, n=n, D=D, m=m, p=p)
    sys = pad_unobservable(pad_unreachable(core, pad - pad // 2, rng), pad // 2, rng)
    H = build_hankel(sys, n - 1, n)
    rank = numerical_rank(H.data)

    def refuse(*args):
        raise AssertionError("the window was not realized from its factors")

    monkeypatch.setattr(realize, "_column_search", refuse)
    monkeypatch.setattr(realize, "rank_factorize", refuse)
    realized = kalman_ho(H)
    assert realized.n == rank == n
    dev, top = markov_deviation(core, realized, n)
    assert dev <= 1e-8 * max(1.0, top)
    T = find_isomorphism(core, realized)
    assert isomorphism_residual(core, realized, T) < 1e-7
    with pytest.raises(AssertionError, match="not realized from its factors"):
        kalman_ho(HankelBlockMatrix(L=n - 1, M=n, D=D, m=m, p=p, data=H.data))


def recording_oracle(sys):
    """`system_oracle(sys)` behind a callback that records every probe run as a bytes key."""
    inner, calls = system_oracle(sys), []

    def fn(w):
        calls.append((w.scheduling.tobytes(), w.inputs.tobytes()))
        return inner(w)

    return IOOracle(fn=fn, D=sys.D, m=sys.m, p=sys.p), calls


@pytest.mark.parametrize("kind", ["minimal", "padded"])
@pytest.mark.parametrize("seed", [*range(6), 47, 53])
def test_searched_and_dense_oracle_realizations_agree(kind, seed):
    """The column search on oracle and table windows against the dense full-window reference.

    `helpers.dense_kalman_ho` factors the whole window given as data from a
    Markov table, equal to the probed one up to round-off.  On the table
    window at every L = 0..n, below the rank plateau too, the search gives
    the window's rank and the reference's Markov parameters up to length
    2L + 2 within 1e-9, a tenth of the C03 tolerance.  At L = n - 1 and n,
    where H_{L,L} has the map's rank n, the searched oracle window does the
    same with the map's order.  Seeds 47 and 53 draw D = 1, m = 2, p = 1
    maps whose table windows below the plateau a shift solved on the
    raising words alone realizes wrongly.
    """
    rng = np.random.default_rng(1000 + seed)
    D, n, m, p = (int(rng.integers(1, hi)) for hi in (4, 5, 3, 3))
    core = random_minimal_system(rng, n=n, D=D, m=m, p=p)
    sys = core if kind == "minimal" else pad_unobservable(pad_unreachable(core, 1, rng), 1, rng)
    for L in range(n + 1):
        table = build_hankel(markov_table(sys, 2 * L + 3), L, L + 1)
        dense = dense_kalman_ho(table)
        realized = [kalman_ho(table)]
        if L >= n - 1:
            realized.append(kalman_ho(build_hankel(system_oracle(sys), L, L + 1)))
            assert dense.n == n
        for searched in realized:
            assert searched.n == dense.n == numerical_rank(table.data)
            dev, top = markov_deviation(dense, searched, L + 1)
            assert dev <= 1e-9 * max(1.0, top)


@pytest.mark.parametrize(
    "n, D, m, p, L, seed",
    [(3, 3, 2, 2, 2, 5), (2, 2, 1, 1, 1, 7), (3, 2, 1, 2, 3, 9), (4, 3, 1, 1, 3, 11),
     (2, 1, 1, 1, 2, 13), (3, 3, 2, 2, 2, 21), (2, 2, 1, 1, 1, 22), (3, 2, 2, 1, 3, 23),
     (4, 1, 1, 2, 3, 24)],
)
def test_oracle_windows_are_realized_from_searched_columns(monkeypatch, n, D, m, p, L, seed):
    """`kalman_ho(build_hankel(oracle))` never assembles the window, searches at most
    1 + n D of its block columns of N(L) D^2 m cells each, and probes each
    distinct run once: 720 probes at D = 3, n = 3, m = p = 2, L = 2, against
    that bound's 2,340 and the window's 9,360.  For the k raising words
    |v| <= L it probes fewer than the 1 + k D searched columns hold: column
    v q at row r repeats column v at row q r."""

    def refuse(self, name):
        if name == "data":
            raise AssertionError("an oracle window was assembled")
        raise AttributeError(name)

    def search(H, tol):
        searches.append(column_search(H, tol))
        return searches[-1]

    sys = random_minimal_system(np.random.default_rng(seed), n=n, D=D, m=m, p=p)
    oracle, calls = recording_oracle(sys)
    searches, column_search = [], realize._column_search
    monkeypatch.setattr(HankelBlockMatrix, "__getattr__", refuse)
    monkeypatch.setattr(realize, "_column_search", search)
    H = build_hankel(oracle, L, L + 1)
    with pytest.raises(AssertionError, match="assembled"):
        H.data
    realized = kalman_ho(H)
    assert realized.n == n and "data" not in vars(H)
    assert len(calls) <= (1 + n * D) * word_count(L, D) * D**2 * m
    assert len(calls) < word_count(L, D) * word_count(L + 1, D) * D**2 * m
    assert len(set(calls)) == len(calls)
    k = len(searches[0][3])
    assert k >= 1 and len(calls) < (1 + k * D) * word_count(L, D) * D**2 * m
    dev, top = markov_deviation(sys, realized, n)
    assert dev <= 1e-8 * max(1.0, top)


def test_an_assembled_oracle_window_is_realized_from_its_data():
    """Reading `data` first gives the same system bit for bit and no further probes."""
    for n, D, m, p, L, seed in [(3, 2, 2, 1, 2, 17), (3, 3, 2, 2, 2, 21), (2, 2, 1, 1, 1, 22),
                                (3, 2, 2, 1, 3, 23), (4, 1, 1, 2, 3, 24)]:
        sys = random_minimal_system(np.random.default_rng(seed), n=n, D=D, m=m, p=p)
        oracle, calls = recording_oracle(sys)
        searched = kalman_ho(build_hankel(oracle, L, L + 1))
        H = build_hankel(oracle, L, L + 1)
        H.data
        probed = len(calls)
        read = kalman_ho(H)
        assert len(calls) == probed
        for family in ("A", "B", "C"):
            assert np.array_equal(getattr(read, family), getattr(searched, family))


def test_an_oracle_window_below_the_plateau_gets_the_dense_order(sigma2):
    """At L = 0 neither route reaches sigma2's plateau, and both give the same order.

    Both return 2 states whose Markov parameters are off by 1.0: the
    below-plateau failure that a realization certificate is to catch.
    """
    oracle = system_oracle(sigma2)
    dense = dense_kalman_ho(build_hankel(oracle, 0, 1))
    assert kalman_ho(build_hankel(oracle, 0, 1)).n == dense.n


def test_a_non_finite_probe_raises_during_the_search():
    oracle = IOOracle(fn=lambda w: [np.nan if len(w.scheduling) > 3 else 1.0], D=2, m=1, p=1)
    with pytest.raises(NonFiniteEntry, match="is not finite"):
        kalman_ho(build_hankel(oracle, 1, 2))


def test_factors_whose_core_overflows_raise():
    # the window's entries reach 1e308 and stay finite, but Q^T Of Rf sums 4 of them
    H = build_hankel(ALPVSystem(A=[np.eye(1)], B=[[[1e150]]], C=[[[1e158]]]), 3, 4)
    assert np.isfinite(H.data).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteEntry, match="NaN or Inf"):
            kalman_ho(H)


def overflowing_window():
    """A rank-1 window given as data whose entries reach 1e308 and whose sigma_1 overflows."""
    sys = ALPVSystem(A=[[[1.0]]], B=[[[1e150]]], C=[[[1e158]]])
    return HankelBlockMatrix(L=3, M=4, D=1, m=1, p=1, data=build_hankel(sys, 3, 4).data)


def test_kalman_ho_of_a_window_whose_largest_singular_value_overflows_raises():
    H = overflowing_window()
    assert np.isfinite(H.data).all() and H.factors is None
    with pytest.raises(NonFiniteEntry, match="largest singular value .* is not finite"):
        kalman_ho(H)
