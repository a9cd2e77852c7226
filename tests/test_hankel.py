import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from alpvreal import (
    ALPVSystem,
    DimensionMismatch,
    HankelBlockMatrix,
    HorizonExceeded,
    InvalidAlphabet,
    IOOracle,
    NonFiniteEntry,
    analyze,
    build_hankel,
    factored_hankel_rank,
    find_isomorphism,
    hankel_rank,
    hankel_singular_values,
    kalman_ho,
    kernel_coeff,
    markov_block,
    markov_table,
    minimize,
    numerical_rank,
    observability_root,
    reachability_root,
    system_oracle,
    word_count,
    words_up_to,
)

from alpvreal import cli, fileio, hankel

from helpers import (
    observability_factor, pad_unobservable, pad_unreachable, random_minimal_system, random_system,
    reachability_factor,
)


def test_fixture_hankel_block_values(sigma_star):
    H = build_hankel(sigma_star, 0, 1)
    expected = [[1.0, 3.0, 0.5, 1.5, 0.0, 0.0], [2.0, 6.0, 1.0, 3.0, 0.0, 0.0]]
    assert np.allclose(H.data, expected, atol=1e-12)


def test_hankel_shape_rule(sigma2):
    H = build_hankel(sigma2, 1, 2)
    # N(1)*p*D x N(2)*m*D for D=2, p=m=1
    assert H.shape == (6, 14)


def test_hankel_block_is_markov_of_concatenation(sigma2):
    H = build_hankel(sigma2, 1, 2)
    p2, m2 = sigma2.p * 2, sigma2.m * 2
    rows = words_up_to(1, 2)
    cols = words_up_to(2, 2)
    for i, vi in enumerate(rows):
        for j, vj in enumerate(cols):
            blk = H.data[i * p2 : (i + 1) * p2, j * m2 : (j + 1) * m2]
            assert np.allclose(blk, markov_block(sigma2, vj + vi), atol=1e-12)


def test_hankel_routes_agree(sigma_star, sigma2):
    # system route (factors), table route (kernel lookups), oracle route (probes)
    for sys in (sigma_star, sigma2):
        from_sys = build_hankel(sys, 1, 2).data
        from_table = build_hankel(markov_table(sys, 5), 1, 2).data
        assert np.allclose(from_sys, from_table, atol=1e-10)
        from_oracle = build_hankel(system_oracle(sys), 1, 1).data
        assert np.allclose(from_oracle, build_hankel(sys, 1, 1).data, atol=1e-10)


def test_hankel_table_horizon_guard(sigma_star):
    table = markov_table(sigma_star, 4)
    with pytest.raises(HorizonExceeded):
        build_hankel(table, 1, 2)


def test_hankel_unsupported_source_is_type_error():
    with pytest.raises(TypeError):
        build_hankel({"D": 2, "m": 1, "p": 1}, 0, 0)


def test_factorization_consistency():
    """One transfer-product run closes both factors: H_{L,M} = Of_L @ Rf_M, also for L != M."""
    rng = np.random.default_rng(29)
    for D in (1, 2, 3):
        for n in range(6):
            for L, M in ((0, 0), (0, 2), (2, 1), (1, 3), (3, 2)):
                sys = random_system(rng, n=n, D=D)
                H = build_hankel(sys, L, M).data
                ref = observability_factor(sys, L) @ reachability_factor(sys, M)
                shape = (word_count(L, D) * sys.p * D, word_count(M, D) * sys.m * D)
                assert H.shape == ref.shape == shape
                assert np.abs(H - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0)


def test_ranks_fixture_values(sigma_star, sigma2):
    assert hankel_rank(sigma_star, 0, 1) == 1
    assert hankel_rank(sigma2, 1, 1) == 2
    assert hankel_rank(sigma2, 1, 2) == 2


def test_rank_zero_when_no_input_coupling():
    sys = ALPVSystem(
        A=[np.eye(2), 2 * np.eye(2)],
        B=[np.zeros((2, 1)), np.zeros((2, 1))],
        C=[np.ones((1, 2)), np.ones((1, 2))],
    )
    assert hankel_rank(sys, 1, 1) == 0
    assert hankel_rank(sys, 2, 2) == 0


def test_rank_plateau_and_upper_bound(minimal_population):
    for sys in minimal_population[:10]:
        n = sys.n
        ranks = [factored_hankel_rank(sys, L, L) for L in range(n + 2)]
        assert all(r1 <= r2 for r1, r2 in zip(ranks, ranks[1:]))
        assert all(r <= n for r in ranks)
        assert all(r == n for r in ranks[max(n - 1, 0) :])


def test_under_bound_negative_control(sigma2):
    # bound L=0 cannot certify the rank of a dimension-2 map
    assert hankel_rank(sigma2, 0, 0) == 1
    assert hankel_rank(sigma2, 1, 1) == 2
    assert hankel_rank(sigma2, 2, 2) == 2


def test_factored_rank_matches_assembled(random_population):
    for sys in random_population[:10]:
        for L, M in ((0, 0), (1, 1), (1, 2), (2, 1)):
            assert factored_hankel_rank(sys, L, M) == numerical_rank(build_hankel(sys, L, M).data)


def test_factored_singular_values_match_assembled():
    rng = np.random.default_rng(23)
    sys = random_system(rng, n=3, D=2, m=2, p=1)
    s_fact = hankel_singular_values(sys, 2, 2)
    s_full = np.linalg.svd(build_hankel(sys, 2, 2).data, compute_uv=False)
    assert np.allclose(np.sort(s_fact)[::-1], s_full[: len(s_fact)], atol=1e-10)
    assert np.allclose(s_full[len(s_fact) :], 0.0, atol=1e-10)


def test_factor_shapes(sigma2):
    # the depth-2 factors are 2 x 14 and 14 x 2; their roots are n x n
    assert reachability_root(sigma2, 2).shape == (2, 2)
    assert observability_root(sigma2, 2).shape == (2, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda sys: reachability_root(sys, -1),
        lambda sys: observability_root(sys, -1),
        lambda sys: hankel_singular_values(sys, -1, 0),
        lambda sys: hankel_singular_values(sys, 0, -1),
        lambda sys: factored_hankel_rank(sys, 0, -1),
    ],
    ids=["reachability", "observability", "singular-values-L", "singular-values-M", "factored-rank"],
)
def test_negative_depth_is_rejected(sigma2, call):
    with pytest.raises(ValueError, match="word-length bound must be >= 0, got depth=-1"):
        call(sigma2)


def test_hankel_block_matrix_checks_its_shape():
    with pytest.raises(DimensionMismatch, match=r"^Hankel data is \(3, 3\) but the sidecar implies \(2, 6\)$"):
        kalman_ho(HankelBlockMatrix(L=0, M=1, D=2, m=1, p=1, data=np.ones((3, 3))))
    with pytest.raises(DimensionMismatch):
        HankelBlockMatrix(L=0, M=1, D=2, m=1, p=1, data=np.ones(12))


def test_hankel_data_is_a_read_only_copy(tmp_path, monkeypatch, sigma2):
    data = build_hankel(sigma2, 1, 2).data.copy()
    H = HankelBlockMatrix(L=1, M=2, D=2, m=1, p=1, data=data)
    assert not np.shares_memory(H.data, data) and data.flags.writeable
    data[0, 0] = 5.0  # a later write to the caller's array does not reach the window
    realized = kalman_ho(H)
    assert realized.n == 2
    assert np.allclose(kernel_coeff(realized, (1, 1)), [[1.0]], rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="read-only"):
        H.data[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        build_hankel(sigma2, 1, 2).data[0, 0] = 1.0
    # a window loaded, or built from a table or an oracle, is a copy made by the same constructor
    built = []
    keep = lambda make: lambda *args: built.append(make(*args)) or built[-1]
    monkeypatch.setattr(fileio, "load_matrix_csv", keep(fileio.load_matrix_csv))
    monkeypatch.setattr(hankel, "word_blocks", keep(hankel.word_blocks))
    fileio.save_hankel(tmp_path / "H.csv", H)
    windows = [
        fileio.load_hankel(tmp_path / "H.csv"),
        build_hankel(markov_table(sigma2, 5), 1, 2),
        build_hankel(system_oracle(sigma2), 1, 2),
    ]
    windows[-1].data  # an oracle window is probed at its first read
    assert len(built) == len(windows)
    for W, array in zip(windows, built):
        assert not np.shares_memory(W.data, array)
        array[0, 0] = 5.0
        assert np.allclose(W.data, H.data, rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError, match="read-only"):
            W.data[0, 0] = 1.0


def test_only_build_hankel_skips_the_constructor():
    """Every data window goes through `HankelBlockMatrix(...)`; only unassembled ones do not."""
    private = []
    for path in sorted(Path(hankel.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                names = []
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id in ("HankelBlockMatrix", "hankel"):
                        names = [node.attr]
                elif isinstance(node, ast.ImportFrom) and node.module == "hankel":
                    names = [alias.name for alias in node.names]
                private += [f"{path.name}:{getattr(top, 'name', '')}:{name}"
                            for name in names if name.startswith("_")]
    assert private == ["hankel.py:build_hankel:_lazy"] * 2


def test_only_system_windows_carry_their_factors(tmp_path, sigma2):
    H = build_hankel(sigma2, 1, 2)
    Of, Rf = H.factors
    assert Of.shape == (6, 2) and Rf.shape == (2, 14)
    assert np.allclose(Of @ Rf, H.data, rtol=1e-14, atol=0)
    for factor in (Of, Rf):
        with pytest.raises(ValueError, match="read-only"):
            factor[0, 0] = 1.0
    assert "factors" not in repr(H)
    path = tmp_path / "H.csv"
    fileio.save_hankel(path, H)
    windows = [
        HankelBlockMatrix(L=1, M=2, D=2, m=1, p=1, data=H.data),
        fileio.load_hankel(path),
        build_hankel(markov_table(sigma2, 5), 1, 2),
        build_hankel(system_oracle(sigma2), 1, 2),
    ]
    assert [W.factors for W in windows] == [None] * 4
    with pytest.raises(TypeError):
        HankelBlockMatrix(L=1, M=2, D=2, m=1, p=1, data=H.data, factors=H.factors)


@pytest.mark.parametrize(
    "sizes, error, match",
    [
        (dict(L=0, M=1, D=2, m=0, p=1, data=np.zeros((2, 0))), DimensionMismatch, "m=0, p=1"),
        (dict(L=0, M=1, D=2, m=1, p=0, data=np.zeros((0, 6))), DimensionMismatch, "m=1, p=0"),
        (dict(L=0, M=0, D=0, m=1, p=1, data=np.zeros((0, 0))), InvalidAlphabet, "got 0"),
        (dict(L=-1, M=0, D=2, m=1, p=1, data=np.zeros((0, 2))), ValueError, "got L=-1, M=0"),
        (dict(L=0, M=-1, D=2, m=1, p=1, data=np.zeros((2, 0))), ValueError, "got L=0, M=-1"),
    ],
    ids=["m=0", "p=0", "D=0", "L=-1", "M=-1"],
)
def test_hankel_block_matrix_checks_its_sizes(sizes, error, match):
    with pytest.raises(error, match=match):
        HankelBlockMatrix(**sizes)


@pytest.mark.parametrize(
    "bad, m, call, word",
    # at (1, 1), D=2 the probes run over row word, i, column word, j, then the m
    # input columns; from probe `call` on, every response is `bad`
    [(np.nan, 1, 1, "11"), (np.inf, 1, 7, "12"), (-np.inf, 2, 4, "21"),
     (np.nan, 1, 18, "2211"), (np.nan, 1, 36, "2222")],
)
def test_oracle_window_names_the_first_non_finite_coefficient(bad, m, call, word):
    calls = []

    def fn(w):
        calls.append(w)
        return [bad if len(calls) >= call else 1.0]

    oracle = IOOracle(fn=fn, D=2, m=m, p=1)
    H = build_hankel(oracle, 1, 1)
    assert not calls  # probed at the first read of its data
    with pytest.raises(NonFiniteEntry, match=rf"^S\({word}\) is not finite$"):
        H.data
    assert len(calls) == 36 * m  # one check after the whole window


def test_overflowing_system_window_and_core_raise():
    sys = ALPVSystem(A=[[[1e200]]], B=[[[1e200]]], C=[[[1.0]]])
    for call in (build_hankel, hankel_rank, hankel_singular_values):
        with pytest.raises(NonFiniteEntry, match="NaN or Inf"):
            call(sys, 3, 3)


def test_large_factors_with_a_finite_window_do_not_raise():
    # |Of| |Rf| bounds the window by 1e400, but Of and Rf meet only in zeros
    sys = ALPVSystem(A=[np.zeros((2, 2))], B=[[[0.0], [1e200]]], C=[[[1e200, 0.0]]])
    assert np.array_equal(build_hankel(sys, 1, 1).data, np.zeros((2, 2)))


def test_a_system_window_is_assembled_once_from_its_factors_when_read(sigma2):
    H = build_hankel(sigma2, 1, 2)
    assert "data" not in vars(H)  # built from the factors alone
    assert H.shape == (6, 14)
    Of, Rf = H.factors
    data = H.data
    assert data is H.data and not data.flags.writeable
    assert np.array_equal(data, Of @ Rf)
    reference = observability_factor(sigma2, 1) @ reachability_factor(sigma2, 2)
    assert np.allclose(data, reference, rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError, match="read-only"):
        data[0, 0] = 1.0
    given = HankelBlockMatrix(L=1, M=2, D=2, m=1, p=1, data=H.data)
    assert given.factors is None and given.shape == H.shape
    assert np.array_equal(given.data, data) and not np.shares_memory(given.data, data)
    assert "data" not in repr(H) and "factors" not in repr(H)
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        H.nothing


def test_realizing_from_a_system_never_assembles_its_window(monkeypatch, tmp_path):
    """`kalman_ho`, `analyze`, `minimize`, `find_isomorphism` and the CLI read factors and roots."""

    def refuse(self, name):
        if name == "data":
            raise AssertionError("a system window was assembled")
        raise AttributeError(name)

    rng = np.random.default_rng(8)
    core = random_minimal_system(rng, n=3, D=2, m=1, p=2)
    padded = pad_unobservable(pad_unreachable(core, 1, rng), 1, rng)
    path, out = tmp_path / "sys.json", tmp_path / "realized.json"
    fileio.save_system(path, padded)
    monkeypatch.setattr(HankelBlockMatrix, "__getattr__", refuse)
    with pytest.raises(AssertionError, match="assembled"):
        build_hankel(padded, 1, 2).data
    report = analyze(padded)
    assert (report.reach_rank, report.obs_rank) == (4, 4)
    small = minimize(padded)
    realized = kalman_ho(build_hankel(padded, 2, 3))
    assert small.n == realized.n == 3
    find_isomorphism(small, realized)
    assert cli.run(["realize", "--from-system", str(path), "--L", "2", "-o", str(out)]) == 0
    assert fileio.load_system(out).n == 3


def test_realizing_a_large_system_window_never_allocates_it():
    """H_{6,7} of an n=7, D=3 system is 3279 x 9840, 258 MB of float64; its factors are 0.7 MB."""
    sys = random_minimal_system(np.random.default_rng(7), n=7, D=3, m=1, p=1, sv_gap=1e-2)
    tracemalloc.start()
    try:
        H = build_hankel(sys, 6, 7)
        realized = kalman_ho(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.shape == (3279, 9840) and realized.n == 7
    assert peak < 20e6
