"""Clustering back-end tests: affinity, binarization, Laplacian spectra,
NME auto-tuning, k-means, and the assembled spectral pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse.csgraph import connected_components

from deskdiar.autodiff import ShapeError
from deskdiar.clustering import (
    DEFAULT_K_MAX,
    GAP_FLOOR,
    ClusterAssignment,
    DegenerateAffinityError,
    ORDER_ROWS,
    EigenConvergenceError,
    _components,
    _lloyd,
    _neighbour_order,
    _nme_steps,
    _NmeStep,
    binarize_symmetrize,
    cosine_affinity,
    default_p_range,
    eig_sym,
    kmeans,
    laplacian,
    nme_select,
    nme_select_bounded,
    spectral_cluster,
)
from oracles import jacobi_eigh


def partition(labels):
    labels = np.asarray(labels)
    return {frozenset(np.flatnonzero(labels == c).tolist())
            for c in np.unique(labels)}


# ---------------------------------------------------------------------------
# cosine affinity
# ---------------------------------------------------------------------------

class TestCosineAffinity:
    def test_orthogonal_rows_zero_offdiag(self):
        a = cosine_affinity(np.eye(4))
        assert np.allclose(a - np.eye(4), 0.0, atol=1e-15)

    def test_scaled_row_full_similarity(self):
        v = np.array([0.3, -1.2, 0.7])
        a = cosine_affinity(np.vstack([v, 3.0 * v]))
        assert abs(a[0, 1] - 1.0) < 1e-12

    def test_sixty_degrees_half(self):
        x = np.array([[1.0, 0.0],
                      [np.cos(np.pi / 3), np.sin(np.pi / 3)]])
        a = cosine_affinity(x)
        assert abs(a[0, 1] - 0.5) < 1e-12

    def test_diagonal_exactly_one(self, rng):
        x = rng.standard_normal((7, 5)) * 10.0
        a = cosine_affinity(x)
        assert (np.diag(a) == 1.0).all()

    def test_zero_row_gets_zero_diagonal(self):
        x = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
        a = cosine_affinity(x)
        assert a[0, 0] == 0.0
        assert np.allclose(a[0, 1:], 0.0, atol=1e-15)
        assert a[1, 1] == 1.0 and a[2, 2] == 1.0

    def test_symmetric_and_bounded(self, rng):
        x = rng.standard_normal((12, 4))
        a = cosine_affinity(x)
        assert np.abs(a - a.T).max() <= 1e-12
        assert a.min() >= -1.0 and a.max() <= 1.0

    # x * scale is a rescaled copy of x only while every product is a
    # normal float: a subnormal product keeps fewer significant bits, and
    # 5e-324 * 0.5 rounds to 0 (see the next test). So an entry is 0 or at
    # least tiny / 0.1, 0.1 being the smallest scale drawn.
    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float64, (6, 3),
                      elements=st.floats(-5, 5, allow_nan=False).filter(
                          lambda v: v == 0.0
                          or abs(v) >= np.finfo(np.float64).tiny / 0.1)),
           hnp.arrays(np.float64, (6,),
                      elements=st.floats(0.1, 50, allow_nan=False)))
    def test_row_scaling_invariance(self, x, scales):
        a1 = cosine_affinity(x)
        a2 = cosine_affinity(x * scales[:, None])
        assert np.abs(a1 - a2).max() < 1e-12

    def test_subnormal_row_scaled_to_zero_is_the_zero_row(self):
        # 5e-324 is a nonzero row of full similarity to [1, 0, 0]; halved,
        # it rounds to the zero row, whose affinities are all 0
        x = np.array([[5e-324, 0.0, 0.0], [1.0, 0.0, 0.0]])
        a = cosine_affinity(x)
        assert (a == 1.0).all()
        halved = x * np.array([0.5, 1.0])[:, None]
        assert not halved[0].any()
        a = cosine_affinity(halved)
        assert a[0, 0] == 0.0 and a[0, 1] == 0.0 and a[1, 1] == 1.0

    @pytest.mark.parametrize("value", [1e-12, 3e-162])
    @pytest.mark.parametrize("scale", [0.1, 0.5, 50.0])
    def test_tiny_identical_rows_full_similarity(self, value, scale):
        # 1e-12 rows fell under the old norm clamp; squares of 3e-162 rows
        # underflow, so their naive norm is wrong or zero
        x = np.full((2, 3), value)
        x[0] *= scale
        a = cosine_affinity(x)
        assert abs(a[0, 1] - 1.0) < 1e-12 and abs(a[1, 0] - 1.0) < 1e-12

    def test_underflowing_rows_keep_unit_diagonal(self):
        x = np.array([[1e-170, -2e-170, 0.0],
                      [5e-324, 0.0, 0.0],
                      [1.0, 2.0, 3.0]])
        a = cosine_affinity(x)
        assert (np.diag(a) == 1.0).all()
        expected = (1.0 - 4.0) / np.sqrt(5.0 * 14.0)
        assert abs(a[0, 2] - expected) < 1e-12
        assert abs(a[1, 2] - 1.0 / np.sqrt(14.0)) < 1e-12

    def test_ordinary_rows_divide_by_plain_norm(self, rng):
        # rows of ordinary magnitude keep the bits of the direct formula
        x = rng.standard_normal((9, 4)) * np.logspace(-6, 6, 9)[:, None]
        x[3] = 0.0
        norms = np.linalg.norm(x, axis=1)
        unit = x / np.where(norms > 0.0, norms, 1.0)[:, None]
        ref = np.clip(unit @ unit.T, -1.0, 1.0)
        ref = (ref + ref.T) / 2.0
        np.fill_diagonal(ref, np.where(norms > 0.0, 1.0, 0.0))
        assert np.array_equal(cosine_affinity(x).view(np.int64),
                              ref.view(np.int64))

    def test_rejects_single_row_and_1d(self):
        with pytest.raises(ShapeError):
            cosine_affinity(np.ones((1, 4)))
        with pytest.raises(ShapeError):
            cosine_affinity(np.ones(4))


# ---------------------------------------------------------------------------
# binarize + symmetrize
# ---------------------------------------------------------------------------

class TestBinarizeSymmetrize:
    def test_full_p_saturates(self, rng):
        x = rng.standard_normal((6, 3))
        b = binarize_symmetrize(cosine_affinity(x), p=5)
        assert np.array_equal(b, np.ones((6, 6)))

    def test_two_by_two_mutual(self):
        a = np.array([[1.0, -0.4], [-0.4, 1.0]])
        b = binarize_symmetrize(a, p=1)
        assert np.array_equal(b, np.ones((2, 2)))

    def test_one_sided_pick_becomes_half(self):
        # row 0 picks 1; row 1 picks 2; row 2 picks 1. Pick (0,1) is
        # unreciprocated so it averages to 0.5; (1,2) is mutual.
        a = np.array([[1.0, 0.9, 0.2],
                      [0.9, 1.0, 0.95],
                      [0.2, 0.95, 1.0]])
        b = binarize_symmetrize(a, p=1)
        assert b[0, 1] == 0.5 and b[1, 0] == 0.5
        assert b[1, 2] == 1.0 and b[2, 1] == 1.0
        assert b[0, 2] == 0.0 and b[2, 0] == 0.0

    def test_tie_breaks_to_lower_column(self):
        a = np.array([[1.0, 0.5, 0.5],
                      [0.5, 1.0, 0.9],
                      [0.5, 0.9, 1.0]])
        b = binarize_symmetrize(a, p=1)
        # row 0 ties between columns 1 and 2; the lower index wins, and
        # neither of them picks row 0 back
        assert b[0, 1] == 0.5 and b[0, 2] == 0.0

    def test_value_set_and_unit_diagonal(self, rng):
        a = cosine_affinity(rng.standard_normal((9, 4)))
        b = binarize_symmetrize(a, p=3)
        assert set(np.unique(b).tolist()) <= {0.0, 0.5, 1.0}
        assert (np.diag(b) == 1.0).all()
        assert np.array_equal(b, b.T)

    def test_p_out_of_range(self, rng):
        a = cosine_affinity(rng.standard_normal((5, 3)))
        with pytest.raises(ValueError, match="p must lie"):
            binarize_symmetrize(a, p=0)
        with pytest.raises(ValueError, match="p must lie"):
            binarize_symmetrize(a, p=5)


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------

class TestLaplacian:
    def test_empty_graph(self):
        assert np.array_equal(laplacian(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_two_node_spectrum(self):
        w = 0.7
        el = np.sort(np.linalg.eigvalsh(laplacian(
            np.array([[0.0, w], [w, 0.0]]))))
        assert np.allclose(el, [0.0, 2 * w], atol=1e-12)

    def test_row_sums_zero(self, rng):
        b = binarize_symmetrize(cosine_affinity(rng.standard_normal((8, 3))),
                                p=2)
        el = laplacian(b)
        assert np.abs(el.sum(axis=1)).max() <= 1e-12

    def test_component_count_matches_zero_eigenvalues(self):
        for c in (1, 2, 3, 5):
            abar = np.kron(np.eye(c), np.ones((3, 3)))
            lam = np.linalg.eigvalsh(laplacian(abar))
            assert lam.min() >= -1e-9
            assert int((np.abs(lam) < 1e-9).sum()) == c

    def test_psd(self, rng):
        b = binarize_symmetrize(cosine_affinity(rng.standard_normal((10, 4))),
                                p=3)
        assert np.linalg.eigvalsh(laplacian(b)).min() >= -1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            laplacian(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# symmetric eigendecomposition
# ---------------------------------------------------------------------------

class TestEigSym:
    def test_diagonal_sorted(self):
        w, _ = eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-12)

    def test_two_by_two_hand_case(self):
        w, _ = eig_sym(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert np.allclose(w, [1.0, 3.0], atol=1e-12)

    def test_reconstruction_orthonormality_residual(self, rng):
        m = rng.standard_normal((50, 50))
        m = (m + m.T) / 2.0
        w, v = eig_sym(m)
        assert (np.diff(w) >= -1e-12).all()
        assert np.abs(v @ np.diag(w) @ v.T - m).max() <= 1e-8
        assert np.abs(v.T @ v - np.eye(50)).max() <= 1e-8
        resid = np.abs(m @ v - v * w[None, :]).max()
        assert resid <= 1e-8 * max(1.0, np.abs(m).max())

    def test_matches_jacobi_reference(self, rng):
        m = rng.standard_normal((20, 20))
        m = (m + m.T) / 2.0
        w_fast, _ = eig_sym(m)
        w_ref, v_ref = jacobi_eigh(m)
        assert np.abs(w_fast - w_ref).max() < 1e-9
        assert np.abs(m @ v_ref - v_ref * w_ref[None, :]).max() < 1e-9

    def test_rejects_asymmetric_and_nonsquare(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ShapeError):
            eig_sym(np.ones((2, 3)))

    def test_lapack_failure_maps_to_convergence_error(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("did not converge")
        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(EigenConvergenceError):
            eig_sym(np.eye(3))


# ---------------------------------------------------------------------------
# NME selection
# ---------------------------------------------------------------------------

class TestNmeSelect:
    def test_exact_three_block_affinity(self):
        a = np.kron(np.eye(3), np.ones((4, 4)))
        res = nme_select(a, k_max=8)
        assert res.k_hat == 3

    def test_single_tight_cluster(self):
        x = np.tile(np.array([0.6, -0.2, 1.1]), (40, 1))
        res = nme_select(cosine_affinity(x))
        assert res.k_hat == 1
        assert res.p_hat == 1

    def test_two_planted_clusters_monte_carlo(self):
        hits = 0
        for seed in range(100):
            srng = np.random.default_rng(seed)
            while True:
                means = srng.standard_normal((2, 64))
                means /= np.linalg.norm(means, axis=1, keepdims=True)
                if means[0] @ means[1] <= np.cos(np.radians(25.0)):
                    break
            labels = np.arange(60) % 2
            x = means[labels] + 0.08 * srng.standard_normal((60, 64))
            hits += nme_select(cosine_affinity(x)).k_hat == 2
        assert hits >= 95

    def test_result_invariants_and_trace(self, rng):
        means = np.eye(6)[:4] * 1.0
        labels = np.arange(48) % 4
        x = means[labels] + 0.05 * rng.standard_normal((48, 6))
        a = cosine_affinity(x)
        res = nme_select(a)
        n = 48
        p_list = list(default_p_range(n))
        assert 1 <= res.p_hat <= n - 1
        assert 1 <= res.k_hat <= DEFAULT_K_MAX
        assert (np.diff(res.eigenvalues) >= -1e-12).all()
        assert res.eigenvalues.min() >= -1e-9
        assert res.eigengap.shape == (min(DEFAULT_K_MAX, n - 1),)
        assert res.k_hat == int(np.argmax(res.eigengap)) + 1
        assert len(res.trace) == len(p_list)
        assert [t["p"] for t in res.trace] == p_list
        finite = [t["r"] for t in res.trace if np.isfinite(t["r"])]
        winner = next(t for t in res.trace if t["p"] == res.p_hat)
        assert winner["r"] == min(finite)
        assert set(res.trace[0]) == {"p", "g_p", "r", "k_at_p"}

    @staticmethod
    def per_p_reference(a, p_range, k_max):
        """The scan rebuilt from the public per-p steps: a fresh binarized
        graph and a full eigendecomposition for every p."""
        window = min(k_max, a.shape[0] - 1)
        trace, best = [], None
        for p in sorted(set(p_range)):
            lam, _ = eig_sym(laplacian(binarize_symmetrize(a, p)))
            gaps = lam[1: window + 1] - lam[:window]
            g_p = gaps.max() / max(lam[-1], 1e-12)
            r = p / g_p if g_p > 0 else np.inf
            k_at_p = int(np.argmax(gaps)) + 1
            trace.append((p, g_p, r, k_at_p))
            if best is None or r < best[0]:
                best = (r, p, k_at_p)
        return best[1], best[2], trace

    def test_scan_matches_per_p_reference(self, rng):
        cases = []
        for k in (2, 3, 5):
            means = rng.standard_normal((k, 16))
            x = means[np.arange(60) % k] + 0.3 * rng.standard_normal((60, 16))
            cases.append((cosine_affinity(x), None))
        # duplicate rows: the stable sort's ties decide the picked columns
        x = rng.standard_normal((10, 5))[np.arange(40) % 10]
        cases.append((cosine_affinity(x), None))
        x = rng.standard_normal((30, 8))
        cases.append((cosine_affinity(x), [9, 2, 17, 2, 5, 29, 9, 1]))
        for a, p_range in cases:
            res = nme_select(a, p_range)
            p_hat, k_hat, trace = self.per_p_reference(
                a, p_range or default_p_range(a.shape[0]), DEFAULT_K_MAX)
            assert (res.p_hat, res.k_hat) == (p_hat, k_hat)
            assert [t["p"] for t in res.trace] == [p for p, *_ in trace]
            for t, (_, g_p, r, k_at_p) in zip(res.trace, trace):
                if g_p < 1e-9:
                    # more components than the window holds: every window
                    # gap is zero up to rounding, so its argmax is noise
                    assert t["g_p"] < 1e-9
                    continue
                assert t["k_at_p"] == k_at_p
                assert t["g_p"] == pytest.approx(g_p, rel=1e-9)
                assert t["r"] == pytest.approx(r, rel=1e-9)

    def test_lapack_failure_maps_to_convergence_error(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("did not converge")
        monkeypatch.setattr(np.linalg, "eigvalsh", boom)
        with pytest.raises(EigenConvergenceError):
            nme_select(np.kron(np.eye(2), np.ones((3, 3))), k_max=3)

    def test_all_zero_gap_degenerates(self):
        # six mutual pairs: at p=1 the graph splits into 6 components, more
        # than the 5-wide eigengap window, so every window gap is zero
        a = np.kron(np.eye(6), np.ones((2, 2)))
        with pytest.raises(DegenerateAffinityError):
            nme_select(a, p_range=[1], k_max=5)

    def test_rounding_noise_gaps_degenerate(self):
        # planted 3-speaker sessions scanned at p=1 alone: where the graph
        # has more components than the 10-wide window, every window gap is
        # rounding noise (about 1e-16) and must not yield a pick
        degenerate = 0
        for seed in range(20):
            srng = np.random.default_rng(seed)
            means = srng.standard_normal((3, 16))
            x = means[np.arange(60) % 3] + 0.3 * srng.standard_normal((60, 16))
            a = cosine_affinity(x)
            n_comp, _ = connected_components(binarize_symmetrize(a, 1))
            if n_comp > DEFAULT_K_MAX:
                degenerate += 1
                with pytest.raises(DegenerateAffinityError):
                    nme_select(a, p_range=[1])
            else:
                assert nme_select(a, p_range=[1]).trace[0]["g_p"] > GAP_FLOOR
        assert 0 < degenerate < 20

    def test_validation_errors(self, rng):
        a = cosine_affinity(rng.standard_normal((8, 3)))
        with pytest.raises(ValueError, match="p_range"):
            nme_select(a, p_range=[])
        with pytest.raises(ValueError, match="p_range"):
            nme_select(a, p_range=[0, 2])
        with pytest.raises(ValueError, match="p_range"):
            nme_select(a, p_range=[8])
        with pytest.raises(ValueError, match="k_max"):
            nme_select(a, k_max=0)
        with pytest.raises(ValueError, match="k_max"):
            nme_select(a, k_max=9)

    def test_rejects_non_square_affinity(self, rng):
        a = cosine_affinity(rng.standard_normal((8, 3)))
        with pytest.raises(ShapeError, match="square"):
            nme_select(a[:, :6], k_max=5)


def planted_rows(k, std, seed, n=120, dim=16, min_deg=25.0):
    """Noisy rows around k unit means at least min_deg apart, rows dealt
    round-robin to the speakers."""
    rng = np.random.default_rng([k, int(std * 1000), seed])
    while True:
        means = rng.standard_normal((k, dim))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        gram = means @ means.T
        np.fill_diagonal(gram, -1.0)
        if gram.max() <= np.cos(np.radians(min_deg)):
            break
    return means[np.arange(n) % k] + std * rng.standard_normal((n, dim))


def planted_affinity(k, std, seed, **kwargs):
    """Cosine affinity of `planted_rows`."""
    return cosine_affinity(planted_rows(k, std, seed, **kwargs))


def assert_same_pick(bounded, full):
    assert (bounded.p_hat, bounded.k_hat) == (full.p_hat, full.k_hat)
    assert np.array_equal(bounded.eigenvalues, full.eigenvalues)
    assert np.array_equal(bounded.eigengap, full.eigengap)
    assert bounded.trace == full.trace[:len(bounded.trace)]


class TestBoundedScan:
    def test_same_pick_as_exhaustive_scan_on_planted_sessions(self):
        stopped = collapsed = 0
        for k in range(2, 9):
            for std in (0.08, 0.2, 0.35):
                for seed in range(2):
                    a = planted_affinity(k, std, seed)
                    full = nme_select(a)
                    bounded = nme_select_bounded(a)
                    assert_same_pick(bounded, full)
                    stopped += len(bounded.trace) < len(full.trace)
                    collapsed += k > 1 and full.k_hat == 1
        # the sweep exercises both the stop and the k_hat = 1 collapse
        assert stopped >= 10
        assert collapsed >= 1

    def test_tied_r_goes_to_smaller_p_and_stop_is_exact(self, monkeypatch):
        # r by p: 4, 20, 4, 4, 5, 6. p = 3 and p = 4 tie with p = 1 and
        # lose to it; p = 4 <= r_best is still solved, p = 5 is not.
        g_by_p = {1: 0.25, 2: 0.1, 3: 0.75, 4: 1.0, 5: 1.0, 6: 1.0}
        solved = []

        def steps(a, p_list, window):
            for p in p_list:
                solved.append(p)
                g = g_by_p[p]
                gaps = np.array([g, 0.0, 0.0])
                lam = np.concatenate([[0.0], np.full(a.shape[0] - 2, g),
                                      [1.0]])
                yield _NmeStep(p, g, p / g, 1, lam, gaps)

        monkeypatch.setattr("deskdiar.clustering._nme_steps", steps)
        a = np.eye(24)
        full = nme_select(a, k_max=3)
        assert solved == [1, 2, 3, 4, 5, 6]
        solved.clear()
        bounded = nme_select_bounded(a, k_max=3)
        assert solved == [1, 2, 3, 4]
        assert full.p_hat == bounded.p_hat == 1
        assert_same_pick(bounded, full)

    @pytest.mark.parametrize("n", [3, 5, 8, 11])
    def test_tiny_session_window_reaches_lambda_max(self, rng, n):
        # k_max = n: the window holds all n - 1 gaps, up to lambda_max
        for _ in range(5):
            a = cosine_affinity(rng.standard_normal((n, 4)))
            full = nme_select(a, k_max=n)
            bounded = nme_select_bounded(a, k_max=n)
            assert full.eigengap.shape == (n - 1,)
            assert_same_pick(bounded, full)

    def test_spectral_cluster_pick_matches_exhaustive_scan(self):
        x = np.eye(8)[:3][np.arange(36) % 3]
        _, nme = spectral_cluster(x)
        assert_same_pick(nme, nme_select(cosine_affinity(x)))


class TestComponentSpectra:
    """The scan's per-component spectra against a dense eigvalsh of the
    whole Laplacian of `binarize_symmetrize(a, p)`."""

    @staticmethod
    def assert_matches_dense(a, p_range, window=DEFAULT_K_MAX):
        p_list = sorted(set(p_range))
        steps = list(_nme_steps(_neighbour_order(a), p_list,
                                min(window, a.shape[0] - 1)))
        assert [s.p for s in steps] == p_list
        n_comps = []
        for step in steps:
            abar = binarize_symmetrize(a, step.p)
            n_comps.append(connected_components(abar)[0])
            dense = np.linalg.eigvalsh(laplacian(abar))
            assert step.eigenvalues.shape == dense.shape
            assert (np.diff(step.eigenvalues) >= 0).all()
            np.testing.assert_allclose(step.eigenvalues, dense, rtol=0,
                                       atol=1e-12 * dense[-1])
        return n_comps

    def test_one_component(self, rng):
        a = cosine_affinity(rng.standard_normal((40, 6)))
        p = default_p_range(40)[-1]
        assert self.assert_matches_dense(a, [p]) == [1]

    def test_exactly_k_components(self):
        for k in (2, 4, 7):
            a = planted_affinity(k, 0.08, 0, n=14 * k)
            assert self.assert_matches_dense(a, [2, 5, 9]) == [k] * 3

    def test_more_components_than_the_window(self):
        a = np.kron(np.eye(6), np.ones((2, 2)))
        assert self.assert_matches_dense(a, [1], window=5) == [6]
        a = planted_affinity(3, 0.3, 1, n=60)
        n_comps = self.assert_matches_dense(a, [1, 2])
        assert n_comps[0] > DEFAULT_K_MAX

    def test_explicit_p_range_with_gaps_and_repeats(self, rng):
        a = planted_affinity(5, 0.2, 3, n=80)
        n_comps = self.assert_matches_dense(
            a, [9, 2, 17, 2, 5, 19, 9, 1])
        assert max(n_comps) > 1 and n_comps[-1] == 1


class TestScanMemory:
    """The scan's reused Laplacian buffer and int32 neighbour order give
    the bits of the fresh-array reference."""

    def test_neighbour_order_is_int32_stable_argsort(self, rng):
        # more rows than one argsort call takes, and ties in every row
        n = ORDER_ROWS + 37
        a = np.round(cosine_affinity(rng.standard_normal((n, 3))), 1)
        order = _neighbour_order(a)
        assert order.dtype == np.int32
        masked = a.copy()
        np.fill_diagonal(masked, -np.inf)
        ref = np.argsort(-masked, axis=1, kind="stable")
        assert np.array_equal(order, ref)

    @pytest.mark.parametrize("k, std", [(4, 0.08), (3, 0.3)])
    def test_scan_laplacians_match_reference_bits(self, monkeypatch, k, std):
        # every matrix the scan hands to eigvalsh, one component's block
        # while the graph is split and the whole graph once it is not,
        # equals the block of laplacian(binarize_symmetrize(a, p)) in its
        # int64 view: no -0.0 off the diagonal
        x = planted_rows(k, std, 0, n=60)
        a = cosine_affinity(x)
        seen = []
        real = np.linalg.eigvalsh

        def capture(mat):
            seen.append(mat.copy())
            return real(mat)

        monkeypatch.setattr(np.linalg, "eigvalsh", capture)
        p_list = [1, 2, 5, 13, 21, 34]
        list(_nme_steps(_neighbour_order(a), p_list, DEFAULT_K_MAX))
        monkeypatch.undo()
        want, split = [], 0
        for p in p_list:
            abar = binarize_symmetrize(a, p)
            members = _components(_neighbour_order(a), p)
            split += len(members) > 1
            want += [laplacian(abar[np.ix_(m, m)]) for m in members]
        assert 0 < split < len(p_list)
        assert len(seen) == len(want)
        for got, ref in zip(seen, want):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

        # the whole Laplacian spectral_cluster partitions with, at the
        # scanned p_hat and at a fixed p, has the reference bits as well
        handed = []

        def capture_eig(mat):
            handed.append(mat.copy())
            return eig_sym(mat)

        monkeypatch.setattr("deskdiar.clustering.eig_sym", capture_eig)
        _, nme = spectral_cluster(x)
        spectral_cluster(x, k=k, p=13)
        monkeypatch.undo()
        assert len(handed) == 2
        for got, p in zip(handed, (nme.p_hat, 13)):
            ref = laplacian(binarize_symmetrize(a, p))
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

class TestKmeans:
    def test_k_equals_n(self, rng):
        x = rng.standard_normal((6, 2))
        res = kmeans(x, k=6)
        assert res.inertia == 0.0
        assert sorted(res.labels.tolist()) == list(range(6))

    def test_two_blob_recovery_all_seeds(self, rng):
        x = np.vstack([rng.normal([5.0, 0.0], 0.1, (10, 2)),
                       rng.normal([-5.0, 0.0], 0.1, (10, 2))])
        truth = partition([0] * 10 + [1] * 10)
        for seed in range(50):
            assert partition(kmeans(x, 2, seed=seed).labels) == truth

    def test_duplicated_rows_same_partition(self, rng):
        x = np.vstack([rng.normal([5.0, 0.0], 0.1, (10, 2)),
                       rng.normal([-5.0, 0.0], 0.1, (10, 2))])
        single = kmeans(x, 2, seed=3)
        doubled = kmeans(np.tile(x, (2, 1)), 2, seed=3)
        assert np.array_equal(doubled.labels[:20], doubled.labels[20:])
        assert partition(doubled.labels[:20]) == partition(single.labels)
        assert np.isclose(doubled.inertia, 2.0 * single.inertia, rtol=1e-9)

    def test_deterministic_given_seed(self, rng):
        x = rng.standard_normal((30, 3))
        a = kmeans(x, 4, seed=11)
        b = kmeans(x, 4, seed=11)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_every_cluster_nonempty(self, rng):
        x = rng.standard_normal((40, 2))
        res = kmeans(x, 7, seed=0)
        assert np.unique(res.labels).size == 7

    def test_too_few_distinct_rows(self):
        x = np.tile(np.array([1.0, 2.0]), (5, 1))
        with pytest.raises(ValueError, match="distinct rows"):
            kmeans(x, 2)

    def test_k_out_of_range_and_bad_shape(self, rng):
        x = rng.standard_normal((5, 2))
        with pytest.raises(ValueError, match="k must lie"):
            kmeans(x, 0)
        with pytest.raises(ValueError, match="k must lie"):
            kmeans(x, 6)
        with pytest.raises(ShapeError):
            kmeans(np.ones(5), 2)

    def test_empty_cluster_reseeds_at_farthest_point(self):
        # the middle seed captures nothing; repair must hand it a point and
        # end with every cluster occupied at the optimal assignment
        x = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0]])
        centers = np.array([[0.05, 0.0], [5.0, 0.0], [100.0, 0.0]])
        labels, _, inertia = _lloyd(x, centers.copy())
        assert np.unique(labels).size == 3
        assert inertia == 0.0

    def test_assignment_validation(self):
        with pytest.raises(ValueError, match=r"\[0, k\)"):
            ClusterAssignment(labels=np.array([0, 2]), k=2, inertia=0.0)
        with pytest.raises(ValueError, match="must be used"):
            ClusterAssignment(labels=np.array([0, 0, 2]), k=3, inertia=0.0)
        with pytest.raises(ShapeError):
            ClusterAssignment(labels=np.zeros((2, 2)), k=2, inertia=0.0)


# ---------------------------------------------------------------------------
# assembled spectral pipeline
# ---------------------------------------------------------------------------

def three_block_embeddings():
    basis = np.eye(8)[:3]
    labels = np.arange(36) % 3
    return basis[labels], labels


class TestSpectralCluster:
    def test_two_rows_known_k(self):
        asg, nme = spectral_cluster(np.array([[1.0, 0.0], [0.0, 1.0]]), k=2)
        assert asg.labels[0] != asg.labels[1]
        assert nme is None

    def test_three_block_estimate_mode(self):
        x, labels = three_block_embeddings()
        asg, nme = spectral_cluster(x)
        assert nme is not None and nme.k_hat == 3
        assert asg.k == 3
        assert partition(asg.labels) == partition(labels)

    def test_cross_mode_consistency(self):
        x, _ = three_block_embeddings()
        est, nme = spectral_cluster(x)
        known, nme_known = spectral_cluster(x, k=nme.k_hat, p=nme.p_hat)
        assert nme_known is None
        assert partition(known.labels) == partition(est.labels)

    def test_permutation_equivariance(self, rng):
        x, labels = three_block_embeddings()
        perm = rng.permutation(x.shape[0])
        asg, _ = spectral_cluster(x[perm], k=3)
        assert partition(asg.labels) == partition(labels[perm])

    def test_known_k_with_p_range_scans_for_p(self):
        x, labels = three_block_embeddings()
        x = x[labels < 2]
        asg, nme = spectral_cluster(x, k=2, p_range=[2, 4, 6])
        assert nme is not None and nme.p_hat in (2, 4, 6)
        assert asg.k == 2
        assert partition(asg.labels) == partition(labels[labels < 2])

    def test_known_k_out_of_range(self):
        with pytest.raises(ValueError, match="k must lie"):
            spectral_cluster(np.eye(3), k=4)
