import math

import numpy as np
import pytest

from switchvi.discretization import SpatialGrid, TimeGrid, build_levy_quadrature, interpolate
from switchvi import mc
from switchvi.mc import (
    BsdeEstimate,
    RegressionBasis,
    SingularRegressionError,
    feynman_kac_check,
    simulate_paths,
    solve_bsde_regression,
)
from switchvi.model import driver_variable, eval_obstacles, load_builtin_problem, load_problem, neg_part, pos_part
from switchvi.pde_solver import SchemeConfig, solve_penalized

from conftest import beta_slope_at_zero, make_spec

TG = TimeGrid(horizon=0.5, n_steps=50)


def frozen_spec(drift="0", vol="0"):
    return make_spec(
        modes={"m1": 1, "m2": 1},
        drift=drift,
        vol=vol,
        jump_amplitude="0",
        jump_weights={"default": "0"},
        levy={"atoms": []},
        drivers={"default": "0"},
        lower_costs={},
        upper_costs={},
    )


class TestSimulate:
    def test_frozen_dynamics(self):
        spec = frozen_spec()
        quad = build_levy_quadrature(spec.levy)
        batch = simulate_paths(spec, quad, 0.3, 50, TG, seed=1)
        np.testing.assert_array_equal(batch.states, 0.3)

    def test_deterministic_drift(self):
        spec = frozen_spec(drift="1")
        quad = build_levy_quadrature(spec.levy)
        batch = simulate_paths(spec, quad, 0.0, 10, TG, seed=1)
        np.testing.assert_allclose(batch.states[:, -1], 0.5, atol=1e-12)

    def test_poisson_jump_count_moment(self):
        lam = 0.8
        spec = make_spec(
            modes={"m1": 1, "m2": 1},
            drift="0",
            vol="0",
            jump_amplitude="e",
            jump_weights={"default": "0"},
            levy={"atoms": [[1.0, lam]]},
            drivers={"default": "0"},
            lower_costs={},
            upper_costs={},
        )
        quad = build_levy_quadrature(spec.levy)
        batch = simulate_paths(spec, quad, 0.0, 10_000, TG, seed=5)
        totals = batch.jump_counts.sum(axis=(1, 2))
        mean = float(totals.mean())
        se = float(totals.std(ddof=1) / math.sqrt(10_000))
        assert abs(mean - lam * TG.horizon) <= 4 * se

    def test_determinism_bitwise(self, spec_two_atom, quad_two_atom):
        a = simulate_paths(spec_two_atom, quad_two_atom, 0.0, 200, TG, seed=77)
        b = simulate_paths(spec_two_atom, quad_two_atom, 0.0, 200, TG, seed=77)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.jump_counts, b.jump_counts)
        c = simulate_paths(spec_two_atom, quad_two_atom, 0.0, 200, TG, seed=78)
        assert not np.array_equal(a.states, c.states)

    def test_compensated_jump_martingale(self):
        spec = make_spec(
            modes={"m1": 1, "m2": 1},
            drift="0",
            vol="0",
            jump_amplitude="e",
            jump_weights={"default": "0"},
            levy={"atoms": [[1.0, 1.0], [-1.0, 1.0]]},
            drivers={"default": "0"},
            lower_costs={},
            upper_costs={},
            terminal={"default": "x"},
        )
        quad = build_levy_quadrature(spec.levy)
        batch = simulate_paths(spec, quad, 0.3, 10_000, TG, seed=11)
        xt = batch.states[:, -1]
        se = float(xt.std(ddof=1) / 100.0)
        assert abs(float(xt.mean()) - 0.3) <= 4 * se

    def test_path_count_guard(self, spec_two_atom, quad_two_atom):
        """A path count is an integer of at least 1: ``True`` ran one path, and a
        float failed in ``np.empty`` or ran."""
        for n_paths in (0, 50.5, 50.0, "50", True, np.True_):
            with pytest.raises(ValueError, match="path"):
                simulate_paths(spec_two_atom, quad_two_atom, 0.0, n_paths, TG, seed=1)


class TestSeedKeys:
    """Path ``p`` draws from Philox keyed by ``(seed mod 2**64, p)`` as uint64."""

    def test_the_top_seed_has_its_own_stream(self, spec_2x2, quad_2x2):
        top = simulate_paths(spec_2x2, quad_2x2, 0.0, 20, TG, seed=2**64 - 1)
        zero = simulate_paths(spec_2x2, quad_2x2, 0.0, 20, TG, seed=0)
        assert not np.array_equal(top.brownian, zero.brownian)
        for p in range(20):
            rng = np.random.Generator(np.random.Philox(key=np.array([2**64 - 1, p], dtype=np.uint64)))
            np.testing.assert_array_equal(top.brownian[p], rng.standard_normal(TG.n_steps) * math.sqrt(TG.dt))


def fsum_cdf(lam):
    """``P(N <= k)`` for ``k = 0, ..., 63`` and Poisson ``N`` of mean ``lam``, by ``math.fsum`` of the pmf."""
    terms = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(64)]
    return np.array([math.fsum(terms[: k + 1]) for k in range(64)])


def reference_paths(spec, quad, x0, n_paths, tgrid, seed):
    """The per-path loop with a fresh ``Generator(Philox(key=uint64 [seed, p]))`` per path.

    Each path draws its normals, then, when every ``lam`` is in ``(0, 10)``,
    one uniform per draw that counts by inverse transform on the ``fsum`` CDF;
    otherwise it calls ``rng.poisson``.
    """
    dt = tgrid.dt
    lam = quad.weights * dt
    cdfs = [fsum_cdf(v) for v in lam.tolist()] if quad.n_atoms and 0.0 < lam.min() and lam.max() < 10.0 else None
    brownian = np.empty((n_paths, tgrid.n_steps))
    counts = np.zeros((n_paths, tgrid.n_steps, quad.n_atoms), dtype=np.int64)
    for p in range(n_paths):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, p], dtype=np.uint64)))
        brownian[p] = rng.standard_normal(tgrid.n_steps) * math.sqrt(dt)
        if cdfs is not None:
            u = rng.random((tgrid.n_steps, quad.n_atoms))
            for a, cdf in enumerate(cdfs):
                counts[p, :, a] = np.searchsorted(cdf, u[:, a], side="right")
        elif quad.n_atoms:
            counts[p] = rng.poisson(lam, size=(tgrid.n_steps, quad.n_atoms))
    states = np.empty((n_paths, tgrid.n_steps + 1))
    states[:, 0] = x0
    for k, t in enumerate(tgrid.times()[:-1].tolist()):
        xk = states[:, k]
        incr = xk + spec.eval_drift(t, xk) * dt + spec.eval_vol(t, xk) * brownian[:, k]
        beta = spec.beta_table(xk, quad.marks)
        for a in range(quad.n_atoms):
            incr = incr + counts[:, k, a] * beta[a] - dt * float(quad.weights[a]) * beta[a]
        states[:, k + 1] = incr
    return states, brownian, counts


class TestOneGeneratorPerCall:
    """Re-keying one generator per path draws the bits of a fresh generator per path."""

    @pytest.mark.parametrize("seed", [0, 11, 2**63 - 1, 2**63, 2**64 - 1, -1])
    @pytest.mark.parametrize("name", ["no_jump", "switch_2x2_jump"])
    def test_equals_the_per_path_reference(self, name, seed):
        spec = load_builtin_problem(name)
        quad = build_levy_quadrature(spec.levy)
        assert quad.small_jump_second_moment == 0.0 and (quad.n_atoms > 0) == (name != "no_jump")
        batch = simulate_paths(spec, quad, 0.1, 300, TG, seed=seed)
        assert batch.seed == seed % 2**64
        states, brownian, counts = reference_paths(spec, quad, 0.1, 300, TG, seed)
        assert np.array_equal(batch.states, states)
        assert np.array_equal(batch.brownian, brownian)
        assert batch.jump_counts.shape == counts.shape and np.array_equal(batch.jump_counts, counts)


def lam_spec(*lams):
    """Atoms whose counts have intensities ``lams`` per step of ``TG``."""
    return make_spec(levy={"atoms": [[0.3 + 0.1 * a, lam / TG.dt] for a, lam in enumerate(lams)]}, jump_amplitude="0.01*e")


def assert_equals_reference(spec, quad, n_paths, seed):
    batch = simulate_paths(spec, quad, 0.1, n_paths, TG, seed=seed)
    states, brownian, counts = reference_paths(spec, quad, 0.1, n_paths, TG, seed)
    assert batch.states.tobytes() == states.tobytes()
    assert batch.brownian.tobytes() == brownian.tobytes()
    assert batch.jump_counts.dtype == counts.dtype and batch.jump_counts.shape == counts.shape
    assert batch.jump_counts.tobytes() == counts.tobytes()
    return counts


@pytest.fixture
def count_blocks(monkeypatch):
    """Spy on the count reading: the ``(paths, n_steps, atoms)`` shape of each block of uniforms."""
    seen = []
    flatnonzero = np.flatnonzero

    def spy(a):
        if a.ndim == 3:
            seen.append(a.shape)
        return flatnonzero(a)

    monkeypatch.setattr(mc.np, "flatnonzero", spy)
    return seen


class TestCountsFromUniforms:
    """Inverse transform on one uniform per draw gives the reference's counts, block by block of paths."""

    @pytest.mark.parametrize("seed", [0, 11, 2**63 - 1, 2**63, 2**64 - 1, -1])
    @pytest.mark.parametrize(
        "lams", [(0.004,), (0.5,), (3.0,), (9.5,), (12.0,), (0.004, 3.0, 9.99), (0.004, 12.0)], ids=repr
    )
    def test_equals_the_per_path_reference(self, lams, seed, count_blocks):
        spec = lam_spec(*lams)
        quad = build_levy_quadrature(spec.levy)
        counts = assert_equals_reference(spec, quad, 120, seed)
        assert counts.sum() > 0
        # with some lam >= 10 every path calls rng.poisson; below it every path reads one block
        assert count_blocks == ([] if max(lams) >= 10.0 else [(120, TG.n_steps, len(lams))])

    def test_one_path_past_a_block_boundary(self, monkeypatch, count_blocks):
        spec = lam_spec(0.5, 0.004)
        monkeypatch.setattr(mc, "_UNIFORM_BLOCK_BYTES", 3 * 8 * TG.n_steps * 2 + 8)
        assert_equals_reference(spec, build_levy_quadrature(spec.levy), 10, seed=5)
        assert count_blocks == [(3, TG.n_steps, 2)] * 3 + [(1, TG.n_steps, 2)]

    def test_a_path_wider_than_the_cap_reads_a_block_of_its_own(self, monkeypatch, count_blocks):
        spec = lam_spec(0.5, 0.004)
        monkeypatch.setattr(mc, "_UNIFORM_BLOCK_BYTES", 8)
        assert_equals_reference(spec, build_levy_quadrature(spec.levy), 4, seed=5)
        assert count_blocks == [(1, TG.n_steps, 2)] * 4

    def test_the_block_buffer_stays_under_its_cap(self, count_blocks):
        spec = load_builtin_problem("switch_2x2_jump")
        quad = build_levy_quadrature(spec.levy)
        batch = simulate_paths(spec, quad, 0.0, 3_000, TG, seed=1)
        assert len(count_blocks) > 1 and sum(rows for rows, _, _ in count_blocks) == batch.n_paths
        assert all(8 * math.prod(shape) <= mc._UNIFORM_BLOCK_BYTES for shape in count_blocks)

    def test_a_path_does_not_depend_on_the_batch(self, monkeypatch):
        spec = lam_spec(0.5, 3.0)
        quad = build_levy_quadrature(spec.levy)
        whole = simulate_paths(spec, quad, 0.1, 40, TG, seed=2)
        first = simulate_paths(spec, quad, 0.1, 7, TG, seed=2)
        monkeypatch.setattr(mc, "_UNIFORM_BLOCK_BYTES", 3 * 8 * TG.n_steps * 2)
        blocked = simulate_paths(spec, quad, 0.1, 40, TG, seed=2)
        for batch in (first, blocked):
            n = batch.n_paths
            assert batch.states.tobytes() == whole.states[:n].tobytes()
            assert batch.jump_counts.tobytes() == whole.jump_counts[:n].tobytes()


class TestPoissonCdf:
    LAMS = np.concatenate([np.geomspace(1e-6, 9.999, 60), np.linspace(0.05, 9.95, 100)])

    def test_within_four_ulps_of_the_fsum_cdf(self):
        cdf = mc._poisson_cdf(self.LAMS)
        assert cdf.shape[1] == self.LAMS.size and cdf.shape[0] < 64
        # trimmed after the first row where every column is 1.0
        assert (cdf[-1] == 1.0).all() and not (cdf[-2] == 1.0).all()
        for a, lam in enumerate(self.LAMS.tolist()):
            want = fsum_cdf(lam)
            got = np.concatenate([cdf[:, a], np.ones(64 - cdf.shape[0])])
            assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), lam

    @staticmethod
    def worst_count_z(lams, n_draws=10**6):
        """The largest ``|z|`` of a count's frequency against the exact pmf, over ``n_draws`` draws per ``lam``."""
        spec = lam_spec(*lams)
        batch = simulate_paths(spec, build_levy_quadrature(spec.levy), 0.0, n_draws // TG.n_steps, TG, seed=17)
        worst = 0.0
        for a, lam in enumerate(lams):
            freq = np.bincount(batch.jump_counts[:, :, a].ravel(), minlength=64) / n_draws
            pmf = np.array([math.exp(-lam) * lam**k / math.factorial(k) for k in range(freq.size)])
            worst = max(worst, float(np.max(np.abs(freq - pmf) / np.sqrt(pmf * (1.0 - pmf) / n_draws))))
        return worst

    def test_counts_follow_the_poisson_law(self):
        assert self.worst_count_z((0.004, 0.5, 3.0, 9.5)) <= 5.0

    def test_the_law_test_sees_a_table_without_its_first_row(self, monkeypatch):
        cdf = mc._poisson_cdf
        monkeypatch.setattr(mc, "_poisson_cdf", lambda lam: cdf(lam)[1:])
        assert self.worst_count_z((0.004, 0.5, 3.0, 9.5)) > 5.0


class TestArguments:
    @pytest.mark.parametrize("seed", [1.5, 1.0, "3", True, np.True_, None], ids=repr)
    def test_seed_must_be_an_integer(self, spec_2x2, quad_2x2, seed):
        """``1.5`` ran seed 1, and ``"3"`` and ``True`` ran too."""
        with pytest.raises(ValueError, match="seed"):
            simulate_paths(spec_2x2, quad_2x2, 0.0, 10, TG, seed=seed)

    @pytest.mark.parametrize(
        "x0",
        [math.nan, math.inf, -math.inf, True, np.True_, 10**400, "0.5", None],
        ids=["nan", "inf", "-inf", "True", "np.True_", "int-over-float", "str", "None"],
    )
    def test_non_finite_start_fails_before_any_draw(self, spec_2x2, quad_2x2, x0, monkeypatch):
        """The paths were all drawn, then the drift failed on the binding ``x``;
        ``True`` ran from 1.0, ``10**400`` raised OverflowError and ``"0.5"`` TypeError."""

        def no_draws(*args, **kwargs):
            raise AssertionError("drew paths")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        with pytest.raises(ValueError, match="x0") as err:
            simulate_paths(spec_2x2, quad_2x2, x0, 10, TG, seed=1)
        assert type(err.value) is ValueError

    def test_atomless_counts_hold_no_bytes(self, spec_no_jump):
        """The counts of a batch without atoms were a view of a ``(P, n_steps, 1)`` int64 array."""
        quad = build_levy_quadrature(spec_no_jump.levy)
        batch = simulate_paths(spec_no_jump, quad, 0.0, 100, TG, seed=1)
        assert batch.jump_counts.shape == (100, TG.n_steps, 0) and batch.jump_counts.dtype == np.int64
        assert batch.jump_counts.base is None


class TestRegressionBasis:
    X = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.75, 1e-3, 3.0e5, -7.5e15, 1e60, -3e-61, -1e-200, 5e-324, 1.0 / 3.0])

    @pytest.mark.parametrize("degree", range(6))
    @pytest.mark.parametrize("x", [X, np.array([0.3]), np.array([-0.0])], ids=["mixed", "start", "signed-zero"])
    def test_design_equals_vander_bitwise(self, x, degree):
        got = RegressionBasis(degree).design(x)
        want = np.vander(x, degree + 1, increasing=True)
        assert got.shape == want.shape == (x.size, degree + 1)
        assert got.tobytes() == want.tobytes()


    @pytest.mark.parametrize("degree", [2.5, 3.0, "3", True, np.True_, -1], ids=repr)
    def test_degree_must_be_a_non_negative_integer(self, degree):
        """``True`` ran as degree 1, and a string failed with a TypeError."""
        with pytest.raises(ValueError, match="degree"):
            RegressionBasis(degree)


class TestBsdeRegression:
    def test_constant_driver_closed_form(self):
        spec = make_spec(
            modes={"m1": 1, "m2": 1},
            drivers={"default": "0.7"},
            lower_costs={},
            upper_costs={},
            terminal={"default": "0"},
        )
        quad = build_levy_quadrature(spec.levy)
        batch = simulate_paths(spec, quad, 0.0, 2_000, TG, seed=3)
        est = solve_bsde_regression(batch, 0.0, 0.0)
        assert est.y0[0, 0] == pytest.approx(0.35, abs=1e-8)

    def test_martingale_terminal_identity(self):
        """Terminal data ``x`` and no driver: ``y0`` estimates ``E[X_T] = x0``.  ``est.stderr``
        is the spread of the level-one values, not ``y0``'s error, so it bounds nothing here."""
        spec = make_spec(
            modes={"m1": 1, "m2": 1},
            drift="0",
            vol="0",
            jump_amplitude="e",
            jump_weights={"default": "0"},
            levy={"atoms": [[1.0, 1.0], [-1.0, 1.0]]},
            drivers={"default": "0"},
            lower_costs={},
            upper_costs={},
            terminal={"default": "x"},
        )
        quad = build_levy_quadrature(spec.levy)
        batch = simulate_paths(spec, quad, 0.3, 10_000, TG, seed=11)
        est = solve_bsde_regression(batch, 0.0, 0.0, RegressionBasis(1))
        # least squares with an intercept keeps means, so with no driver y0 is the mean of X_T
        xt = batch.states[:, -1]
        assert abs(est.y0[0, 0] - xt.mean()) <= 1e-12
        # and X_T is a martingale's terminal value: its mean lies within four of its own standard errors of x0
        assert abs(xt.mean() - 0.3) <= 4 * xt.std(ddof=1) / math.sqrt(batch.n_paths)

    def test_too_few_paths_guard(self, spec_two_atom, quad_two_atom):
        batch = simulate_paths(spec_two_atom, quad_two_atom, 0.0, 1, TG, seed=1)
        with pytest.raises(ValueError):
            solve_bsde_regression(batch, 0.0, 0.0)

    def test_singular_design_reported(self):
        spec = frozen_spec()  # all paths identical: rank-1 design at interior steps
        quad = build_levy_quadrature(spec.levy)
        batch = simulate_paths(spec, quad, 0.0, 100, TG, seed=1)
        with pytest.raises(SingularRegressionError):
            solve_bsde_regression(batch, 0.0, 0.0)

    def test_determinism_bitwise(self, spec_two_atom, quad_two_atom):
        batch = simulate_paths(spec_two_atom, quad_two_atom, 0.0, 2_000, TG, seed=9)
        a = solve_bsde_regression(batch, 2.0, 0.0)
        b = solve_bsde_regression(batch, 2.0, 0.0)
        assert np.array_equal(a.y0, b.y0) and np.array_equal(a.stderr, b.stderr)

    @pytest.mark.parametrize("n, m", [(-1.0, 0.0), (0.0, -1.0), (float("nan"), 0.0), (0.0, float("inf")), (True, 0.0), (0.0, "4")])
    def test_penalties_must_be_finite_and_non_negative(self, spec_two_atom, quad_two_atom, n, m):
        batch = simulate_paths(spec_two_atom, quad_two_atom, 0.0, 20, TG, seed=1)
        with pytest.raises(ValueError, match="penalty") as err:
            solve_bsde_regression(batch, n, m)
        assert type(err.value) is ValueError

    def test_monotonicity_transfer_in_n(self, spec_two_atom, quad_two_atom):
        batch = simulate_paths(spec_two_atom, quad_two_atom, 0.0, 4_000, TG, seed=13)
        prev = None
        for n in (0.0, 2.0, 8.0):
            est = solve_bsde_regression(batch, n, 0.0)
            if prev is not None:
                slack = 4.0 * float(np.max(est.stderr))
                assert float(np.max(prev - est.y0)) <= slack
            prev = est.y0


def per_pair_regression(batch, spec, n, m, basis=RegressionBasis(), n_picard=2):
    """Reference estimate: the same sweep with one ``lstsq`` per mode pair and level."""
    quad = batch.quadrature
    pairs = list(spec.modes.pairs())
    dt = float(batch.times[1] - batch.times[0])

    def fit(design, target, step):
        coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank < design.shape[1]:
            raise SingularRegressionError(math.inf, step)
        return coeffs

    def jump_argument(coeffs, x, fitted):
        beta, gamma = spec.jump_tables(x, quad.marks)
        q = np.zeros(fitted.shape)
        for a in range(quad.n_atoms):
            shifted = basis.design(x + beta[a])
            for i, j in pairs:
                q[i, j] += float(quad.weights[a]) * gamma[i, j, a] * (shifted @ coeffs[i, j] - fitted[i, j])
        return q

    def picard(cont, q_hat, t, x):
        costs = spec.obstacle_costs(t, x)
        y = cont.copy()
        for _ in range(n_picard):
            L, U = eval_obstacles(y, costs)
            entries = {driver_variable(a, b): y[a, b] for a, b in pairs}
            y_new = np.empty_like(y)
            for i, j in pairs:
                g = spec.eval_driver((i, j), t, x, entries, 0.0, q_hat[i, j])
                f = g + n * neg_part(y[i, j] - L[i, j]) - m * pos_part(y[i, j] - U[i, j])
                y_new[i, j] = cont[i, j] + dt * f
            y = y_new
        return y

    Y = spec.terminal_table(batch.states[:, -1])
    for k in range(batch.n_steps - 1, 0, -1):
        xk = batch.states[:, k]
        design = basis.design(xk)
        coeffs = {pair: fit(design, Y[pair], k) for pair in pairs}
        cont = np.empty(Y.shape)
        for pair in pairs:
            cont[pair] = design @ coeffs[pair]
        Y = picard(cont, jump_argument(coeffs, xk, cont), float(batch.times[k]), xk)
    x0 = np.full(1, batch.x0)
    design1 = basis.design(batch.states[:, 1])
    coeffs = {pair: fit(design1, Y[pair], 0) for pair in pairs}
    cont0 = np.empty(Y.shape[:2] + (1,))
    base = np.empty(Y.shape[:2] + (1,))
    for pair in pairs:
        cont0[pair] = float(np.mean(Y[pair]))
        base[pair] = basis.design(x0) @ coeffs[pair]
    y0 = picard(cont0, jump_argument(coeffs, x0, base), float(batch.times[0]), x0)[:, :, 0]
    stderr = np.array([[np.std(Y[i, j], ddof=1) for j in range(Y.shape[1])] for i in range(Y.shape[0])])
    return y0, stderr / math.sqrt(batch.n_paths)


class TestStackedRegression:
    """All mode pairs share one design per level, so one least-squares fit serves them."""

    @pytest.mark.parametrize("name", ["switch_2x2_jump", "two_atom_jump"])
    def test_matches_the_per_pair_reference(self, name):
        spec = load_builtin_problem(name)
        quad = build_levy_quadrature(spec.levy)
        assert quad.n_atoms > 0
        batch = simulate_paths(spec, quad, 0.0, 2_000, TG, seed=21)
        est = solve_bsde_regression(batch, 4.0, 2.0)
        y0, stderr = per_pair_regression(batch, spec, 4.0, 2.0)
        np.testing.assert_allclose(est.y0, y0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(est.stderr, stderr, rtol=0.0, atol=1e-12)
        # the penalties are active on this batch
        assert np.max(np.abs(est.y0 - solve_bsde_regression(batch, 0.0, 0.0).y0)) > 1e-3

    @pytest.mark.parametrize("name", ["switch_2x2_jump", "two_atom_jump"])
    def test_one_least_squares_fit_per_level(self, name, monkeypatch):
        spec = load_builtin_problem(name)
        quad = build_levy_quadrature(spec.levy)
        batch = simulate_paths(spec, quad, 0.0, 500, TG, seed=21)
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        solve_bsde_regression(batch, 4.0, 4.0)
        assert len(calls) == TG.n_steps

    def test_singular_design_raises_at_the_reference_step(self):
        # zero volatility until t = 0.25 and no jumps: every path shares its
        # state through level 26, so the design turns singular mid-sweep
        spec = make_spec(
            modes={"m1": 2, "m2": 2}, drift="0", vol="max(t - 0.25, 0)", levy={"atoms": []}, terminal={"default": "x"}
        )
        quad = build_levy_quadrature(spec.levy)
        batch = simulate_paths(spec, quad, 0.0, 200, TG, seed=4)
        with pytest.raises(SingularRegressionError) as ref:
            per_pair_regression(batch, spec, 4.0, 4.0)
        with pytest.raises(SingularRegressionError) as got:
            solve_bsde_regression(batch, 4.0, 4.0)
        assert 0 < got.value.step == ref.value.step < TG.n_steps - 1


class TestFeynmanKac:
    def test_closed_form_agreement(self):
        spec = make_spec(
            modes={"m1": 1, "m2": 1},
            drivers={"default": "0.7"},
            lower_costs={},
            upper_costs={},
            terminal={"default": "0"},
        )
        quad = build_levy_quadrature(spec.levy)
        grid = SpatialGrid.line(-2.0, 2.0, 101)
        traj, _ = solve_penalized(spec, grid, TG, quad, 0.0, 0.0)
        batch = simulate_paths(spec, quad, 0.0, 2_000, TG, seed=3)
        est = solve_bsde_regression(batch, 0.0, 0.0)
        report = feynman_kac_check(traj, est)
        assert report.passed
        assert report.records[0]["difference"] <= 1e-8

    def test_two_atom_instance_passes(self, spec_two_atom, quad_two_atom):
        grid = SpatialGrid.line(-2.0, 2.0, 101)
        traj, _ = solve_penalized(spec_two_atom, grid, TG, quad_two_atom, 4.0, 4.0)
        batch = simulate_paths(spec_two_atom, quad_two_atom, 0.0, 10_000, TG, seed=42)
        est = solve_bsde_regression(batch, 4.0, 4.0)
        report = feynman_kac_check(traj, est)
        assert report.passed
        assert any("engineering" in note for note in report.notes)

    def test_mismatched_penalty_fails(self, spec_two_atom, quad_two_atom):
        grid = SpatialGrid.line(-2.0, 2.0, 101)
        traj, _ = solve_penalized(spec_two_atom, grid, TG, quad_two_atom, 16.0, 0.0)
        batch = simulate_paths(spec_two_atom, quad_two_atom, 0.0, 10_000, TG, seed=42)
        est = solve_bsde_regression(batch, 0.0, 0.0)
        report = feynman_kac_check(traj, est)
        assert not report.passed

    def test_reads_the_grid_at_the_paths_start_point(self, spec_two_atom, quad_two_atom):
        """The start point was given again beside the estimate: another x0 compared another point."""
        grid = SpatialGrid.line(-2.0, 2.0, 41)
        traj, _ = solve_penalized(spec_two_atom, grid, TG, quad_two_atom, 4.0, 4.0)
        batch = simulate_paths(spec_two_atom, quad_two_atom, 0.3, 500, TG, seed=7)
        est = solve_bsde_regression(batch, 4.0, 4.0)
        assert batch.spec is spec_two_atom and est.x0 == 0.3
        report = feynman_kac_check(traj, est)
        assert [r["pde_value"] for r in report.records] == [interpolate(traj.values[0, i, 0], 0.3, grid) for i in range(2)]

    def test_pde_value_beyond_the_box_is_the_boundary_value(self):
        # v(0, x0) at x0 > x_max is clamped, as the solver reads values beyond the box
        spec = make_spec(
            modes={"m1": 1, "m2": 1},
            drivers={"default": "0.7"},
            lower_costs={},
            upper_costs={},
            terminal={"default": "0.5*x"},
        )
        quad = build_levy_quadrature(spec.levy)
        grid = SpatialGrid.line(-2.0, 2.0, 41)
        traj, _ = solve_penalized(spec, grid, TG, quad, 0.0, 0.0)
        est = BsdeEstimate(y0=np.zeros((1, 1)), stderr=np.zeros((1, 1)), n_paths=1, n=0.0, m=0.0, x0=2.5)
        report = feynman_kac_check(traj, est)
        assert report.records[0]["pde_value"] == traj.values[0, 0, 0, -1]


# Two atoms below the cutoff: the quadrature keeps no atom and folds both into
# the small-jump second moment s = 2 * 100 * 0.05^2 = 0.5.
SMALL_JUMPS = {
    "modes": {"m1": 1, "m2": 1},
    "horizon": 0.5,
    "drift": "0",
    "vol": "0.2",
    "jump_amplitude": "e",
    "levy": {"atoms": [[0.05, 100.0], [-0.05, 100.0]], "cutoff": 0.1},
    "drivers": {"0,0": "0"},
    "terminal": {"0,0": "x*x"},
}


class TestSmallJumpDiffusion:
    """Paths carry the small-jump diffusion ``0.5 s (d beta/de)(x, 0)^2 v''`` that the grid adds."""

    def test_terminal_variance_includes_the_small_jumps(self):
        spec = load_problem(SMALL_JUMPS)
        quad = build_levy_quadrature(spec.levy)
        assert quad.n_atoms == 0 and quad.small_jump_second_moment == pytest.approx(0.5)
        batch = simulate_paths(spec, quad, 0.0, 4_000, TG, seed=3)
        expected = (0.2**2 + 0.5) * TG.horizon  # 0.27
        # the sample variance of 4,000 normals has relative standard error sqrt(2/3999) ~ 2.2 %
        assert abs(float(np.var(batch.states[:, -1])) - expected) <= 5 * expected * math.sqrt(2 / 3999)

    def test_brownian_coefficient_is_the_combined_volatility(self):
        spec = make_spec(vol="0.2 + 0.1*x", jump_amplitude="e*(1 + 0.5*x)", levy={"atoms": [[0.05, 100.0]], "cutoff": 0.1})
        quad = build_levy_quadrature(spec.levy)
        batch = simulate_paths(spec, quad, 0.3, 50, TG, seed=9)
        for k in (0, 17, 49):
            xk = batch.states[:, k]
            sig = np.sqrt(spec.eval_vol(0.0, xk) ** 2 + quad.small_jump_second_moment * beta_slope_at_zero(spec, xk) ** 2)
            expected = xk + spec.eval_drift(0.0, xk) * TG.dt + sig * batch.brownian[:, k]
            np.testing.assert_array_equal(batch.states[:, k + 1], expected)

    def test_feynman_kac_check_passes(self):
        spec = load_problem(SMALL_JUMPS)
        quad = build_levy_quadrature(spec.levy)
        grid = SpatialGrid.line(-3.0, 3.0, 121)
        traj, _ = solve_penalized(spec, grid, TG, quad, 0.0, 0.0, SchemeConfig(mode="imex"))
        batch = simulate_paths(spec, quad, 0.0, 4_000, TG, seed=3)
        report = feynman_kac_check(traj, solve_bsde_regression(batch, 0.0, 0.0))
        assert report.records[0]["pde_value"] == pytest.approx(0.27, abs=5e-3)
        assert report.passed
