import re
import warnings

import numpy as np
import pytest

from switchvi.discretization import (
    LevyQuadrature,
    NonIntegrableDensityError,
    SpatialGrid,
    TimeGrid,
    build_levy_quadrature,
    destination_table,
    gradient_surface,
    interpolate,
    jump_operator,
    second_derivative_surface,
    small_jump_variance,
    upwind_drift,
)
from switchvi.model import LevyMeasureSpec, MalformedSpecError, ProblemSpec
from switchvi.pde_solver import SchemeConfig, _Workspace

from conftest import beta_slope_at_zero, make_spec, step


def beta_identity(x, e):
    return np.full_like(np.asarray(x, dtype=float), e)


def atom_table(coeff_of, x, quad):
    """``(atoms, nodes)`` table of a coefficient ``coeff_of(x, e_k)``."""
    return np.array([np.broadcast_to(coeff_of(x, float(e)), x.shape) for e in quad.marks]).reshape(quad.n_atoms, x.size)


def jump_sums(surface, grid, quad, beta_of=beta_identity, gamma_of=None):
    """Both jump sums of one surface, through the operator the solver assembles."""
    x = grid.axis()
    beta = atom_table(beta_of, x, quad)
    gamma = atom_table(gamma_of, x, quad) if gamma_of is not None else np.zeros_like(beta)
    gen, q = jump_operator(grid, quad, beta, gamma[None, None]).apply(surface[None, None])
    return gen[0, 0], q[0, 0]


def interpolation_matrices(table, n):
    """``P[k, i, j]``: weight of node ``j`` in the value at destination ``(k, i)``."""
    return np.stack([table.apply(e) for e in np.eye(n)], axis=-1)


def huge_id(value) -> str:
    """``repr``, with an integer too large for a float shown by its size."""
    return f"int with {len(str(abs(value)))} digits" if type(value) is int and abs(value) > 2**1024 else repr(value)


class TestGrids:
    def test_spacing_and_axis(self):
        g = SpatialGrid.line(-2.0, 2.0, 101)
        assert g.dx == pytest.approx(0.04)
        assert g.axis()[0] == -2.0 and g.axis()[-1] == 2.0

    def test_min_nodes(self):
        with pytest.raises(MalformedSpecError):
            SpatialGrid.line(0, 1, 2)

    @pytest.mark.parametrize("x_min, x_max", [(float("-inf"), 2.0), (-2.0, float("inf")), (-1e308, 1e308)])
    def test_non_finite_bounds_or_width_rejected(self, x_min, x_max):
        with pytest.raises(MalformedSpecError, match=re.escape(f"grid bounds [{x_min!r}, {x_max!r}]")):
            SpatialGrid.line(x_min, x_max, 11)

    @pytest.mark.parametrize("x_min, x_max", [(True, 2.0), (-2.0, "2"), (None, 2.0), (np.False_, 1.0), (-(10**400), 2.0)], ids=huge_id)
    def test_bounds_must_be_finite_numbers(self, x_min, x_max):
        """``line`` read ``true`` as 1 and ``"2"`` as 2: the box was [1, 2]."""
        with pytest.raises(MalformedSpecError, match="grid bounds"):
            SpatialGrid.line(x_min, x_max, 11)

    @pytest.mark.parametrize("x_min, x_max", [(-1, 1), (np.float32(-1.0), np.int64(1))], ids=repr)
    def test_bounds_are_kept_as_floats(self, x_min, x_max):
        g = SpatialGrid.line(x_min, x_max, 11)
        assert (g.x_min, g.x_max) == (-1.0, 1.0) and type(g.x_min) is float and type(g.x_max) is float

    @pytest.mark.parametrize("n_nodes", [11, np.int64(11)], ids=repr)
    def test_node_count_is_an_int(self, n_nodes):
        g = SpatialGrid.line(-1.0, 1.0, n_nodes)
        assert g.n_nodes == 11 and type(g.n_nodes) is int

    @pytest.mark.parametrize("n_nodes", [50.5, 50.0, "60", True, np.True_, None], ids=repr)
    def test_node_count_must_be_an_integer(self, n_nodes):
        """``line`` truncated 50.5 to 50 nodes and read "60" as 60."""
        with pytest.raises(MalformedSpecError, match="nodes"):
            SpatialGrid.line(-2.0, 2.0, n_nodes)
        with pytest.raises(MalformedSpecError, match="nodes"):
            SpatialGrid(-2.0, 2.0, n_nodes)

    @pytest.mark.parametrize("n_steps", [20.5, 20.0, "20", True, np.True_, None], ids=repr)
    def test_step_count_must_be_an_integer(self, n_steps):
        """20.5 steps failed in ``times()``, and ``True`` ran one step."""
        with pytest.raises(MalformedSpecError, match="step"):
            TimeGrid(0.5, n_steps)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), True, "0.5", None, 0.0, -0.5, 10**400], ids=huge_id)
    def test_horizon_must_be_a_finite_positive_number(self, horizon):
        """A NaN, infinite or boolean horizon constructed a grid."""
        with pytest.raises(MalformedSpecError, match="horizon"):
            TimeGrid(horizon, 10)

    def test_horizon_is_a_float(self):
        tg = TimeGrid(np.int64(2), 10)
        assert tg.horizon == 2.0 and type(tg.horizon) is float

    def test_step_count_is_an_int(self):
        tg = TimeGrid(0.5, np.int64(20))
        assert tg.n_steps == 20 and type(tg.n_steps) is int

    def test_time_grid_hits_horizon_exactly(self):
        tg = TimeGrid(horizon=0.7, n_steps=7)
        assert tg.times()[-1] == 0.7
        assert tg.dt == pytest.approx(0.1)


class TestQuadrature:
    def test_atom_passthrough(self):
        spec = LevyMeasureSpec(atoms=((1.0, 0.5), (-1.0, 0.5)), cutoff=0.0)
        quad = build_levy_quadrature(spec)
        np.testing.assert_array_equal(quad.marks, [1.0, -1.0])
        np.testing.assert_array_equal(quad.weights, [0.5, 0.5])
        assert quad.small_jump_second_moment == 0.0

    def test_small_atoms_fold_into_second_moment(self):
        spec = LevyMeasureSpec(atoms=((0.05, 2.0), (1.0, 0.5)), cutoff=0.1)
        quad = build_levy_quadrature(spec)
        np.testing.assert_array_equal(quad.marks, [1.0])
        assert quad.small_jump_second_moment == pytest.approx(2.0 * 0.05**2)

    def test_inverse_square_density_accepted(self):
        # moment integral: 2 * int_{0.1}^{1} e^-2 e^2 de = 1.8, finite
        spec = LevyMeasureSpec.from_dict({"density": "e^-2", "radius": 1.0, "cutoff": 0.1})
        quad = build_levy_quadrature(spec, n_atoms=400)
        moment = float(np.sum(quad.weights * np.minimum(1.0, quad.marks**2)))
        assert moment == pytest.approx(1.8, rel=2e-3)
        assert quad.small_jump_second_moment == pytest.approx(0.2, rel=2e-3)  # 2 * int_0^0.1 e^-2 e^2

    def test_uniform_density_small_jump_second_moment(self):
        # atoms carry |e| >= cutoff, the surrogate everything below it
        spec = LevyMeasureSpec.from_dict({"density": "1", "radius": 1.0, "cutoff": 0.2})
        quad = build_levy_quadrature(spec, n_atoms=32)
        assert np.all(np.abs(quad.marks) >= 0.2)
        assert quad.small_jump_second_moment == pytest.approx(2 * 0.2**3 / 3, rel=1e-4)

    @pytest.mark.parametrize("n_atoms", [1, 0, -5, 3, 2.5, "64"])
    def test_density_needs_an_even_atom_count(self, n_atoms):
        spec = LevyMeasureSpec.from_dict({"density": "1", "radius": 1.0, "cutoff": 0.2})
        with pytest.raises(ValueError, match="n_atoms"):
            build_levy_quadrature(spec, n_atoms=n_atoms)

    def test_empty_atoms_valid(self):
        quad = build_levy_quadrature(LevyMeasureSpec(atoms=()))
        assert quad.n_atoms == 0
        assert quad.total_weight == 0.0

    def test_tiny_weights_dropped(self):
        spec = LevyMeasureSpec(atoms=((1.0, 1e-15), (0.5, 0.2)))
        quad = build_levy_quadrature(spec)
        assert quad.n_atoms == 1

    def test_invariants_enforced(self):
        with pytest.raises(MalformedSpecError):
            LevyQuadrature(marks=np.array([0.01]), weights=np.array([1.0]), cutoff=0.1)
        with pytest.raises(MalformedSpecError):
            LevyQuadrature(marks=np.array([1.0]), weights=np.array([-1.0]))

    def test_negative_second_moment_rejected(self):
        with pytest.raises(MalformedSpecError):
            LevyQuadrature(marks=[], weights=[], small_jump_second_moment=-1.0)

    @pytest.mark.parametrize("radius", ["2", True, 10**400, float("nan"), float("inf")], ids=["str", "bool", "int-over-float", "nan", "inf"])
    def test_radius_must_be_a_finite_number(self, radius):
        """``"2"`` built a radius-2 quadrature, ``True`` a radius-1 one, and ``10**400`` raised OverflowError."""
        spec = LevyMeasureSpec.from_dict({"density": "1", "radius": 1.0, "cutoff": 0.2})
        with pytest.raises(ValueError, match="radius") as err:
            build_levy_quadrature(spec, radius=radius)
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("radius", [0.2, 0.1, -1.0], ids=["at", "below", "negative"])
    def test_a_density_radius_must_exceed_the_cutoff(self, radius):
        """The CLI kept this rule apart; the library raised ``density quadrature requires radius > cutoff > 0``."""
        spec = LevyMeasureSpec.from_dict({"density": "1", "radius": 1.0, "cutoff": 0.2})
        with pytest.raises(ValueError, match="radius") as err:
            build_levy_quadrature(spec, radius=radius)
        assert type(err.value) is ValueError

    def test_atoms_read_no_radius(self):
        spec = LevyMeasureSpec.from_dict({"atoms": [[0.5, 0.4]], "cutoff": 0.2})
        assert build_levy_quadrature(spec, radius=0.1).marks.tolist() == [0.5]

    def test_a_numpy_radius_is_a_number(self):
        spec = LevyMeasureSpec.from_dict({"density": "1", "radius": 1.0, "cutoff": 0.2})
        np.testing.assert_array_equal(build_levy_quadrature(spec, radius=np.float64(2.0)).marks, build_levy_quadrature(spec, radius=2.0).marks)

    @pytest.mark.parametrize("density", ["abs(e) - 0.5", "abs(e) - 0.09"], ids=["above-cutoff", "below-cutoff"])
    def test_negative_density_rejected(self, density):
        # cutoff 0.1: the first density is negative on atom cells, the second only on small-jump cells
        spec = LevyMeasureSpec.from_dict({"density": density, "radius": 1.0, "cutoff": 0.1})
        with pytest.raises(NonIntegrableDensityError):
            build_levy_quadrature(spec)


class TestSmallJumpVariance:
    """``small_jump_variance`` reads one beta table at the marks ``+-BETA_SLOPE_STEP``."""

    @pytest.mark.parametrize("amplitude", ["0.8*e", "e*(1 + 0.5*x)", "exp(-x*x)*e + 0.3*e*e*x", "0.4"])
    @pytest.mark.parametrize("shape", [(41,), (5, 7)])
    def test_equals_the_per_mark_reference_bitwise(self, amplitude, shape):
        spec = make_spec(jump_amplitude=amplitude, levy={"atoms": [[0.05, 100.0], [0.5, 0.4]], "cutoff": 0.1})
        quad = build_levy_quadrature(spec.levy)
        x = np.random.default_rng(6).uniform(-2.0, 2.0, shape)
        expected = quad.small_jump_second_moment * beta_slope_at_zero(spec, x) ** 2
        got = small_jump_variance(spec, quad, x)
        assert got.shape == shape and got.tobytes() == expected.tobytes()

    def test_reads_no_amplitude_without_small_jumps(self, monkeypatch):
        spec = make_spec(jump_amplitude="0.8*e*(1 + x)")
        quad = build_levy_quadrature(spec.levy)
        assert quad.small_jump_second_moment == 0.0
        monkeypatch.setattr(ProblemSpec, "eval_beta", lambda *args: pytest.fail("evaluated beta"))
        x = np.linspace(-1.0, 1.0, 9)
        got = small_jump_variance(spec, quad, x)
        assert got.shape == x.shape and not np.any(got)


class TestInterpolate:
    def grid(self):
        return SpatialGrid.line(0.0, 1.0, 3)

    def surface(self):
        return np.array([0.0, 1.0, 2.0])

    def test_node_identity_exact(self):
        g = SpatialGrid.line(-2.0, 2.0, 101)
        vals = np.sin(np.linspace(0, 5, 101)) if False else np.exp(-np.linspace(-2, 2, 101) ** 2)
        x = g.axis()
        for p in (0, 17, 50, 100):
            assert interpolate(vals, float(x[p]), g) == vals[p]

    def test_linear_midpoint(self):
        # values 0 -> 2 linearly over [0, 1]; query at 0.5 gives 1.0
        assert interpolate(self.surface(), 0.5, self.grid()) == pytest.approx(1.0)
        assert interpolate(self.surface(), 0.25, self.grid()) == pytest.approx(0.5)

    def test_clamp_beyond_box(self):
        assert interpolate(self.surface(), 7.0, self.grid()) == 2.0
        assert interpolate(self.surface(), -3.0, self.grid()) == 0.0

    def test_infinite_query_reads_the_boundary_value_without_a_warning(self):
        """A query at +-inf returned the boundary value with "invalid value" RuntimeWarnings."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert interpolate(self.surface(), np.inf, self.grid()) == 2.0
            assert interpolate(self.surface(), -np.inf, self.grid()) == 0.0
            table = destination_table(self.grid(), np.array([[-np.inf, 0.25], [np.inf, 1e308]]))
        np.testing.assert_array_equal(table.lo, [[0, 0], [1, 1]])
        np.testing.assert_array_equal(table.theta, [[0.0, 0.5], [1.0, 1.0]])

    def test_apply_on_a_stack_reads_each_surface(self):
        g = SpatialGrid.line(-1.0, 1.0, 11)
        stack = np.random.default_rng(3).normal(size=(2, 3, 11))
        table = destination_table(g, np.array([[-2.0, -0.37, 0.0], [0.41, 0.9, 5.0]]))
        out = table.apply(stack)
        assert out.shape == (2, 3, 2, 3)
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(out[i, j], table.apply(stack[i, j]))
                assert out[i, j, 0, 0] == stack[i, j, 0] and out[i, j, 1, 2] == stack[i, j, -1]

    @pytest.mark.parametrize("query", [np.nan, [0.5, np.nan]], ids=["scalar", "in-array"])
    def test_nan_query_is_a_value_error(self, query):
        """A NaN query raised IndexError: index -9223372036854775808."""
        with pytest.raises(ValueError, match="NaN"):
            destination_table(self.grid(), np.asarray(query))
        with pytest.raises(ValueError, match="NaN"):
            interpolate(self.surface(), np.nan, self.grid())



def drift_parts(b):
    b = np.asarray(b, dtype=float)
    return np.maximum(b, 0.0), np.minimum(b, 0.0)


class TestLocalGenerator:
    """The step's drift and diffusion stencils, ``b D_upwind v + 0.5 sigma^2 D2 v``."""

    def test_affine_drift_exact_interior(self):
        g = SpatialGrid.line(-1.0, 1.0, 21)
        surf = 3.0 + 1.5 * g.axis()
        out = upwind_drift(surf, g, *drift_parts(np.full(21, 2.0)))
        np.testing.assert_allclose(out[1:-1], 3.0, atol=1e-12)

    def test_quadratic_diffusion_exact(self):
        g = SpatialGrid.line(-1.0, 1.0, 21)
        surf = g.axis() ** 2
        out = 0.5 * np.full(21, np.sqrt(2.0)) ** 2 * second_derivative_surface(surf, g)
        np.testing.assert_allclose(out[1:-1], 2.0, atol=1e-10)

    def test_constant_is_zero(self):
        g = SpatialGrid.line(-1.0, 1.0, 11)
        surf = np.full(11, 4.2)
        out = upwind_drift(surf, g, *drift_parts(np.full(11, -1.0))) + 0.5 * 0.7**2 * second_derivative_surface(surf, g)
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_upwind_direction(self):
        g = SpatialGrid.line(0.0, 1.0, 11)
        surf = g.axis().copy()
        # negative drift at the left boundary: the outward difference vanishes
        out = upwind_drift(surf, g, *drift_parts(np.full(11, -1.0)))
        assert out[0] == 0.0
        assert out[5] == pytest.approx(-1.0)


class TestNonlocalGenerator:
    def test_quadratic_hand_value(self):
        g = SpatialGrid.line(-3.0, 3.0, 25)  # dx = 0.25, +-1 lands on nodes
        x = g.axis()
        surf = x**2
        quad = LevyQuadrature(marks=np.array([1.0, -1.0]), weights=np.array([1.0, 1.0]))
        out, _ = jump_sums(surf, g, quad)
        mid = 12  # x = 0
        assert out[mid] == pytest.approx(2.0, abs=1e-12)

    def test_affine_cancellation_inside(self):
        # asymmetric atoms: inside the box the redistribution of an affine
        # surface is slope * sum_k w_k beta_k, which the compensator, upwinded
        # with the drift, cancels in the step
        g = SpatialGrid.line(-3.0, 3.0, 61)
        x = g.axis()
        surf = 0.7 - 1.3 * x
        atoms = [[0.5, 0.3], [-0.25, 0.8], [0.1, 2.0]]
        quad = LevyQuadrature(marks=np.array([e for e, _ in atoms]), weights=np.array([w for _, w in atoms]))
        out, _ = jump_sums(surf, g, quad)
        inside = (x + 0.5 <= 3.0) & (x - 0.25 >= -3.0)
        np.testing.assert_allclose(out[inside], -1.3 * np.sum(quad.weights * quad.marks), atol=1e-12)

        spec = make_spec(drift="0", vol="0", jump_amplitude="e", jump_weights={"default": "0"}, levy={"atoms": atoms})
        ws = _Workspace(spec, g, TimeGrid(0.5, 25), quad, SchemeConfig())
        assert np.all(ws.compensator > 0.0)  # the folded drift is negative: the upwind neighbour is on the left
        stepped = step(ws, surf[None, None], 0.5, 0.0, 0.0)[0, 0]
        np.testing.assert_allclose(stepped[inside], surf[inside], atol=1e-12)

    def test_empty_quadrature_zero(self):
        g = SpatialGrid.line(-1.0, 1.0, 11)
        surf = np.random.default_rng(0).normal(size=11)
        quad = LevyQuadrature(marks=np.array([]), weights=np.array([]))
        gen, q = jump_sums(surf, g, quad, gamma_of=lambda x, e: np.ones_like(x))
        np.testing.assert_array_equal(gen, 0.0)
        np.testing.assert_array_equal(q, 0.0)

    def test_monotone_in_field(self):
        g = SpatialGrid.line(-1.0, 1.0, 21)
        x = g.axis()
        quad = LevyQuadrature(marks=np.array([0.3, -0.4]), weights=np.array([0.5, 0.5]))
        # exact: every destination is a convex combination of node values
        dest = x + atom_table(beta_identity, x, quad)
        table = destination_table(g, dest)
        beyond = (dest < -1.0) | (dest > 1.0)
        assert beyond.any()
        assert np.all(table.theta >= 0.0) and np.all(1.0 - table.theta >= 0.0)
        # a clamped destination sits on a cell end: theta 0 at node 0 or theta 1 at node n - 2
        np.testing.assert_array_equal(table.lo[dest < -1.0], 0)
        np.testing.assert_array_equal(table.theta[dest < -1.0], 0.0)
        np.testing.assert_array_equal(table.lo[dest > 1.0], 19)
        np.testing.assert_array_equal(table.theta[dest > 1.0], 1.0)
        weights = interpolation_matrices(table, 21)
        assert np.all(weights >= 0.0)
        np.testing.assert_array_equal(np.sum(weights, axis=-1), 1.0)
        assert np.all(quad.weights > 0.0)
        # and the assembled sum follows it
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(size=21)
            bump = np.abs(rng.normal(size=21))
            node = rng.integers(1, 20)
            w = v + bump
            w[node] = v[node]  # equality at the evaluation node
            iv, _ = jump_sums(v, g, quad)
            iw, _ = jump_sums(w, g, quad)
            assert iv[node] <= iw[node] + 1e-12


class TestNonlocalDriverTerm:
    def gamma_one(self, x, e):
        return np.ones_like(np.asarray(x, dtype=float))

    def test_constant_surface_zero(self):
        g = SpatialGrid.line(-1.0, 1.0, 11)
        quad = LevyQuadrature(marks=np.array([0.3]), weights=np.array([2.0]))
        _, out = jump_sums(np.full(11, 3.3), g, quad, gamma_of=self.gamma_one)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_two_atom_cancellation(self):
        g = SpatialGrid.line(-3.0, 3.0, 25)
        surf = g.axis().copy()
        quad = LevyQuadrature(marks=np.array([1.0, -1.0]), weights=np.array([1.0, 1.0]))
        _, out = jump_sums(surf, g, quad, gamma_of=self.gamma_one)
        x = g.axis()
        inside = (x + 1 <= 3) & (x - 1 >= -3)
        np.testing.assert_allclose(out[inside], 0.0, atol=1e-13)

    def test_zero_gamma(self):
        g = SpatialGrid.line(-1.0, 1.0, 11)
        quad = LevyQuadrature(marks=np.array([0.5]), weights=np.array([1.0]))
        _, out = jump_sums(np.random.default_rng(1).normal(size=11), g, quad, gamma_of=lambda x, e: np.zeros_like(x))
        np.testing.assert_array_equal(out, 0.0)

    def test_matches_per_atom_reference_beyond_both_ends(self):
        # gamma != 0, destinations beyond both ends of the box, clamped there
        g = SpatialGrid.line(-1.0, 1.0, 21)
        x = g.axis()
        quad = LevyQuadrature(marks=np.array([0.7, -0.45, 1.3]), weights=np.array([0.4, 0.9, 0.2]))
        surf = 0.5 * np.sin(3.0 * x) + 3.0 * (x > 0.8)

        def beta_of(xx, e):
            return 0.8 * e * (1.0 + 0.5 * xx)

        def gamma_of(xx, e):
            return 0.5 + 0.25 * e * np.cos(xx)

        gen, q = jump_sums(surf, g, quad, beta_of=beta_of, gamma_of=gamma_of)
        ref_gen = np.zeros_like(surf)
        ref_q = np.zeros_like(surf)
        for e_k, w_k in zip(quad.marks, quad.weights):
            dest = x + beta_of(x, e_k)
            shift = np.interp(dest, x, surf) - surf  # np.interp clamps to the end values
            ref_gen += w_k * shift
            ref_q += w_k * gamma_of(x, e_k) * shift
        np.testing.assert_allclose(gen, ref_gen, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(q, ref_q, rtol=0.0, atol=1e-14)

        dest = x + atom_table(beta_of, x, quad)
        assert np.any(dest < -1.0) and np.any(dest > 1.0)

    def test_monotone_in_field_with_nonneg_gamma(self):
        g = SpatialGrid.line(-1.0, 1.0, 21)
        x = g.axis()
        quad = LevyQuadrature(marks=np.array([0.3, -0.2]), weights=np.array([1.0, 0.5]))
        # exact: non-negative interpolation weights, gamma and atom weights
        dest = x + atom_table(beta_identity, x, quad)
        assert np.any((dest < -1.0) | (dest > 1.0))
        assert np.all(interpolation_matrices(destination_table(g, dest), 21) >= 0.0)
        assert np.all(atom_table(self.gamma_one, x, quad) >= 0.0) and np.all(quad.weights > 0.0)
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.normal(size=21)
            w = v + np.abs(rng.normal(size=21))
            node = int(rng.integers(1, 20))
            w[node] = v[node]
            _, dv = jump_sums(v, g, quad, gamma_of=self.gamma_one)
            _, dw = jump_sums(w, g, quad, gamma_of=self.gamma_one)
            assert dv[node] <= dw[node] + 1e-12


class TestJumpOperator:
    """The assembled matrices, every entry checked."""

    def operator(self, gamma_of):
        g = SpatialGrid.line(-1.0, 1.0, 21)
        x = g.axis()
        quad = LevyQuadrature(marks=np.array([0.3, -0.45, 0.7]), weights=np.array([0.5, 0.9, 0.2]))
        beta = atom_table(lambda xx, e: 0.8 * e * (1.0 + 0.5 * xx), x, quad)
        dest = x + beta
        assert np.any(dest < -1.0) and np.any(dest > 1.0)  # clamped rows at both ends
        return jump_operator(g, quad, beta, atom_table(gamma_of, x, quad)[None, None]), quad

    @staticmethod
    def assert_generator_matrix(matrix, n_atoms):
        # off-diagonal entries are sums of non-negative products; a row holds at
        # most 2 entries per atom plus the diagonal, so it sums to zero up to
        # that many roundings of its largest entry
        off = matrix - np.diag(np.diag(matrix))
        assert np.all(off >= 0.0)
        atol = (2 * n_atoms + 1) * np.finfo(float).eps * 2.0 * np.max(np.abs(np.diag(matrix)))
        np.testing.assert_allclose(np.sum(matrix, axis=1), 0.0, rtol=0.0, atol=atol)

    def test_generator_is_a_rate_matrix(self):
        op, quad = self.operator(lambda x, e: np.zeros_like(x))
        self.assert_generator_matrix(op.generator, quad.n_atoms)

    def test_driver_matrix_with_nonnegative_gamma_is_a_rate_matrix(self):
        op, quad = self.operator(lambda x, e: 0.5 + 0.25 * e * np.cos(x))
        assert op.drivers.shape[0] == 1
        self.assert_generator_matrix(op.drivers[0], quad.n_atoms)


class TestDerivativeSurfaces:
    def test_gradient_edges_one_sided(self):
        g = SpatialGrid.line(0.0, 1.0, 5)
        surf = g.axis() ** 2
        grad = gradient_surface(surf, g)
        assert grad[0] == pytest.approx((surf[1] - surf[0]) / 0.25)
        assert grad[-1] == pytest.approx((surf[-1] - surf[-2]) / 0.25)
        assert grad[2] == pytest.approx(1.0)  # 2x at x=0.5

    @pytest.mark.parametrize("n_nodes", [3, 4, 201])
    @pytest.mark.parametrize("lead", [(), (3, 2)], ids=["line", "stack"])
    def test_gradient_is_np_gradient_bitwise(self, n_nodes, lead):
        g = SpatialGrid.line(-2.0, 2.0, n_nodes)
        surf = np.random.default_rng(n_nodes).normal(size=lead + (n_nodes,)) * np.exp(g.axis())
        assert gradient_surface(surf, g).tobytes() == np.gradient(surf, g.dx, axis=-1).tobytes()

    def test_second_derivative_clamped_ghost(self):
        g = SpatialGrid.line(0.0, 1.0, 5)
        surf = np.array([1.0, 2.0, 4.0, 7.0, 11.0])
        d2 = second_derivative_surface(surf, g)
        assert d2[0] == pytest.approx((surf[1] - surf[0]) / 0.25**2)
        assert d2[2] == pytest.approx((surf[3] - 2 * surf[2] + surf[1]) / 0.25**2)
