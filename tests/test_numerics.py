"""Special functions, quadrature, and random streams."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy import integrate, special, stats

from entropy_lab.errors import DomainError, NumericError
from entropy_lab.numerics import quadrature
from entropy_lab.numerics import (
    RngStream,
    adaptive_quad,
    chi_square_cdf,
    chi_square_quantile,
    cumulative_J,
    digamma,
    integrate_J,
    student_t_cdf,
    trigamma,
)
from entropy_lab.numerics.special import _gamma_pq


class TestDigammaTrigamma:
    def test_digamma_at_one(self):
        assert digamma(1.0) == pytest.approx(-np.euler_gamma, abs=1e-13)

    def test_digamma_recurrence_oracle(self):
        # psi(5) = psi(1) + 1 + 1/2 + 1/3 + 1/4
        want = -np.euler_gamma + sum(1.0 / k for k in range(1, 5))
        assert digamma(5.0) == pytest.approx(want, abs=1e-13)

    def test_digamma_half_plus_recurrence(self):
        # psi(0.5) = -gamma - 2 ln 2, then climb to 5.5
        want = -np.euler_gamma - 2.0 * math.log(2.0) + sum(1.0 / (0.5 + k) for k in range(5))
        assert digamma(5.5) == pytest.approx(want, abs=1e-13)

    def test_trigamma_known_points(self):
        assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-13)
        assert trigamma(0.5) == pytest.approx(math.pi ** 2 / 2.0, abs=1e-12)
        want7 = math.pi ** 2 / 6.0 - sum(1.0 / k ** 2 for k in range(1, 7))
        assert trigamma(7.0) == pytest.approx(want7, abs=1e-13)

    def test_recurrences_on_grid(self):
        for x in np.arange(0.5, 20.5, 0.5):
            x = float(x)
            assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-10)
            assert trigamma(x + 1.0) - trigamma(x) == pytest.approx(-1.0 / x ** 2, abs=1e-10)

    def test_against_scipy(self):
        for x in np.geomspace(0.01, 500, 80):
            assert digamma(float(x)) == pytest.approx(float(special.digamma(x)), abs=1e-12, rel=1e-12)
            assert trigamma(float(x)) == pytest.approx(float(special.polygamma(1, x)), abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("fn", [digamma, trigamma])
    def test_domain(self, fn):
        with pytest.raises(DomainError):
            fn(-2.0)


class TestIncompleteFunctions:
    def test_reg_lower_gamma_vs_scipy(self):
        x = np.array([0.0, 0.01, 0.5, 1.0, 3.0, 10.0, 60.0])
        for a in (0.5, 1.0, 3.7, 11.0, 40.0):
            assert _gamma_pq(a, x, "P")[0] == pytest.approx(special.gammainc(a, x), abs=1e-13)


# a = 9, 19 and 39 are the n - 1 of the coverage study's n = 10, 20, 40
GAMMA_SHAPES = [0.5, 1.0, 2.5, 9.0, 19.0, 39.0]


class TestArraySpecialFunctions:
    """The incomplete gamma kernel and the chi-square CDF and quantile on
    arrays, against scipy."""

    @staticmethod
    def _grid(a):
        # geometric on each branch: from where P(a, x) ~ 1e-200 (or x = 1e-300)
        # to the switch at a + 1, then on to x = 700, where Q(a, x) < 1e-250.
        # Lower still, scipy's gammainc is itself up to 1.6e-13 off at a = 39
        # (against a 40-digit evaluation), so it could not judge 1e-13 there.
        lo = max((1e-200 * special.gamma(a + 1.0)) ** (1.0 / a), 1e-300)
        return np.concatenate([np.geomspace(lo, a + 1.0, 120, endpoint=False),
                               np.geomspace(a + 1.0, 700.0, 121)])

    @pytest.mark.parametrize("a", GAMMA_SHAPES)
    def test_p_and_q_against_scipy(self, a):
        x = self._grid(a)
        p, q = _gamma_pq(a, x, "PQ")
        for mine, ref in ((p, special.gammainc(a, x)), (q, special.gammaincc(a, x))):
            keep = ref > 1e-300
            assert ref[keep].min() < 1e-140
            assert (np.abs(mine[keep] - ref[keep]) <= 1e-13 * ref[keep]).all()

    @pytest.mark.parametrize("a", GAMMA_SHAPES)
    def test_chi_square_cdf_is_p(self, a):
        x = self._grid(a)
        assert np.array_equal(chi_square_cdf(2.0 * a, 2.0 * x), _gamma_pq(a, x, "P")[0])

    @pytest.mark.parametrize("a", GAMMA_SHAPES)
    def test_chi_square_quantile_against_scipy(self, a):
        tail = np.geomspace(1e-10, 0.5, 100)
        p = np.concatenate([tail, 1.0 - tail])
        ref = stats.chi2.ppf(p, 2.0 * a)
        assert (np.abs(chi_square_quantile(2.0 * a, p) - ref) <= 1e-13 * ref).all()

    def test_quantile_shape_and_far_lower_tail(self):
        p = np.array([[1e-300, 0.3], [0.5, 1.0 - 1e-12]])
        q = chi_square_quantile(1.0, p)
        assert q.shape == (2, 2)
        assert q[0, 0] == 0.0          # the root, ~1.6e-600, is below any double
        assert q[1, 0] == pytest.approx(stats.chi2.ppf(0.5, 1.0), rel=1e-14)

    def test_scalar_in_float_out(self):
        for value in (chi_square_cdf(3.0, 2.0), chi_square_quantile(3.0, 0.2),
                      chi_square_cdf(3.0, np.float64(2.0))):
            assert type(value) is float
        assert chi_square_cdf(3.0, np.array([2.0])).shape == (1,)

    def test_domain_anywhere_in_the_array(self):
        good = np.linspace(0.0, 5.0, 6)
        for a in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                _gamma_pq(a, good, "PQ")
        for bad in (-1e-300, math.nan):
            with pytest.raises(DomainError):
                _gamma_pq(2.0, np.append(good, bad), "PQ")
        for df in (0.0, -3.0, 1e306):     # ln Gamma(df/2 + 1) overflows at 1e306
            with pytest.raises(DomainError):
                chi_square_cdf(df, good)
            with pytest.raises(DomainError):
                chi_square_quantile(df, 0.5)
        for bad in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(DomainError):
                chi_square_quantile(4.0, np.array([0.2, bad, 0.7]))

    def test_chi_square_cdf_below_zero_and_at_infinity(self):
        assert chi_square_cdf(4.0, np.array([-3.0, 0.0, math.inf])).tolist() == [0.0, 0.0, 1.0]


class TestNormalAndQuantiles:
    # the normal quantile aci reads is the standard library's; these pin the
    # digits the aci cells rely on from it
    def test_quantile_value(self):
        assert NormalDist().inv_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-10)

    def test_quantile_over_the_aci_range(self):
        # aci reads z at p = (1 + level)/2
        p = 0.5 * (1.0 + np.linspace(0.0, 0.999, 2001))
        got = np.array([NormalDist().inv_cdf(float(v)) for v in p])
        assert np.abs(got - stats.norm.ppf(p)).max() <= 2e-15

    @pytest.mark.parametrize("p", [1.0 - 3.2e-14, 1.0 - 1e-8])
    def test_quantile_keeps_its_digits_near_one(self, p):
        # the upper tail 1 - p, which p -> 1 leaves exact, sets the digits
        z = NormalDist().inv_cdf
        assert z(p) == pytest.approx(stats.norm.ppf(p), rel=0, abs=5e-15)
        assert z(p) == -z(1.0 - p)

    def test_chi_square_quantile(self):
        assert chi_square_quantile(10, 0.975) == pytest.approx(20.483177350807388, abs=1e-6)
        assert chi_square_quantile(10, 0.025) == pytest.approx(3.2469727802368413, abs=1e-8)
        p = np.array([0.01, 0.5, 0.99])
        for df in (1, 4, 11, 30):
            assert chi_square_cdf(df, chi_square_quantile(df, p)) == pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("df", [7_700, 16_000, 100_000, 1_000_000])
    def test_chi_square_quantile_at_large_df(self, df):
        # near x = a the incomplete gamma sums need about 8.5 sqrt(a) terms,
        # and P's front loses about a ln x ulps, so Newton stops at that error
        p = np.array([1e-10, 0.025, 0.5, 0.975, 1.0 - 1e-10])
        ref = stats.chi2.ppf(p, df)
        assert (np.abs(chi_square_quantile(df, p) - ref) <= 1e-11 * ref).all()

    @pytest.mark.parametrize("df", [2e6, 5e6, 1e7])
    def test_chi_square_quantile_far_lower_tail_at_large_df(self, df):
        # the density there is near 1e-302; a Newton step that floors it
        # at 1e-300 is about 30 times too short and runs out of iterations
        ref = stats.chi2.ppf(1e-300, df)
        assert chi_square_quantile(df, 1e-300) == pytest.approx(ref, rel=1e-13)

    def test_t_cdf(self):
        for df in (3, 10, 25):
            for t in (-2.5, -0.4, 0.0, 1.7):
                assert student_t_cdf(df, t) == pytest.approx(
                    float(stats.t.cdf(t, df)), abs=1e-12)

    def test_t_cdf_closed_form_grid(self):
        # every df from 1 to 399; at df = 1 the Cauchy CDF 1/2 + atan(t)/pi,
        # since scipy's own stdtr is 1.5e-9 off there at t = 1e-8
        t = np.linspace(-30.0, 30.0, 241)
        for df in range(1, 400):
            ref = 0.5 + np.arctan(t) / math.pi if df == 1 else stats.t.cdf(t, df)
            mine = np.array([student_t_cdf(df, x) for x in t])
            assert np.abs(mine - ref).max() <= 1e-13, df

    def test_t_cdf_tails_and_ends(self):
        assert student_t_cdf(8, -2.0) == pytest.approx(float(stats.t.sf(2.0, 8)), abs=1e-15)
        assert student_t_cdf(np.int64(4), 1.0) == pytest.approx(
            float(stats.t.cdf(1.0, 4)), abs=1e-15)
        for df in (1, 2, 7):
            assert student_t_cdf(df, 0.0) == 0.5
            assert student_t_cdf(df, math.inf) == 1.0
            assert student_t_cdf(df, -math.inf) == 0.0

    @pytest.mark.parametrize("df", [0, -3, 8.0, 2.5, True, math.inf])
    def test_t_cdf_needs_integer_df(self, df):
        with pytest.raises(DomainError):
            student_t_cdf(df, 1.0)


def _j_oracle(a, y, k):
    # independent route: scipy quad with the algebraic endpoint weight kept
    f = lambda t: (2.0 + t) ** (-a) * math.log(2.0 + t) ** k
    val, _ = integrate.quad(f, 0.0, y, weight="alg", wvar=(-0.5, 0.0), limit=300,
                            epsabs=1e-13, epsrel=1e-12)
    return val


class TestQuadrature:
    def test_adaptive_quad_sine(self):
        assert adaptive_quad(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("a,u,k", [(5.5, 2.0, 0), (5.5, 2.0, 1), (999.5, 3.0, 1),
                                       (1.5, 10.0, 0)])
    def test_adaptive_quad_is_the_cumulative_engine(self, a, u, k):
        # adaptive_quad cuts [0, u] at each decade 10^k below u
        got = adaptive_quad(quadrature._kernel(a, k), 0.0, u)
        cuts = [0.0, *(c for c in (1.0, 10.0, 100.0) if c < u), u]
        assert got == cumulative_J(a, np.array(cuts), k)[-1]
        assert type(got) is float

    @pytest.mark.parametrize("b", [10.0, 1000.0, 1e6])
    def test_adaptive_quad_on_a_long_interval(self, b):
        # J_0(3/2, y) = sqrt(y / (2 + y)), y = b^2: the mass sits near u = 0,
        # which the decade cuts keep in view however long [0, b] is
        got = adaptive_quad(quadrature._kernel(1.5, 0), 0.0, b)
        assert got == pytest.approx(b / math.sqrt(2.0 + b * b), rel=1e-12)

    def test_adaptive_quad_ends(self):
        assert adaptive_quad(np.exp, 1.5, 1.5) == 0.0
        for a, b in ((1.0, 0.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                     (0.0, math.nan)):
            with pytest.raises(DomainError):
                adaptive_quad(np.exp, a, b)

    def test_j_empty_interval(self):
        assert integrate_J(5.5, 0.0, 0) == 0.0

    def test_j_small_y_expansion(self):
        # leading order: 2^-a int_0^y t^(-1/2) dt = 2^(1-a) sqrt(y)
        y = 1e-8
        lead = 2.0 ** (1.0 - 5.5) * math.sqrt(y)
        assert integrate_J(5.5, y, 0) == pytest.approx(lead, rel=2e-8)

    @pytest.mark.parametrize("a,y,k", [(5.5, 4.0, 1), (5.5, 4.0, 0), (7.5, 0.3, 1),
                                       (2.5, 150.0, 0), (4.0, 1e6, 1)])
    def test_j_against_finer_oracle(self, a, y, k):
        assert integrate_J(a, y, k) == pytest.approx(_j_oracle(a, y, k), rel=1e-10)

    def test_j_increasing_in_y(self):
        ys = np.geomspace(1e-4, 500.0, 40)
        vals = [integrate_J(5.5, float(y), 0) for y in ys]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_j_divergent_request(self):
        for a in (0.5, 5.5):
            with pytest.raises(DomainError):
                integrate_J(a, math.inf, 0)

    def test_j_bad_args(self):
        with pytest.raises(DomainError):
            integrate_J(5.5, -1.0, 0)
        with pytest.raises(DomainError):
            integrate_J(5.5, 1.0, 2)

    @pytest.mark.parametrize("a,k", [(5.5, 0), (5.5, 1), (25.5, 0), (1.5, 1)])
    def test_cumulative_j_against_oracle_at_every_node(self, a, k):
        u = np.concatenate(([0.0], np.geomspace(1e-3, 40.0, 60)))
        vals = cumulative_J(a, u, k)
        assert vals[0] == 0.0
        for ui, v in zip(u[1:], vals[1:]):
            assert v == pytest.approx(_j_oracle(a, ui * ui, k), rel=1e-10)

    def test_cumulative_j_repeated_node(self):
        vals = cumulative_J(5.5, np.array([0.0, 0.5, 0.5, 2.0]), 0)
        assert vals[1] == vals[2]

    def test_cumulative_j_unmeetable_spec(self, monkeypatch):
        monkeypatch.setattr(quadrature, "REL_TOL", 1e-20)
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 1)
        with pytest.raises(NumericError):
            cumulative_J(5.5, np.linspace(0.0, 3.0, 20), 0)
        with pytest.raises(NumericError):
            integrate_J(5.5, 4.0, 0)

    def test_cumulative_j_non_finite_integrand(self):
        for a in (math.nan, -400.0):  # (2 + u^2)^400 overflows at u = 1000
            with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
                cumulative_J(a, np.array([0.0, 1.0, 1000.0]), 0)

    def test_cumulative_j_bad_nodes(self):
        for u in (np.array([0.1, 1.0]), np.array([0.0, 2.0, 1.0]), np.array([]),
                  np.array([0.0, math.inf]), np.zeros((2, 2))):
            with pytest.raises(DomainError):
                cumulative_J(5.5, u, 0)
        with pytest.raises(DomainError):
            cumulative_J(5.5, np.array([0.0, 1.0]), 2)


class TestRngStream:
    def test_bit_identical_replay(self):
        a = RngStream(1234, 7).generator.standard_normal(1000)
        b = RngStream(1234, 7).generator.standard_normal(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(1234, 7).generator.random(100)
        b = RngStream(1234, 8).generator.random(100)
        c = RngStream(1235, 7).generator.random(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seeds_past_two_to_the_63_stay_distinct(self):
        # keyed modulo 2**64, not through a float cast that mapped -5, -6, -7
        # and 0 to one key with a RuntimeWarning (an error in this suite)
        draws = [RngStream(s, 0).generator.random(4).tolist()
                 for s in (-5, -6, -7, 0, 2**63, 2**63 + 1)]
        assert len({tuple(d) for d in draws}) == len(draws)

    def test_chi_square_moments(self):
        draws = RngStream(42, 0).generator.chisquare(10, 1_000_000)
        assert draws.mean() == pytest.approx(10.0, abs=0.02)
        assert draws.var() == pytest.approx(20.0, abs=0.3)

    def test_gamma_moments(self):
        draws = RngStream(42, 1).generator.gamma(5.5, 2.0, 1_000_000)
        assert draws.mean() == pytest.approx(11.0, abs=0.02)

    def test_gamma_small_shape(self):
        draws = RngStream(42, 2).generator.gamma(0.3, 1.0, 200_000)
        assert draws.mean() == pytest.approx(0.3, abs=0.01)

    def test_normal_ks(self):
        draws = RngStream(7, 3).generator.standard_normal(1_000_000)
        d = stats.kstest(draws, "norm").statistic
        assert d < 0.002

    def test_uniform_range(self):
        u = RngStream(5, 0).generator.random(10_000)
        assert (u >= 0.0).all() and (u < 1.0).all()
