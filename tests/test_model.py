"""Sufficient statistics, losses, shift constants, and data ingestion."""

import math

import numpy as np
import pytest
from scipy import special

import entropy_lab as el
from entropy_lab.errors import DataError, DomainError
from entropy_lab.model import load_paired_csv, load_samples
from references import gamma_shift_root, loss_deriv


class TestSuffStats:
    def test_boeing_reduction(self, boeing_stats):
        st = boeing_stats
        assert st.n == 6
        assert st.mean1 == 80.5
        assert st.mean2 == 106.5
        assert st.s2 == 115597.0
        assert st.w == pytest.approx(0.0764716, abs=1e-7)
        # defining identity w * s = mean2 - mean1
        assert st.w * st.s == pytest.approx(st.mean2 - st.mean1, rel=1e-12)

    def test_symmetric_toy(self):
        st = el.suff_stats(el.TwoSampleData([0.0, 2.0], [0.0, 2.0]))
        assert st.mean1 == st.mean2 == 1.0
        assert st.s2 == 4.0
        assert st.w == 0.0

    def test_degenerate(self):
        with pytest.raises(DataError):
            el.suff_stats(el.TwoSampleData([0.0, 0.0], [0.0, 0.0]))

    def test_unequal_sizes_rejected(self):
        with pytest.raises(DataError):
            el.TwoSampleData([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_too_small(self):
        with pytest.raises(DataError):
            el.TwoSampleData([1.0], [2.0])

    def test_nonfinite(self):
        with pytest.raises(DataError):
            el.TwoSampleData([1.0, math.nan], [1.0, 2.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sample", [[1e200, 2e200, 3e200], [1e308, 5e307, -1e308],
                                        [1e308, 1e308, 1e308]])
    def test_overflowing_sum_of_squares(self, sample):
        with pytest.raises(DataError, match="overflows"):
            el.suff_stats(el.TwoSampleData(sample, [1.0, 2.0, 4.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [-520, -700, -1000])
    def test_underflowing_sum_of_squares_is_rescaled(self, k):
        # SS0 underflows below 2^-1022; W and S keep every bit of the unscaled data's
        x, y = np.array([1.0, 4.0, 2.5, 7.0]), np.array([2.0, 6.5, 3.5, 8.0])
        st = el.suff_stats(el.TwoSampleData(x, y))
        tiny = el.suff_stats(el.TwoSampleData(np.ldexp(x, k), np.ldexp(y, k)))
        assert tiny.w == st.w
        assert tiny.s == math.ldexp(st.s, k)
        assert tiny.s2 == math.ldexp(st.s2, 2 * k)  # subnormal or 0

    def test_affine_invariance_of_w(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 3.0, 9)
        y = rng.normal(4.0, 3.0, 9)
        st = el.suff_stats(el.TwoSampleData(x, y))
        a, b1, b2 = 2.5, 3.0, -1.0
        st2 = el.suff_stats(el.TwoSampleData(a * x + b1, a * y + b2))
        # w is invariant up to the shift moving mean2 - mean1
        assert st2.w == pytest.approx((a * (st.mean2 - st.mean1) + b2 - b1) / (a * st.s), rel=1e-12)
        assert math.log(st2.s) == pytest.approx(math.log(st.s) + math.log(a), rel=1e-12)
        # pure scaling without shifts leaves w unchanged
        st3 = el.suff_stats(el.TwoSampleData(a * x, a * y))
        assert st3.w == pytest.approx(st.w, rel=1e-12)


class TestLoss:
    def test_squared_error(self, l1):
        assert float(l1.value(3.0)) == 9.0
        assert loss_deriv(l1, 3.0) == 6.0

    def test_linex_at_zero(self):
        loss = el.Loss.linex(-3.0)
        assert float(loss.value(0.0)) == 0.0
        assert loss_deriv(loss, 0.0) == 0.0

    def test_linex_value(self):
        loss = el.Loss.linex(2.0)
        assert float(loss.value(0.5)) == pytest.approx(math.e - 2.0, abs=1e-12)
        assert loss_deriv(loss, 0.5) == pytest.approx(2.0 * (math.e - 1.0), abs=1e-12)

    def test_invalid_a1(self):
        with pytest.raises(DomainError):
            el.Loss.linex(0.0)

    @pytest.mark.parametrize("a1", [1e-300, -1e-12, 9.99e-4, -9.99e-4, math.inf, math.nan])
    def test_linex_refuses_a1_below_the_shift_constants_resolution(self, a1):
        with pytest.raises(DomainError, match=r"\|a1\| >= 1e-3"):
            el.Loss.linex(a1)
        assert el.Loss.linex(math.copysign(1e-3, a1)).a1 == math.copysign(1e-3, a1)

    @pytest.mark.parametrize("loss", [el.Loss.squared_error(), el.Loss.linex(-3.0),
                                      el.Loss.linex(2.0)])
    def test_derivative_strictly_increasing(self, loss):
        t = np.linspace(-2.0, 2.0, 101)
        d = [loss_deriv(loss, float(v)) for v in t]
        assert (np.diff(d) > 0).all()

    def test_vectorized_value_matches_scalar(self, l1):
        t = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(l1.value(t), [1.0, 0.0, 4.0])

    def test_shift_reads_only_the_moment_its_loss_needs(self, l1):
        def unused(*args):
            raise AssertionError("moment not needed by this loss")

        assert l1.shift(3.0, lambda: 0.25, unused) == -0.25
        assert el.Loss.linex(2.0).shift(3.0, unused, lambda a: 0.5 * a) == -0.5

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shift", [lambda loss: el.d0(loss, 6),
                                       lambda loss: el.m0(loss, 6),
                                       lambda loss: el.bz_r0(0.3, 6, loss)])
    def test_linex_moment_must_exist(self, shift):
        # V's density is ~ v^(shape-1) at 0, so E[V^(a1/2)] needs
        # shape + a1/2 > 0: shape 5 for d0, 5.5 for m0 and r0 at n = 6
        with pytest.raises(DomainError, match="shape \\+ a1/2 > 0"):
            shift(el.Loss.linex(-12.0))
        assert math.isfinite(shift(el.Loss.linex(-9.0)))
        # and it overflows at a1 = 1e308 (math.lgamma raises OverflowError):
        # no -inf or nan shift comes back
        with pytest.raises(DomainError, match="not finite"):
            shift(el.Loss.linex(1e308))

    def test_csv_fields(self, l1):
        assert l1.csv_fields == "l1,"
        assert el.Loss.linex(-3.0).csv_fields == "linex,-3.0"


class TestShiftConstants:
    def test_d0_squared_error(self, l1):
        assert el.d0(l1, 6) == pytest.approx(-1.0996324244958728, abs=1e-12)
        want = -0.5 * (math.log(2.0) + float(special.digamma(5)))
        assert el.d0(l1, 6) == pytest.approx(want, abs=1e-13)

    def test_d0_linex_closed_form(self):
        for a1 in (-3.0, -2.0, 2.0, 4.0):
            want = -(0.5 * a1 * math.log(2.0)
                     + float(special.gammaln(5 + a1 / 2)) - float(special.gammaln(5))) / a1
            assert el.d0(el.Loss.linex(a1), 6) == pytest.approx(want, abs=1e-12)

    def test_m0_squared_error(self, l1):
        assert el.m0(l1, 6) == pytest.approx(-1.152120164570848, abs=1e-12)
        want = -0.5 * (math.log(2.0) + float(special.digamma(5.5)))
        assert el.m0(l1, 6) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_generic_root_matches_closed_form_l1(self, l1, n):
        assert gamma_shift_root(l1, n - 1.0) == pytest.approx(el.d0(l1, n), abs=1e-9)
        assert gamma_shift_root(l1, n - 0.5) == pytest.approx(el.m0(l1, n), abs=1e-9)

    @pytest.mark.parametrize("n", [4, 6, 15])
    def test_generic_root_matches_closed_form_linex(self, linex_m3, n):
        assert gamma_shift_root(linex_m3, n - 1.0) == pytest.approx(el.d0(linex_m3, n), abs=1e-9)
        assert gamma_shift_root(linex_m3, n - 0.5) == pytest.approx(el.m0(linex_m3, n), abs=1e-9)

    def test_d0_exceeds_m0_everywhere(self, l1, linex_m3):
        for loss in (l1, linex_m3, el.Loss.linex(2.0)):
            for n in range(3, 51):
                assert el.d0(loss, n) > el.m0(loss, n)

    def test_l1_gap_identity(self, l1):
        # d0 - m0 = [psi((2n-1)/2) - psi(n-1)] / 2 under squared error
        for n in (3, 6, 10, 25):
            gap = el.d0(l1, n) - el.m0(l1, n)
            want = 0.5 * (float(special.digamma((2 * n - 1) / 2)) - float(special.digamma(n - 1)))
            assert gap == pytest.approx(want, abs=1e-12)

    def test_linex_domain_guard(self):
        with pytest.raises(DomainError):
            el.d0(el.Loss.linex(-12.0), 6)  # n - 1 + a1/2 <= 0

    @pytest.mark.parametrize("a1", [1e-3, -1e-3])
    def test_shift_constants_at_the_smallest_a1(self, a1):
        # d0 and m0 divide ln Gamma(s + h) - ln Gamma(s), h = a1/2, which
        # cancels, by a1; the oracle divides its Taylor series
        # sum_k h^k psi^(k-1)(s) / k! by h term by term, so nothing cancels
        # (within 4.4e-16 of 40-digit mpmath on this grid)
        def want(shape):
            h = 0.5 * a1
            series = sum(h ** (k - 1) * float(special.polygamma(k - 1, shape)) / math.factorial(k)
                         for k in range(1, 13))
            return -0.5 * (math.log(2.0) + series)

        for n in [*range(2, 61), 100, 300, 1000]:
            loss = el.Loss.linex(a1)
            assert el.d0(loss, n) == pytest.approx(want(n - 1.0), rel=0, abs=1e-8)
            assert el.m0(loss, n) == pytest.approx(want(n - 0.5), rel=0, abs=1e-8)

    def test_entropy_identity(self):
        for tau in (-1.0, 0.0, 4.7):
            assert el.entropy_of_log_sigma(tau) - 2.0 * tau == pytest.approx(
                1.0 + math.log(2.0 * math.pi), abs=1e-12)


class TestIngestion:
    def test_single_column_with_comments(self, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text("# failure times\n194\n5\n 41 # inline\n\n29\n33\n181\n")
        vals = load_samples(f)
        assert list(vals) == [194.0, 5.0, 41.0, 29.0, 33.0, 181.0]

    def test_parse_error_reports_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1.0\nnope\n3.0\n")
        with pytest.raises(DataError, match=r"bad\.txt:2"):
            load_samples(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_samples(tmp_path / "absent.txt")

    def test_paired_csv(self, tmp_path):
        f = tmp_path / "two.csv"
        f.write_text("sample1,sample2\n1,4\n2,5\n3,6\n")
        data = load_paired_csv(f)
        assert list(data.sample1) == [1.0, 2.0, 3.0]
        assert list(data.sample2) == [4.0, 5.0, 6.0]

    def test_paired_csv_bad_header(self, tmp_path):
        f = tmp_path / "two.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="header"):
            load_paired_csv(f)
