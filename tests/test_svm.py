import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import rbf_kernel, signed_kernel_matrix, sparse_to_dense
from qpipm import svm
from qpipm.ipm import SolveStatus, solve
from qpipm.model import validate_problem
from qpipm.svm import (DegenerateModelError, SvmConfig, SvmDataset, SvmModel,
                       SvmParseError, build_svm_dual, extract_model,
                       parse_libsvm, predict, training_accuracy)


def vec(pairs):
    """One sample as a one-row CSR matrix as wide as its largest index."""
    idx, vals = zip(*pairs) if pairs else ((), ())
    return sp.csr_matrix((np.array(vals, dtype=np.float64), np.array(idx, dtype=np.int64),
                          [0, len(idx)]), shape=(1, max(idx, default=-1) + 1))


def two_point_dataset():
    """Symmetric two-point separable problem: x1 = (1, 0), x2 = (0, 1)."""
    return parse_libsvm("+1 1:1\n-1 2:1\n")


class TestParseLibsvm:
    def test_basic_format(self):
        data = parse_libsvm("+1 1:0.5 3:1\n-1 2:2")
        assert len(data) == 2
        assert data.n_features == 3
        np.testing.assert_array_equal(data.labels, [1.0, -1.0])
        np.testing.assert_array_equal(data.samples[0].indices, [0, 2])
        np.testing.assert_array_equal(data.samples[1].data, [2.0])

    def test_csr_structure(self):
        """One row per sample, empty rows for feature-less samples."""
        data = parse_libsvm("+1 1:0.5 3:1\n-1\n\n+1 2:2 4:-1.5 7:3\n")
        m = data.samples
        assert type(m) is sp.csr_matrix
        assert m.shape == (3, 7) and m.dtype == np.float64
        assert m.has_canonical_format
        np.testing.assert_array_equal(m.indptr, [0, 2, 2, 5])
        np.testing.assert_array_equal(m.indices, [0, 2, 1, 3, 6])
        np.testing.assert_array_equal(m.data, [0.5, 1.0, 2.0, -1.5, 3.0])

    def test_empty_stream(self):
        with pytest.raises(SvmParseError, match="no samples"):
            parse_libsvm("")

    def test_bytes_accepted(self):
        data = parse_libsvm(b"1 1:1\n-1 1:2\n")
        assert len(data) == 2

    def test_undecodable_byte_names_its_line(self):
        with pytest.raises(SvmParseError, match="^line 2: not UTF-8 text$"):
            parse_libsvm(b"+1 1:1\n-1 2:1\xff\n")
        # a lone \r ends a line too, as for every other parse error
        with pytest.raises(SvmParseError, match="^line 2: not UTF-8 text$"):
            parse_libsvm(b"+1 1:1\r-1 2:1\xff\n")

    def test_non_binary_label(self):
        with pytest.raises(SvmParseError, match="line 2.*non-binary"):
            parse_libsvm("+1 1:1\n3 1:2")

    def test_non_numeric_label(self):
        with pytest.raises(SvmParseError, match="^line 2: label 'abc' is not numeric$"):
            parse_libsvm("+1 1:1\nabc 1:2")

    def test_malformed_feature(self):
        with pytest.raises(SvmParseError, match="line 1.*malformed"):
            parse_libsvm("+1 1:a")

    def test_non_increasing_indices(self):
        with pytest.raises(SvmParseError, match="strictly increasing"):
            parse_libsvm("+1 2:1 2:2")

    @pytest.mark.parametrize("index", ["0", "-3"])
    def test_index_below_one_is_out_of_range(self, index):
        with pytest.raises(SvmParseError, match=f"line 1: feature index {index} out of "
                                                r"range \(indices are 1-based\)"):
            parse_libsvm(f"+1 {index}:1.0")

    def test_index_beyond_int64_is_out_of_range(self):
        with pytest.raises(SvmParseError, match="line 2: feature index "
                                                "99999999999999999999999999 out of range"):
            parse_libsvm("-1 1:1\n+1 2:1 99999999999999999999999999:1")

    def test_index_of_two_to_the_63_is_out_of_range(self):
        """The largest index is the column count, which must fit int64."""
        assert parse_libsvm(f"+1 {2 ** 63 - 1}:1").n_features == 2 ** 63 - 1
        with pytest.raises(SvmParseError, match=f"line 1: feature index {2 ** 63} out of range"):
            parse_libsvm(f"+1 {2 ** 63}:1")

    def test_blank_lines_skipped(self):
        data = parse_libsvm("+1 1:1\n\n-1 1:2\n")
        assert len(data) == 2

    @pytest.mark.parametrize("text, line, char", [
        ("-1 2:1\n+1 1_0:1", 2, "'_'"),  # int reads 1_0 as 10
        ("+1 1:1_5", 1, "'_'"),  # float reads 1_5 as 15.0
        ("-1 2:1\n+1 \u0663:1", 2, "'\u0663'"),  # an Arabic-Indic 3
        ("\u0661 1:1", 1, "'\u0661'"),  # an Arabic-Indic 1, read as +1
        ("+1 1:1\u00a02:1", 1, r"'\\xa0'"),  # a no-break space
        ("+1 1:1\f-1 2:1", 1, r"'\\x0c'"),  # str.splitlines ends a line here
        ("+1 1:1\r\n-1 2:1\x1e+1 1:1", 2, r"'\\x1e'"),
    ], ids=["index-underscore", "value-underscore", "non-ascii-digit",
            "non-ascii-label", "no-break-space", "form-feed", "record-separator"])
    def test_characters_outside_libsvm_text_name_their_line(self, text, line, char):
        with pytest.raises(SvmParseError,
                           match=f"^line {line}: character {char} is not LIBSVM text$"):
            parse_libsvm(text)
        with pytest.raises(SvmParseError, match=f"^line {line}: "):
            parse_libsvm(text.encode("utf-8"))


class TestSvmDataset:
    def test_non_canonical_samples_are_stored_summed_and_sorted(self):
        """Row 0 holds a duplicate of column 2 and unsorted indices."""
        given = sp.csr_matrix((np.array([1.0, 0.5, 2.0, 4.0]), np.array([2, 0, 2, 1]),
                               np.array([0, 3, 4])), shape=(2, 3))
        assert not given.has_canonical_format
        data = SvmDataset(given, [1, -1])
        m = data.samples
        assert m.has_canonical_format and m is not given
        np.testing.assert_array_equal(m.indptr, [0, 2, 3])
        np.testing.assert_array_equal(m.indices, [0, 2, 1])
        np.testing.assert_array_equal(m.data, [0.5, 3.0, 4.0])
        np.testing.assert_array_equal(given.indices, [2, 0, 2, 1])
        np.testing.assert_array_equal(given.data, [1.0, 0.5, 2.0, 4.0])
        assert (len(data), data.n_features) == (2, 3)
        assert data.labels.dtype == np.float64

    @pytest.mark.parametrize("labels, message", [
        ([2.0, -3.0, 2.0, -3.0], r"^label 2\.0 of sample 0 is not \+1 or -1$"),
        ([1.0, -1.0, np.nan, 1.0], r"^label nan of sample 2 "),
        ([1.0, -1.0, 1.0], r"^labels of shape \(3,\) for 4 samples"),
        ([[1.0, -1.0], [1.0, -1.0]], r"^labels of shape \(2, 2\) for 4 samples"),
    ], ids=["not_plus_minus_one", "nan", "too_few", "not_1d"])
    def test_labels_must_be_one_plus_or_minus_one_per_sample(self, labels, message):
        samples = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(ValueError, match=message):
            SvmDataset(samples, labels)


class TestRbfKernel:
    def test_identical_points(self):
        x = vec([(0, 0.3), (4, 1.2)])
        assert rbf_kernel(x, x, 1.7) == 1.0

    def test_distance_two_sigma(self):
        xi = vec([(0, 2.0)])
        xj = vec([])
        # ||xi - xj||^2 = 4 = 2*sigma with sigma = 2
        assert rbf_kernel(xi, xj, 2.0) == pytest.approx(math.exp(-1.0))

    def test_unit_vectors(self):
        assert rbf_kernel(vec([(0, 1.0)]), vec([(1, 1.0)]), 1.0) \
            == pytest.approx(math.exp(-1.0))

    def test_symmetry_and_bounds(self, rng):
        for _ in range(20):
            ni, nj = rng.integers(0, 5, 2)
            xi = vec([(int(k), float(rng.standard_normal()))
                      for k in sorted(rng.choice(10, ni, replace=False))])
            xj = vec([(int(k), float(rng.standard_normal()))
                      for k in sorted(rng.choice(10, nj, replace=False))])
            kij = rbf_kernel(xi, xj, 1.3)
            assert kij == rbf_kernel(xj, xi, 1.3)
            assert 0.0 < kij <= 1.0


class TestBuildSvmDual:
    def test_two_sample_structure(self):
        data = two_point_dataset()
        p = build_svm_dual(data, SvmConfig(sigma=1.0, c=1.0))
        assert p.n == 2
        assert p.m_eq == 1
        np.testing.assert_array_equal(sparse_to_dense(p.c), [[1.0, -1.0]])
        np.testing.assert_array_equal(p.p, [-1.0, -1.0])
        h = signed_kernel_matrix(p.hessian)
        assert h[0, 0] == 1.0
        assert h[0, 1] == pytest.approx(-math.exp(-1.0))
        np.testing.assert_array_equal(p.var_bounds.lower, [0.0, 0.0])
        np.testing.assert_array_equal(p.var_bounds.upper, [1.0, 1.0])
        assert validate_problem(p) == []

    def test_hessian_exactly_symmetric(self, rng):
        lines = []
        for _ in range(12):
            y = "+1" if rng.random() < 0.5 else "-1"
            feats = " ".join(f"{j+1}:{rng.standard_normal():.6f}" for j in range(4))
            lines.append(f"{y} {feats}")
        lines.append("+1 1:9")  # ensure both classes present
        lines.append("-1 1:-9")
        data = parse_libsvm("\n".join(lines))
        sigma = 0.8
        kernel = build_svm_dual(data, SvmConfig(sigma=sigma, c=2.0)).hessian
        # the product with e_j is column j of the operator, without rounding
        cols = np.column_stack([kernel.apply(e) for e in np.eye(len(data))])
        assert np.array_equal(cols, cols.T)
        h = signed_kernel_matrix(kernel)
        assert np.array_equal(cols, h)
        y = data.labels
        expected = [[y[i] * y[j] * rbf_kernel(data.samples[i], data.samples[j], sigma)
                     for j in range(len(data))] for i in range(len(data))]
        np.testing.assert_allclose(h, expected, rtol=1e-12, atol=0)

    def test_hessian_matches_pairwise_kernel(self, rng):
        data = parse_libsvm("+1 1:0.5 2:1\n-1 2:2\n+1 3:1\n-1 1:1 3:0.5")
        cfg = SvmConfig(sigma=1.5, c=1.0)
        h = signed_kernel_matrix(build_svm_dual(data, cfg).hessian)
        y = data.labels
        for i in range(4):
            for j in range(4):
                expected = y[i] * y[j] * rbf_kernel(
                    data.samples[i], data.samples[j], cfg.sigma)
                assert h[i, j] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n, block", [(7, None), (23, 4 * 23), (40, 40)],
                             ids=["one-block", "partial-last-block", "one-row-blocks"])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 6.0])
    def test_blocked_build_matches_pairwise_kernel(self, rng, monkeypatch, n, block, sigma):
        """Real-valued features, one sample without any and three repeated
        ones, whose distance may round above 0; with ``block`` set, the rows
        per block (block // n) leave a partial last block or one row."""
        if block is not None:
            monkeypatch.setattr(svm, "_KERNEL_BLOCK", block)
        lines = ["+1", "-1 2:0.5"] + [
            f"{'+1' if rng.random() < 0.5 else '-1'} " + " ".join(
                f"{j + 1}:{rng.standard_normal():.6f}" for j in range(5))
            for _ in range(n - 5)]
        lines += lines[-3:]
        data = parse_libsvm("\n".join(lines))
        kernel = build_svm_dual(data, SvmConfig(sigma=sigma, c=1.0)).hessian
        h = signed_kernel_matrix(kernel)
        # rtol 1e-12 of each entry's |H||v|, the scale of its rounding
        v = rng.standard_normal(n)
        assert np.all(np.abs(kernel.apply(v) - h @ v) <= 1e-12 * (np.abs(h) @ np.abs(v)))
        assert np.all(np.diag(h) == 1.0)
        assert np.all(np.abs(h) <= 1.0)
        y = data.labels
        expected = [[y[i] * y[j] * rbf_kernel(data.samples[i], data.samples[j], sigma)
                     for j in range(n)] for i in range(n)]
        np.testing.assert_allclose(h, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("sigma", [1.0, 1e-15, 1e-300])
    def test_kernel_diagonal_is_exactly_one(self, rng, sigma):
        """K(x, x) = 1 for real-valued features at any sigma. The last two
        samples sit 2e5 apart, so at sigma = 1e-300 -d²/(2σ) overflows."""
        lines = [f"{'+1' if i % 2 else '-1'} " + " ".join(
            f"{j + 1}:{rng.standard_normal():.17g}" for j in range(30)) for i in range(198)]
        lines += ["+1 1:1e5", "-1 1:-1e5"]
        data = parse_libsvm("\n".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = signed_kernel_matrix(build_svm_dual(data, SvmConfig(sigma=sigma, c=1.0)).hessian)
        assert np.all(np.diag(h) == 1.0)
        if sigma == 1e-300:
            assert np.array_equal(h, np.eye(200))

    def test_build_allocates_one_n_by_n_array(self, rng, monkeypatch):
        """Peak memory: H plus one row block and O(n·d) for the features."""
        monkeypatch.setattr(svm, "_KERNEL_BLOCK", 1 << 12)
        n, d = 600, 8
        data = parse_libsvm("\n".join(
            f"{'+1' if i % 2 else '-1'} " + " ".join(
                f"{j + 1}:{rng.standard_normal():.6f}" for j in range(d)) for i in range(n)))
        rows = svm._KERNEL_BLOCK // n
        tracemalloc.start()
        try:
            build_svm_dual(data, SvmConfig(sigma=1.0, c=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n * n + rows * n + 4 * n * (d + 2) + 16 * n)

    def test_overflowing_squared_norm_is_rejected_before_the_kernel(self):
        data = parse_libsvm("+1 2:1\n+1 1:1e200\n-1 1:1\n")
        with pytest.raises(ValueError, match="sample 2: squared feature norm"):
            build_svm_dual(data, SvmConfig(sigma=1.0, c=1.0))
        assert data._kernel is None

    def test_psd_spot_check(self, rng):
        data = parse_libsvm("\n".join(
            f"{'+1' if i % 2 else '-1'} 1:{rng.standard_normal():.4f} "
            f"2:{rng.standard_normal():.4f}" for i in range(10)))
        h = signed_kernel_matrix(build_svm_dual(data, SvmConfig(sigma=1.0, c=1.0)).hessian)
        for _ in range(50):
            v = rng.standard_normal(10)
            assert v @ (h @ v) >= -1e-8 * (v @ v)

    def test_more_samples_than_the_cap_are_rejected_before_the_kernel(self, monkeypatch):
        n = svm.MAX_PRECOMPUTED_SAMPLES + 1
        data = SvmDataset(sp.csr_matrix(np.ones((n, 1))), np.where(np.arange(n) % 2, 1.0, -1.0))

        def no_kernel(*args):
            pytest.fail("the n-by-n kernel was built")

        monkeypatch.setattr(svm, "_signed_kernel", no_kernel)
        with pytest.raises(ValueError, match=f"^{n} samples exceed the dense-kernel cap "
                                             f"{svm.MAX_PRECOMPUTED_SAMPLES}$"):
            build_svm_dual(data, SvmConfig(sigma=1.0, c=1.0))
        assert data._kernel is None

    def test_single_class_rejected(self):
        data = parse_libsvm("+1 1:1\n+1 1:2")
        with pytest.raises(ValueError, match="each class"):
            build_svm_dual(data, SvmConfig(sigma=1.0, c=1.0))


class TestTrainAndPredict:
    def train(self, data, cfg):
        problem = build_svm_dual(data, cfg)
        report = solve(problem)
        assert report.status is SolveStatus.CONVERGED
        return report, extract_model(data, cfg, report.x)

    def test_two_point_symmetric_bias_zero(self):
        data = two_point_dataset()
        cfg = SvmConfig(sigma=1.0, c=10.0)
        report, model = self.train(data, cfg)
        assert model.bias == pytest.approx(0.0, abs=1e-4)
        assert abs(report.x @ data.labels) <= 1e-6

    def test_midpoint_ties_to_plus_one(self):
        data = two_point_dataset()
        cfg = SvmConfig(sigma=1.0, c=10.0)
        midpoint = vec([(0, 0.5), (1, 0.5)])
        _, model = self.train(data, cfg)
        assert predict(model, midpoint)[0] == pytest.approx(0.0, abs=1e-4)
        # the trained bias is only near 0, so the tie is built exactly: equal
        # weights on the two support vectors and bias 0 give the score 0.0
        h = signed_kernel_matrix(build_svm_dual(data, cfg).hessian)
        for a in (0.3, 1.0, 7.77):
            alpha = np.array([a, a])
            tied = SvmModel(alpha=alpha, bias=0.0, support_indices=np.array([0, 1]),
                            decision_values=data.labels * (h @ alpha), dataset=data,
                            config=cfg)
            score, label = predict(tied, midpoint)
            assert score == 0.0
            assert label == 1

    def test_hard_margin_keeps_both_support_vectors(self):
        # c = inf: a support-vector threshold proportional to c would be inf
        data = two_point_dataset()
        cfg = SvmConfig(sigma=1.0, c=np.inf)
        _, model = self.train(data, cfg)
        np.testing.assert_array_equal(model.support_indices, [0, 1])
        for x, y in zip(data.samples, data.labels):
            assert predict(model, x)[1] == y

    def test_free_support_vectors_sit_on_margin(self, rng):
        lines = []
        for i in range(16):
            y = 1 if i % 2 else -1
            base = 1.5 * y
            lines.append(f"{y:+d} 1:{base + 0.3 * rng.standard_normal():.5f} "
                         f"2:{0.4 * rng.standard_normal():.5f}")
        data = parse_libsvm("\n".join(lines))
        cfg = SvmConfig(sigma=1.0, c=5.0)
        report, model = self.train(data, cfg)
        tau = 1e-5 * cfg.c
        free = [i for i in range(len(data))
                if tau < report.x[i] < cfg.c - tau]
        assert free
        for j in free:
            score, label = predict(model, data.samples[j])
            assert score == pytest.approx(data.labels[j], abs=1e-3)
            assert label == data.labels[j]

    def test_alpha_box_and_equality_feasibility(self, rng):
        lines = [f"{1 if i % 2 else -1:+d} 1:{rng.standard_normal():.5f} "
                 f"2:{rng.standard_normal():.5f}" for i in range(14)]
        data = parse_libsvm("\n".join(lines))
        cfg = SvmConfig(sigma=1.0, c=1.0)
        report, _ = self.train(data, cfg)
        alpha = report.x
        assert np.max(np.maximum(-alpha, alpha - cfg.c)) <= 1e-6 * cfg.c
        assert abs(alpha @ data.labels) <= 1e-5 * len(data)

    def test_degenerate_model(self):
        data = two_point_dataset()
        with pytest.raises(DegenerateModelError):
            extract_model(data, SvmConfig(sigma=1.0, c=1.0), np.zeros(2))

    def test_training_accuracy_separable(self):
        data = parse_libsvm("+1 1:2\n+1 1:2.2\n-1 1:-2\n-1 1:-1.8")
        cfg = SvmConfig(sigma=1.0, c=10.0)
        _, model = self.train(data, cfg)
        assert training_accuracy(model) == 1.0

    def test_predict_matches_kernel_loop(self, rng):
        lines = [f"{1 if i % 2 else -1:+d} 1:{rng.standard_normal():.5f} "
                 f"3:{rng.standard_normal():.5f}" for i in range(14)]
        data = parse_libsvm("\n".join(lines))
        assert data.n_features == 3
        cfg = SvmConfig(sigma=0.7, c=2.0)
        _, model = self.train(data, cfg)
        # index 5 lies past the training features: it counts in ||x||^2 only
        samples = [data.samples[j] for j in range(4)] + [
            vec([(0, 0.3), (5, 1.0)]), vec([(1, -0.4)]), vec([])]
        for x in samples:
            expected = model.bias + sum(
                model.alpha[i] * data.labels[i] * rbf_kernel(data.samples[i], x, cfg.sigma)
                for i in model.support_indices)
            score, label = predict(model, x)
            assert score == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert label == (1 if expected >= 0 else -1)

    def test_predict_on_rows_of_a_wider_file_matches_kernel_loop(self, rng):
        lines = [f"{1 if i % 2 else -1:+d} 1:{rng.standard_normal():.5f} "
                 f"2:{rng.standard_normal():.5f}" for i in range(10)]
        data = parse_libsvm("\n".join(lines))
        cfg = SvmConfig(sigma=0.9, c=2.0)
        _, model = self.train(data, cfg)
        heldout = parse_libsvm("+1 1:0.3 6:1\n-1 2:-0.4 3:2\n+1\n-1 1:-1 2:0.5\n")
        assert heldout.n_features == 6 > data.n_features
        for x in heldout.samples:
            expected = model.bias + sum(
                model.alpha[i] * data.labels[i] * rbf_kernel(data.samples[i], x, cfg.sigma)
                for i in model.support_indices)
            assert predict(model, x)[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_overflowing_squared_norm_is_rejected_by_predict(self):
        data = parse_libsvm("+1 1:1\n-1 2:1\n")
        _, model = self.train(data, SvmConfig(sigma=1.0, c=1.0))
        with pytest.raises(ValueError, match="squared feature norm overflows"):
            predict(model, parse_libsvm("+1 1:1e200\n").samples[0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SvmConfig(sigma=0.0, c=1.0)
        with pytest.raises(ValueError):
            SvmConfig(sigma=1.0, c=-1.0)


class TestKernelReuse:
    def dataset(self, rng):
        return parse_libsvm("\n".join(
            f"{1 if i % 2 else -1:+d} 1:{rng.standard_normal():.5f} "
            f"2:{rng.standard_normal():.5f}" for i in range(12)))

    def test_kernel_built_once_per_dataset_and_sigma(self, rng, monkeypatch):
        """Counts the kernel build's reads of the whole feature matrix."""
        data = self.dataset(rng)
        builds = []
        toarray = data.samples.toarray

        def counting(*args, **kwargs):
            builds.append(len(data))
            return toarray(*args, **kwargs)

        monkeypatch.setattr(data.samples, "toarray", counting)
        cfg = SvmConfig(sigma=1.0, c=2.0)
        report = solve(build_svm_dual(data, cfg))
        training_accuracy(extract_model(data, cfg, report.x))
        assert len(builds) == 1

        other = SvmConfig(sigma=2.0, c=2.0)
        h = signed_kernel_matrix(build_svm_dual(data, other).hessian)
        assert len(builds) == 2
        y = data.labels
        assert h[0, 1] == pytest.approx(
            y[0] * y[1] * rbf_kernel(data.samples[0], data.samples[1], 2.0), rel=1e-12)

    def test_dual_hessian_is_the_cached_object(self, rng):
        data = self.dataset(rng)
        cfg = SvmConfig(sigma=1.0, c=2.0)
        h = build_svm_dual(data, cfg).hessian
        assert isinstance(h, svm.SignedKernel)
        assert build_svm_dual(data, SvmConfig(sigma=1.0, c=5.0)).hessian is h
        assert data._kernel[0] == 1.0 and data._kernel[1] is h

    def test_training_accuracy_reads_the_stored_decision_values(self, rng, monkeypatch):
        """extract_model scores the training set with one product through the
        cached Hessian; training_accuracy makes none, even after another
        sigma replaced the cache."""
        data = self.dataset(rng)
        cfg = SvmConfig(sigma=1.0, c=2.0)
        report = solve(build_svm_dual(data, cfg))
        products = []
        apply = svm.SignedKernel.apply

        def counting(self, v):
            products.append(self)
            return apply(self, v)

        monkeypatch.setattr(svm.SignedKernel, "apply", counting)
        model = extract_model(data, cfg, report.x)
        assert len(products) == 1 and products[0] is data._kernel[1]
        y = data.labels
        expected = [sum(report.x[i] * y[i] * rbf_kernel(data.samples[i], data.samples[j],
                                                        cfg.sigma) for i in range(len(data)))
                    for j in range(len(data))]
        np.testing.assert_allclose(model.decision_values, expected, rtol=1e-12, atol=1e-14)

        build_svm_dual(data, SvmConfig(sigma=3.0, c=2.0))
        products.clear()
        monkeypatch.setattr(data.samples, "toarray", lambda *a: pytest.fail("kernel rebuilt"))
        accuracy = training_accuracy(model)
        assert products == []
        labels = np.where(np.asarray(expected) + model.bias >= 0, 1.0, -1.0)
        assert accuracy == np.mean(labels == y)

    def test_cached_kernel_is_read_only(self, rng):
        data = self.dataset(rng)
        kernel = build_svm_dual(data, SvmConfig(sigma=1.0, c=1.0)).hessian
        assert not kernel.k.flags.writeable
        with pytest.raises(ValueError):
            kernel.k[0, 0] = 0.0
        # the labels are the kernel's own copy: changing the dataset's later
        # leaves H as built
        assert not kernel.y.flags.writeable and kernel.y is not data.labels
        with pytest.raises(ValueError):
            kernel.y[0] = -kernel.y[0]

    def test_nothing_reads_below_the_diagonal(self, rng):
        """A NaN read inside solve() raises; here the lower triangle is all
        NaN and every result equals the unpoisoned kernel's bit for bit."""
        data = self.dataset(rng)
        cfg = SvmConfig(sigma=1.0, c=2.0)
        report = solve(build_svm_dual(data, cfg))
        model = extract_model(data, cfg, report.x)
        accuracy = training_accuracy(model)

        kernel = data._kernel[1]
        k = np.array(kernel.k)
        k[np.tril_indices(len(k), -1)] = np.nan
        poisoned = svm.SignedKernel(k, kernel.y)
        object.__setattr__(data, "_kernel", (cfg.sigma, poisoned))
        problem = build_svm_dual(data, cfg)
        assert problem.hessian is poisoned
        again = solve(problem)
        assert again.status is SolveStatus.CONVERGED
        assert again.iterations == report.iterations
        for name in ("x", "lam", "lam_e", "s"):
            assert np.array_equal(getattr(again.state, name), getattr(report.state, name)), name
        remodel = extract_model(data, cfg, again.x)
        assert data._kernel[1] is poisoned
        assert np.array_equal(remodel.decision_values, model.decision_values)
        assert remodel.bias == model.bias
        assert np.array_equal(remodel.support_indices, model.support_indices)
        assert training_accuracy(remodel) == accuracy
