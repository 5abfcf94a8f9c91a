import math

import numpy as np
import pytest

from oracles import rbf_kernel, sparse_to_dense
from qpipm.ipm import SolveStatus, solve
from qpipm.model import DenseHessian, validate_problem
from qpipm.svm import (DegenerateModelError, SparseVector, SvmConfig,
                       SvmDataset, SvmModel, SvmParseError, build_svm_dual,
                       extract_model, parse_libsvm, predict, training_accuracy)


def vec(pairs):
    idx, vals = zip(*pairs) if pairs else ((), ())
    return SparseVector(np.array(idx, dtype=np.int64), np.array(vals))


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
        np.testing.assert_array_equal(data.samples[1].values, [2.0])

    def test_empty_stream(self):
        with pytest.raises(SvmParseError, match="no samples"):
            parse_libsvm("")

    def test_bytes_accepted(self):
        data = parse_libsvm(b"1 1:1\n-1 1:2\n")
        assert len(data) == 2

    def test_undecodable_byte_names_its_line(self):
        with pytest.raises(SvmParseError, match="^line 2: not UTF-8 text$"):
            parse_libsvm(b"+1 1:1\n-1 2:1\xff\n")

    def test_non_binary_label(self):
        with pytest.raises(SvmParseError, match="line 2.*non-binary"):
            parse_libsvm("+1 1:1\n3 1:2")

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

    def test_blank_lines_skipped(self):
        data = parse_libsvm("+1 1:1\n\n-1 1:2\n")
        assert len(data) == 2


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
        h = p.hessian.m
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
        p = build_svm_dual(data, SvmConfig(sigma=0.8, c=2.0))
        h = p.hessian.m
        assert np.array_equal(h, h.T)

    def test_hessian_matches_pairwise_kernel(self, rng):
        data = parse_libsvm("+1 1:0.5 2:1\n-1 2:2\n+1 3:1\n-1 1:1 3:0.5")
        cfg = SvmConfig(sigma=1.5, c=1.0)
        p = build_svm_dual(data, cfg)
        y = data.labels
        for i in range(4):
            for j in range(4):
                expected = y[i] * y[j] * rbf_kernel(
                    data.samples[i], data.samples[j], cfg.sigma)
                assert p.hessian.m[i, j] == pytest.approx(expected, rel=1e-12)

    def test_psd_spot_check(self, rng):
        data = parse_libsvm("\n".join(
            f"{'+1' if i % 2 else '-1'} 1:{rng.standard_normal():.4f} "
            f"2:{rng.standard_normal():.4f}" for i in range(10)))
        p = build_svm_dual(data, SvmConfig(sigma=1.0, c=1.0))
        for _ in range(50):
            v = rng.standard_normal(10)
            assert v @ (p.hessian.m @ v) >= -1e-8 * (v @ v)

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
        for a in (0.3, 1.0, 7.77):
            tied = SvmModel(alpha=np.array([a, a]), bias=0.0,
                            support_indices=np.array([0, 1]), dataset=data,
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
        samples = data.samples[:4] + [vec([(0, 0.3), (5, 1.0)]), vec([(1, -0.4)]), vec([])]
        for x in samples:
            expected = model.bias + sum(
                model.alpha[i] * data.labels[i] * rbf_kernel(data.samples[i], x, cfg.sigma)
                for i in model.support_indices)
            score, label = predict(model, x)
            assert score == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert label == (1 if expected >= 0 else -1)

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
        builds = []
        dense_matrix = SvmDataset.dense_matrix

        def counting(self):
            builds.append(len(self))
            return dense_matrix(self)

        monkeypatch.setattr(SvmDataset, "dense_matrix", counting)
        data = self.dataset(rng)
        cfg = SvmConfig(sigma=1.0, c=2.0)
        report = solve(build_svm_dual(data, cfg))
        training_accuracy(extract_model(data, cfg, report.x))
        assert len(builds) == 1

        other = SvmConfig(sigma=2.0, c=2.0)
        h = build_svm_dual(data, other).hessian.m
        assert len(builds) == 2
        y = data.labels
        assert h[0, 1] == pytest.approx(
            y[0] * y[1] * rbf_kernel(data.samples[0], data.samples[1], 2.0), rel=1e-12)

    def test_cached_kernel_is_read_only(self, rng):
        h = build_svm_dual(self.dataset(rng), SvmConfig(sigma=1.0, c=1.0)).hessian.m
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0, 0] = 0.0
