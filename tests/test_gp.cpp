#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "gp/gaussian_process.hpp"
#include "gp/kernel.hpp"
#include "gp/lcm.hpp"
#include "opt/optimize.hpp"
#include "rng/rng.hpp"

namespace gptc::gp {
namespace {

la::Matrix to_matrix(const std::vector<la::Vector>& rows) {
  return la::Matrix::from_rows(rows);
}

TEST(Kernel, SelfCovarianceEqualsSignalVariance) {
  for (auto kind : {KernelKind::SquaredExponential, KernelKind::Matern52}) {
    Kernel k(kind, 3);
    la::Vector h = {std::log(0.2), std::log(0.5), std::log(1.0),
                    std::log(2.5)};
    k.set_log_hyper(h);
    la::Vector x = {0.3, 0.7, 0.1};
    EXPECT_NEAR(k(x, x), 2.5, 1e-12);
  }
}

TEST(Kernel, DecaysWithDistance) {
  for (auto kind : {KernelKind::SquaredExponential, KernelKind::Matern52}) {
    Kernel k(kind, 1);
    la::Vector a = {0.0}, b = {0.1}, c = {0.5};
    EXPECT_GT(k(a, a), k(a, b));
    EXPECT_GT(k(a, b), k(a, c));
    EXPECT_GT(k(a, c), 0.0);
  }
}

TEST(Kernel, SymmetricAndStationary) {
  Kernel k(KernelKind::Matern52, 2);
  la::Vector a = {0.1, 0.9}, b = {0.4, 0.2};
  EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
  la::Vector a2 = {0.2, 1.0}, b2 = {0.5, 0.3};  // shifted by (0.1, 0.1)
  EXPECT_NEAR(k(a, b), k(a2, b2), 1e-12);
}

TEST(Kernel, ArdLengthscalesScalePerDimension) {
  Kernel k(KernelKind::SquaredExponential, 2);
  k.set_log_hyper({std::log(0.1), std::log(10.0), 0.0});
  la::Vector o = {0.0, 0.0}, dx = {0.2, 0.0}, dy = {0.0, 0.2};
  // Dimension 0 has a short lengthscale: moving along it decays much more.
  EXPECT_LT(k(o, dx), k(o, dy));
}

TEST(Kernel, GramMatrixMatchesPairwise) {
  rng::Rng rng(1);
  const auto pts = opt::random_design(6, 2, rng);
  Kernel k(KernelKind::Matern52, 2);
  const la::Matrix g = k.gram(to_matrix(pts));
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_NEAR(g(i, j), k(pts[i], pts[j]), 1e-14);
}

TEST(Kernel, CrossMatrixShapeAndValues) {
  rng::Rng rng(2);
  const auto a = opt::random_design(4, 3, rng);
  const auto b = opt::random_design(5, 3, rng);
  Kernel k(KernelKind::SquaredExponential, 3);
  const la::Matrix c = k.cross(to_matrix(a), to_matrix(b));
  EXPECT_EQ(c.rows(), 4u);
  EXPECT_EQ(c.cols(), 5u);
  EXPECT_NEAR(c(2, 3), k(a[2], b[3]), 1e-14);
}

TEST(Kernel, RejectsBadHyperSize) {
  Kernel k(KernelKind::Matern52, 2);
  EXPECT_THROW(k.set_log_hyper({0.0}), std::invalid_argument);
}

class GpFitTest : public ::testing::Test {
 protected:
  // Train on a smooth 1-d function.
  void fit_smooth(GaussianProcess& gp, int n, double noise = 0.0) {
    rng::Rng rng(42);
    std::vector<la::Vector> xs;
    la::Vector ys;
    for (int i = 0; i < n; ++i) {
      const double x = (i + 0.5) / n;
      xs.push_back({x});
      ys.push_back(std::sin(6.0 * x) + noise * rng.normal());
    }
    rng::Rng fit_rng(7);
    gp.fit(to_matrix(xs), ys, fit_rng);
  }
};

TEST_F(GpFitTest, InterpolatesNoiselessData) {
  GaussianProcess gp(1);
  fit_smooth(gp, 15);
  for (double x : {0.11, 0.43, 0.77}) {
    const Prediction p = gp.predict({x});
    EXPECT_NEAR(p.mean, std::sin(6.0 * x), 0.05) << "at x=" << x;
  }
}

TEST_F(GpFitTest, VarianceSmallerNearDataThanFarAway) {
  GaussianProcess gp(1);
  rng::Rng rng(3);
  std::vector<la::Vector> xs = {{0.1}, {0.15}, {0.2}, {0.25}, {0.3}};
  la::Vector ys = {0.0, 0.3, 0.1, -0.2, 0.4};
  gp.fit(to_matrix(xs), ys, rng);
  EXPECT_LT(gp.predict({0.2}).variance, gp.predict({0.95}).variance);
}

TEST_F(GpFitTest, PredictionRevertsToMeanFarFromData) {
  GaussianProcess gp(1);
  rng::Rng rng(4);
  std::vector<la::Vector> xs = {{0.05}, {0.1}, {0.15}};
  la::Vector ys = {10.0, 12.0, 11.0};
  gp.fit(to_matrix(xs), ys, rng);
  // Far from data the standardized mean reverts to 0 => raw mean ~ 11.
  EXPECT_NEAR(gp.predict({0.99}).mean, 11.0, 1.5);
}

TEST_F(GpFitTest, SingleSampleWorks) {
  GaussianProcess gp(2);
  rng::Rng rng(5);
  gp.fit(to_matrix({{0.5, 0.5}}), {3.0}, rng);
  EXPECT_NEAR(gp.predict({0.5, 0.5}).mean, 3.0, 1e-6);
  EXPECT_TRUE(gp.is_fitted());
  EXPECT_EQ(gp.num_samples(), 1u);
}

TEST_F(GpFitTest, RejectsNonFiniteOutputs) {
  GaussianProcess gp(1);
  rng::Rng rng(6);
  EXPECT_THROW(
      gp.fit(to_matrix({{0.1}, {0.2}}), {1.0, std::nan("")}, rng),
      std::invalid_argument);
}

TEST_F(GpFitTest, RejectsShapeMismatch) {
  GaussianProcess gp(1);
  rng::Rng rng(6);
  EXPECT_THROW(gp.fit(to_matrix({{0.1}, {0.2}}), {1.0}, rng),
               std::invalid_argument);
  EXPECT_THROW(gp.fit(to_matrix({{0.1, 0.2}}), {1.0}, rng),
               std::invalid_argument);
}

TEST_F(GpFitTest, PredictBeforeFitThrows) {
  GaussianProcess gp(1);
  EXPECT_THROW(gp.predict({0.5}), std::logic_error);
}

TEST_F(GpFitTest, PredictDimMismatchThrows) {
  GaussianProcess gp(2);
  rng::Rng rng(7);
  gp.fit(to_matrix({{0.1, 0.2}, {0.3, 0.4}}), {1.0, 2.0}, rng);
  EXPECT_THROW(gp.predict({0.5}), std::invalid_argument);
}

TEST_F(GpFitTest, LogMarginalLikelihoodImprovesWithFit) {
  // A fitted GP should have higher logML than one with arbitrary fixed
  // hyperparameters on the same data.
  rng::Rng rng(8);
  std::vector<la::Vector> xs;
  la::Vector ys;
  for (int i = 0; i < 25; ++i) {
    const double x = (i + 0.5) / 25.0;
    xs.push_back({x});
    ys.push_back(std::sin(8.0 * x));
  }
  GaussianProcess fitted(1);
  rng::Rng r1(9);
  fitted.fit(to_matrix(xs), ys, r1);

  GaussianProcess fixed(1);
  fixed.refit_state(to_matrix(xs), ys);  // default hypers, no optimization
  EXPECT_GE(fitted.log_marginal_likelihood(),
            fixed.log_marginal_likelihood() - 1e-6);
}

TEST_F(GpFitTest, NoisyDataLearnsNoise) {
  GaussianProcess gp(1);
  fit_smooth(gp, 60, /*noise=*/0.3);
  // With noisy targets the learned noise variance should be clearly
  // nonzero (in standardized units, roughly noise^2 / var(y)).
  EXPECT_GT(gp.noise_variance(), 1e-4);
}

TEST_F(GpFitTest, RefitStateKeepsHyperparameters) {
  GaussianProcess gp(1);
  fit_smooth(gp, 20);
  const la::Vector h = gp.log_hyper();
  gp.refit_state(to_matrix({{0.1}, {0.9}}), {0.0, 1.0});
  const la::Vector h2 = gp.log_hyper();
  ASSERT_EQ(h.size(), h2.size());
  for (std::size_t i = 0; i < h.size(); ++i) EXPECT_DOUBLE_EQ(h[i], h2[i]);
  EXPECT_EQ(gp.num_samples(), 2u);
}

TEST(GpDeterminism, SameSeedSameModel) {
  std::vector<la::Vector> xs = {{0.1}, {0.4}, {0.8}, {0.9}};
  la::Vector ys = {1.0, 0.5, 2.0, 1.5};
  GaussianProcess a(1), b(1);
  rng::Rng ra(11), rb(11);
  a.fit(la::Matrix::from_rows(xs), ys, ra);
  b.fit(la::Matrix::from_rows(xs), ys, rb);
  EXPECT_DOUBLE_EQ(a.predict({0.33}).mean, b.predict({0.33}).mean);
  EXPECT_DOUBLE_EQ(a.predict({0.33}).variance, b.predict({0.33}).variance);
}

// ---------------------------------------------------------------------------
// LCM

class LcmTest : public ::testing::Test {
 protected:
  // Two correlated tasks: f2 = 1.8 * f1 + 0.3 on [0,1].
  static double f1(double x) { return std::sin(5.0 * x) + 2.0; }
  static double f2(double x) { return 1.8 * f1(x) + 0.3; }

  std::vector<TaskData> make_tasks(int n_source, int n_target) {
    rng::Rng rng(21);
    std::vector<TaskData> tasks(2);
    std::vector<la::Vector> xs;
    la::Vector ys;
    for (int i = 0; i < n_source; ++i) {
      const double x = rng.uniform();
      xs.push_back({x});
      ys.push_back(f1(x));
    }
    tasks[0] = TaskData{la::Matrix::from_rows(xs), ys};
    xs.clear();
    ys.clear();
    for (int i = 0; i < n_target; ++i) {
      const double x = rng.uniform();
      xs.push_back({x});
      ys.push_back(f2(x));
    }
    tasks[1] = TaskData{xs.empty() ? la::Matrix() : la::Matrix::from_rows(xs),
                        ys};
    return tasks;
  }
};

TEST_F(LcmTest, UnequalSampleCountsSupported) {
  LcmModel model(1, 2);
  rng::Rng rng(31);
  model.fit(make_tasks(40, 5), rng);
  EXPECT_TRUE(model.is_fitted());
  EXPECT_EQ(model.num_samples(0), 40u);
  EXPECT_EQ(model.num_samples(1), 5u);
}

TEST_F(LcmTest, TransferImprovesSparseTaskPrediction) {
  // With only 4 target samples, the LCM should predict the target function
  // better than a single-task GP trained on those 4 samples, by exploiting
  // the correlated 40-sample source task.
  const auto tasks = make_tasks(40, 4);

  LcmModel lcm(1, 2);
  rng::Rng r1(32);
  lcm.fit(tasks, r1);

  GaussianProcess solo(1);
  rng::Rng r2(33);
  solo.fit(tasks[1].x, tasks[1].y, r2);

  double lcm_err = 0.0, solo_err = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double x = (i + 0.5) / 50.0;
    const double truth = f2(x);
    lcm_err += std::abs(lcm.predict(1, {x}).mean - truth);
    solo_err += std::abs(solo.predict({x}).mean - truth);
  }
  EXPECT_LT(lcm_err, solo_err);
}

TEST_F(LcmTest, ZeroSampleTargetTaskAllowed) {
  LcmModel model(1, 2);
  rng::Rng rng(34);
  model.fit(make_tasks(30, 0), rng);
  // Predictions for the empty task must exist and be finite.
  const Prediction p = model.predict(1, {0.5});
  EXPECT_TRUE(std::isfinite(p.mean));
  EXPECT_TRUE(std::isfinite(p.variance));
  EXPECT_GT(p.variance, 0.0);
}

TEST_F(LcmTest, CorrelatedTasksGetPositiveCrossCovariance) {
  LcmModel model(1, 2);
  rng::Rng rng(35);
  model.fit(make_tasks(40, 20), rng);
  EXPECT_GT(model.task_covariance(0, 1), 0.0);
  EXPECT_GT(model.task_covariance(0, 0), 0.0);
  EXPECT_GT(model.task_covariance(1, 1), 0.0);
}

TEST_F(LcmTest, SubsamplingCapRespected) {
  LcmOptions opt;
  opt.max_samples_per_task = 10;
  LcmModel model(1, 2, opt);
  rng::Rng rng(36);
  model.fit(make_tasks(50, 30), rng);
  EXPECT_EQ(model.num_samples(0), 10u);
  EXPECT_EQ(model.num_samples(1), 10u);
}

TEST_F(LcmTest, PredictInterpolatesDenseTask) {
  LcmModel model(1, 2);
  rng::Rng rng(37);
  model.fit(make_tasks(40, 10), rng);
  double err = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double x = (i + 0.5) / 20.0;
    err += std::abs(model.predict(0, {x}).mean - f1(x));
  }
  EXPECT_LT(err / 20.0, 0.15);
}

TEST_F(LcmTest, RejectsBadInputs) {
  LcmModel model(1, 2);
  rng::Rng rng(38);
  EXPECT_THROW(model.fit({}, rng), std::invalid_argument);
  EXPECT_THROW(model.predict(0, {0.5}), std::logic_error);
  std::vector<TaskData> empty_tasks(2);
  EXPECT_THROW(model.fit(empty_tasks, rng), std::invalid_argument);
  model.fit(make_tasks(10, 5), rng);
  EXPECT_THROW(model.predict(5, {0.5}), std::out_of_range);
  EXPECT_THROW(model.task_covariance(0, 2), std::out_of_range);
  EXPECT_THROW(model.predict(0, {0.5, 0.5}), std::invalid_argument);
}

TEST_F(LcmTest, TaskViewMatchesDirectPredict) {
  auto model = std::make_shared<LcmModel>(1, 2);
  rng::Rng rng(39);
  model->fit(make_tasks(20, 8), rng);
  const auto view = LcmModel::task_view(model, 1);
  const Prediction a = view->predict({0.4});
  const Prediction b = model->predict(1, {0.4});
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.variance, b.variance);
  EXPECT_EQ(view->dim(), 1u);
}

// ---------------------------------------------------------------------------
// Bit-exact assembly. The kernels cache exp of each hyperparameter once per
// covariance build; the references below are the per-entry formulas that
// recompute every exp, and each assembled value must match them bit for bit.

// k(x, y) as one expression per entry, recomputing exp(log l_i) and
// exp(log s_f^2) each time.
double reference_entry(KernelKind kind, const la::Vector& log_hyper,
                       std::span<const double> x, std::span<const double> y) {
  const std::size_t d = x.size();
  double r2 = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    const double di = (x[i] - y[i]) / std::exp(log_hyper[i]);
    r2 += di * di;
  }
  const double sf2 = std::exp(log_hyper[d]);
  if (kind == KernelKind::SquaredExponential) return sf2 * std::exp(-0.5 * r2);
  const double r = std::sqrt(r2);
  const double a = std::sqrt(5.0) * r;
  return sf2 * (1.0 + a + 5.0 * r2 / 3.0) * std::exp(-a);
}

void expect_same_bits(double got, double want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << got << " vs " << want;
}

// Log-hypers for trial t: the HyperBounds corners first, then seeded draws
// inside the box.
la::Vector trial_log_hyper(std::size_t dim, int t, rng::Rng& rng) {
  const HyperBounds b;
  la::Vector h(dim + 1);
  for (std::size_t i = 0; i < dim; ++i) {
    switch (t) {
      case 0: h[i] = b.log_lengthscale_min; break;
      case 1: h[i] = b.log_lengthscale_max; break;
      case 2:
        h[i] = i % 2 == 0 ? b.log_lengthscale_min : b.log_lengthscale_max;
        break;
      default:
        h[i] = rng.uniform(b.log_lengthscale_min, b.log_lengthscale_max);
    }
  }
  h[dim] = t == 0   ? b.log_signal_min
           : t == 1 ? b.log_signal_max
                    : rng.uniform(b.log_signal_min, b.log_signal_max);
  return h;
}

constexpr int kTrials = 8;

TEST(KernelBitExact, EntryGramAndCrossMatchPerEntryFormula) {
  rng::Rng rng(101);
  for (auto kind : {KernelKind::SquaredExponential, KernelKind::Matern52}) {
    for (std::size_t dim : {1u, 4u, 7u}) {
      const la::Matrix x = to_matrix(opt::random_design(9, dim, rng));
      const la::Matrix z = to_matrix(opt::random_design(5, dim, rng));
      for (int t = 0; t < kTrials; ++t) {
        SCOPED_TRACE("dim " + std::to_string(dim) + " trial " +
                     std::to_string(t));
        const la::Vector h = trial_log_hyper(dim, t, rng);
        Kernel k(kind, dim);
        k.set_log_hyper(h);
        const la::Matrix g = k.gram(x);
        const la::Matrix c = k.cross(x, z);
        for (std::size_t i = 0; i < x.rows(); ++i) {
          for (std::size_t j = 0; j < x.rows(); ++j) {
            const double want = reference_entry(kind, h, x.row(i), x.row(j));
            expect_same_bits(k(x.row(i), x.row(j)), want);
            expect_same_bits(g(i, j), want);
          }
          for (std::size_t j = 0; j < z.rows(); ++j)
            expect_same_bits(c(i, j),
                             reference_entry(kind, h, x.row(i), z.row(j)));
        }
      }
    }
  }
}

TEST(KernelBitExact, GpLikelihoodAndPredictMatchPerEntryFormula) {
  rng::Rng rng(102);
  const GpOptions defaults;
  for (auto kind : {KernelKind::SquaredExponential, KernelKind::Matern52}) {
    for (std::size_t dim : {1u, 4u, 7u}) {
      const la::Matrix x = to_matrix(opt::random_design(12, dim, rng));
      la::Vector y(x.rows());
      for (std::size_t i = 0; i < y.size(); ++i)
        y[i] = std::sin(3.0 * x(i, 0)) + 0.1 * static_cast<double>(i % 3);
      // The GP's output standardization, restated.
      const auto n = static_cast<double>(y.size());
      double mean = 0.0;
      for (double v : y) mean += v;
      mean /= n;
      double var = 0.0;
      for (double v : y) var += (v - mean) * (v - mean);
      var /= n;
      const double scale = std::sqrt(var);
      la::Vector y_std(y.size());
      for (std::size_t i = 0; i < y.size(); ++i)
        y_std[i] = (y[i] - mean) / scale;
      const la::Vector xq = opt::random_design(1, dim, rng).front();

      GpOptions o;
      o.kernel = kind;
      GaussianProcess gp(dim, o);
      gp.refit_state(x, y);
      for (int t = 0; t < kTrials; ++t) {
        SCOPED_TRACE("dim " + std::to_string(dim) + " trial " +
                     std::to_string(t));
        la::Vector h = trial_log_hyper(dim, t, rng);
        h.push_back(rng.uniform(-10.0, -2.0));  // log noise
        gp.set_log_hyper(h);

        const la::Vector kh(h.begin(), h.end() - 1);
        la::Matrix km(x.rows(), x.rows());
        for (std::size_t i = 0; i < x.rows(); ++i)
          for (std::size_t j = 0; j < x.rows(); ++j)
            km(i, j) = reference_entry(kind, kh, x.row(i), x.row(j));
        km.add_diagonal(std::max(std::exp(h.back()), defaults.min_noise));
        const la::Cholesky chol(std::move(km));
        const la::Vector alpha = chol.solve(y_std);
        expect_same_bits(gp.log_marginal_likelihood(),
                         -0.5 * la::dot(y_std, alpha) - 0.5 * chol.log_det() -
                             0.5 * n * std::log(2.0 * std::numbers::pi));

        la::Vector kstar(x.rows());
        for (std::size_t i = 0; i < x.rows(); ++i)
          kstar[i] = reference_entry(kind, kh, x.row(i), xq);
        const la::Vector v = chol.solve_lower(kstar);
        const double var_std = std::max(
            reference_entry(kind, kh, xq, xq) - la::dot(v, v), 0.0);
        const Prediction p = gp.predict(xq);
        expect_same_bits(p.mean, mean + scale * la::dot(kstar, alpha));
        expect_same_bits(p.variance, scale * scale * var_std);
      }
    }
  }
}

// One LCM covariance entry as the per-entry formula: for each latent q,
// B_q[i][j] = a_i * a_j (+ exp(log kappa_i) on the diagonal) times the
// unit-variance latent kernel, recomputing every exp.
double reference_lcm_entry(KernelKind kind, const la::Vector& theta,
                           std::size_t dim, std::size_t tasks,
                           std::size_t latents, std::size_t ti,
                           std::span<const double> xi, std::size_t tj,
                           std::span<const double> xj) {
  double v = 0.0;
  for (std::size_t q = 0; q < latents; ++q) {
    const std::size_t base = q * (dim + 2 * tasks);
    double b = theta[base + dim + ti] * theta[base + dim + tj];
    if (ti == tj) b += std::exp(theta[base + dim + tasks + ti]);
    double r2 = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      const double d = (xi[k] - xj[k]) / std::exp(theta[base + k]);
      r2 += d * d;
    }
    double g = 0.0;
    if (kind == KernelKind::SquaredExponential) {
      g = std::exp(-0.5 * r2);
    } else {
      const double r = std::sqrt(r2);
      const double a = std::sqrt(5.0) * r;
      g = (1.0 + a + 5.0 * r2 / 3.0) * std::exp(-a);
    }
    v += b * g;
  }
  return v;
}

TEST(LcmBitExact, PredictAndTaskCovarianceMatchPerEntryFormula) {
  constexpr std::size_t kDim = 2, kTasks = 3, kLatents = 2;
  const std::size_t counts[kTasks] = {10, 6, 3};
  rng::Rng rng(103);
  for (auto kind : {KernelKind::SquaredExponential, KernelKind::Matern52}) {
    std::vector<TaskData> tasks;
    for (std::size_t t = 0; t < kTasks; ++t) {
      const la::Matrix x = to_matrix(opt::random_design(counts[t], kDim, rng));
      la::Vector y(x.rows());
      for (std::size_t i = 0; i < y.size(); ++i)
        y[i] = std::sin(4.0 * x(i, 0)) * (1.0 + 0.3 * static_cast<double>(t)) +
               x(i, 1);
      tasks.push_back({x, y});
    }
    LcmOptions o;
    o.num_latent = kLatents;
    o.kernel = kind;
    o.fit_evaluations = 40;
    LcmModel model(kDim, kTasks, o);
    rng::Rng fit_rng(104);
    model.fit(tasks, fit_rng);
    const la::Vector& theta = model.theta();
    const auto entry = [&](std::size_t ti, std::span<const double> xi,
                           std::size_t tj, std::span<const double> xj) {
      return reference_lcm_entry(kind, theta, kDim, kTasks, kLatents, ti, xi,
                                 tj, xj);
    };

    // The model's stacking and per-task standardization, restated.
    std::vector<std::size_t> task_of;
    std::vector<la::Vector> rows;
    la::Vector y_std;
    double y_mean[kTasks], y_scale[kTasks];
    for (std::size_t t = 0; t < kTasks; ++t) {
      const auto nt = static_cast<double>(tasks[t].y.size());
      double mean = 0.0;
      for (double v : tasks[t].y) mean += v;
      mean /= nt;
      double var = 0.0;
      for (double v : tasks[t].y) var += (v - mean) * (v - mean);
      var /= nt;
      y_mean[t] = mean;
      y_scale[t] = std::sqrt(var);
      for (std::size_t i = 0; i < tasks[t].y.size(); ++i) {
        rows.emplace_back(tasks[t].x.row(i).begin(), tasks[t].x.row(i).end());
        y_std.push_back((tasks[t].y[i] - mean) / y_scale[t]);
        task_of.push_back(t);
      }
    }
    const std::size_t n = rows.size();
    const std::size_t noise_base = kLatents * (kDim + 2 * kTasks);
    la::Matrix km(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        km(i, j) = entry(task_of[i], rows[i], task_of[j], rows[j]);
    for (std::size_t i = 0; i < n; ++i)
      km(i, i) += std::max(std::exp(theta[noise_base + task_of[i]]),
                           o.min_noise);
    const la::Cholesky chol(std::move(km));
    const la::Vector alpha = chol.solve(y_std);

    for (std::size_t i = 0; i < kTasks; ++i)
      for (std::size_t j = 0; j < kTasks; ++j) {
        double want = 0.0;
        for (std::size_t q = 0; q < kLatents; ++q) {
          const std::size_t base = q * (kDim + 2 * kTasks);
          double b = theta[base + kDim + i] * theta[base + kDim + j];
          if (i == j) b += std::exp(theta[base + kDim + kTasks + i]);
          want += b;
        }
        expect_same_bits(model.task_covariance(i, j), want);
      }

    for (const la::Vector& xq : opt::random_design(4, kDim, rng))
      for (std::size_t task = 0; task < kTasks; ++task) {
        la::Vector kstar(n);
        for (std::size_t i = 0; i < n; ++i)
          kstar[i] = entry(task, xq, task_of[i], rows[i]);
        const la::Vector v = chol.solve_lower(kstar);
        const double var_std =
            std::max(entry(task, xq, task, xq) - la::dot(v, v), 0.0);
        const Prediction p = model.predict(task, xq);
        expect_same_bits(p.mean,
                         y_mean[task] + y_scale[task] * la::dot(kstar, alpha));
        expect_same_bits(p.variance,
                         y_scale[task] * y_scale[task] * var_std);
      }
  }
}

}  // namespace
}  // namespace gptc::gp
