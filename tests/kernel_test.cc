// Tests for the fast kernel layer (util/parallel.h + the blocked GEMM
// family): bit-identity of the blocked/pooled kernels against the naive
// scalar loops they replaced, across thread budgets {1, 2, 3, 8} and
// adversarial shapes (M/N/K not multiples of the tile size, strided and
// asymmetrically padded convolutions, 1x1 and 7x7 kernels), plus the
// Tensor::count overflow guard and the compute_gradients serialization
// identity on the fast path. PR 4 adds the memory-plan layer's coverage:
// cached-im2col conv backward == uncached across budgets {1, 2, 8} and
// adversarial geometries (pad > kernel, 1x1, stride 2), util::Arena
// reuse/rewind/reset semantics, and the Debug zero-allocation contract
// for steady-state train steps. PR 6 adds the kernel-ISA dispatch layer:
// the portable and AVX2 microkernel families must be bit-identical to
// each other and to the naive references on remainder-heavy shapes, an
// MBS_KERNEL=avx2 request on a host without AVX2 must fall back cleanly,
// and the raw-pointer norm-loop rewrite must equal the legacy Tensor::at()
// form bit for bit. The conv data gradient (transposed-conv GEMM or
// scatter, chosen by shape) is memcmp-checked against the seed scatter
// nest across strides, pads, kernels, channel and batch counts, dY
// densities, thread budgets and both ISA families.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/arena.h"

#include "train/data.h"
#include "train/gemm_microkernels.h"
#include "train/im2col.h"
#include "train/model.h"
#include "train/norm.h"
#include "train/ops.h"
#include "train/optim.h"
#include "train/trainer.h"
#include "util/cpu.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace mbs::train {
namespace {

const std::vector<int> kBudgets{1, 2, 3, 8};

/// Restores an approximation of the default budget (hardware concurrency)
/// when a test finishes pinning it.
struct BudgetGuard {
  ~BudgetGuard() { util::set_thread_budget(-1); }  // back to MBS_THREADS
};

void expect_bits_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.size()) * sizeof(float)))
      << what << ": payload bits differ";
}

/// Runs `make` under every budget in kBudgets and bit-compares everything
/// against the budget-1 result.
void expect_budget_invariant(const std::function<std::vector<Tensor>()>& make,
                             const char* what) {
  BudgetGuard guard;
  util::set_thread_budget(1);
  const std::vector<Tensor> reference = make();
  for (int budget : kBudgets) {
    util::set_thread_budget(budget);
    const std::vector<Tensor> got = make();
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      expect_bits_equal(got[i], reference[i],
                        (std::string(what) + " budget " +
                         std::to_string(budget) + " tensor " +
                         std::to_string(i))
                            .c_str());
  }
}

// ---- Naive references (the seed's scalar loops, kept verbatim) --------------

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i)
    for (int p = 0; p < k; ++p) {
      const float av = a[static_cast<std::int64_t>(i) * k + p];
      if (av == 0.0f) continue;
      for (int j = 0; j < n; ++j)
        c[static_cast<std::int64_t>(i) * n + j] +=
            av * b[static_cast<std::int64_t>(p) * n + j];
    }
  return c;
}

Tensor naive_matmul_bt(const Tensor& a, const Tensor& b) {
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double acc = 0;
      for (int p = 0; p < k; ++p)
        acc += static_cast<double>(a[static_cast<std::int64_t>(i) * k + p]) *
               b[static_cast<std::int64_t>(j) * k + p];
      c[static_cast<std::int64_t>(i) * n + j] = static_cast<float>(acc);
    }
  return c;
}

Tensor naive_matmul_at(const Tensor& a, const Tensor& b) {
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (int p = 0; p < k; ++p)
    for (int i = 0; i < m; ++i) {
      const float av = a[static_cast<std::int64_t>(p) * m + i];
      if (av == 0.0f) continue;
      for (int j = 0; j < n; ++j)
        c[static_cast<std::int64_t>(i) * n + j] +=
            av * b[static_cast<std::int64_t>(p) * n + j];
    }
  return c;
}

int ref_out_dim(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

Tensor naive_conv2d_forward(const Tensor& x, const Tensor& w,
                            const Tensor& bias, int stride, int pad) {
  const int n = x.dim(0), ci = x.dim(1), ih = x.dim(2), iw = x.dim(3);
  const int co = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int oh = ref_out_dim(ih, kh, stride, pad);
  const int ow = ref_out_dim(iw, kw, stride, pad);
  Tensor y({n, co, oh, ow});
  for (int b = 0; b < n; ++b)
    for (int o = 0; o < co; ++o) {
      const float bv = bias.empty() ? 0.0f : bias[o];
      for (int yh = 0; yh < oh; ++yh)
        for (int yw = 0; yw < ow; ++yw) {
          float acc = bv;
          for (int c = 0; c < ci; ++c)
            for (int r = 0; r < kh; ++r) {
              const int xh = yh * stride - pad + r;
              if (xh < 0 || xh >= ih) continue;
              for (int s = 0; s < kw; ++s) {
                const int xw = yw * stride - pad + s;
                if (xw < 0 || xw >= iw) continue;
                acc += x.at(b, c, xh, xw) * w.at(o, c, r, s);
              }
            }
          y.at(b, o, yh, yw) = acc;
        }
    }
  return y;
}

Conv2dGrads naive_conv2d_backward(const Tensor& x, const Tensor& w,
                                  const Tensor& dy, int stride, int pad,
                                  bool need_dx = true) {
  const int n = x.dim(0), ci = x.dim(1), ih = x.dim(2), iw = x.dim(3);
  const int co = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int oh = dy.dim(2), ow = dy.dim(3);
  Conv2dGrads g;
  g.dw = Tensor({co, ci, kh, kw});
  g.dbias = Tensor({co});
  if (need_dx) g.dx = Tensor({n, ci, ih, iw});
  for (int b = 0; b < n; ++b)
    for (int o = 0; o < co; ++o)
      for (int yh = 0; yh < oh; ++yh)
        for (int yw = 0; yw < ow; ++yw) {
          const float d = dy.at(b, o, yh, yw);
          if (d == 0.0f) continue;
          g.dbias[o] += d;
          for (int c = 0; c < ci; ++c)
            for (int r = 0; r < kh; ++r) {
              const int xh = yh * stride - pad + r;
              if (xh < 0 || xh >= ih) continue;
              for (int s = 0; s < kw; ++s) {
                const int xw = yw * stride - pad + s;
                if (xw < 0 || xw >= iw) continue;
                g.dw.at(o, c, r, s) += d * x.at(b, c, xh, xw);
                if (need_dx) g.dx.at(b, c, xh, xw) += d * w.at(o, c, r, s);
              }
            }
        }
  return g;
}

// ---- GEMM family: blocked == naive, bit for bit -----------------------------

struct GemmShapeCase {
  int m, k, n;
};

class BlockedGemm : public ::testing::TestWithParam<GemmShapeCase> {};

TEST_P(BlockedGemm, MatchesNaiveLoopsBitForBit) {
  const GemmShapeCase p = GetParam();
  util::Rng rng(17);
  const Tensor a = Tensor::randn({p.m, p.k}, rng);
  const Tensor b = Tensor::randn({p.k, p.n}, rng);
  Tensor bt({p.n, p.k});
  for (int i = 0; i < p.k; ++i)
    for (int j = 0; j < p.n; ++j)
      bt[static_cast<std::int64_t>(j) * p.k + i] =
          b[static_cast<std::int64_t>(i) * p.n + j];
  Tensor at({p.k, p.m});
  for (int i = 0; i < p.m; ++i)
    for (int j = 0; j < p.k; ++j)
      at[static_cast<std::int64_t>(j) * p.m + i] =
          a[static_cast<std::int64_t>(i) * p.k + j];

  const Tensor ref = naive_matmul(a, b);
  const Tensor ref_bt = naive_matmul_bt(a, bt);
  const Tensor ref_at = naive_matmul_at(at, b);
  BudgetGuard guard;
  for (int budget : kBudgets) {
    util::set_thread_budget(budget);
    expect_bits_equal(matmul(a, b), ref, "matmul");
    expect_bits_equal(matmul_bt(a, bt), ref_bt, "matmul_bt");
    expect_bits_equal(matmul_at(at, b), ref_at, "matmul_at");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AdversarialShapes, BlockedGemm,
    ::testing::Values(GemmShapeCase{17, 29, 23},   // nothing divides the tiles
                      GemmShapeCase{1, 1, 1},      // degenerate
                      GemmShapeCase{4, 8, 64},     // exact tile/panel multiples
                      GemmShapeCase{5, 3, 7},      // smaller than one tile
                      GemmShapeCase{129, 65, 130},  // crosses the panel width
                      GemmShapeCase{64, 1, 9}));   // K = 1

TEST(BlockedGemm, SparseInputsMatchTheSkippingNaiveLoop) {
  // The naive loops skipped zero multiplicands; the blocked kernels do not.
  // Equality on zero-rich inputs (exactly what im2col padding produces) is
  // the regression test for that dropped skip.
  util::Rng rng(18);
  Tensor a = Tensor::randn({33, 31}, rng);
  Tensor b = Tensor::randn({31, 21}, rng);
  for (std::int64_t i = 0; i < a.size(); i += 2) a[i] = 0.0f;
  for (std::int64_t i = 0; i < b.size(); i += 3) b[i] = 0.0f;
  expect_bits_equal(matmul(a, b), naive_matmul(a, b), "sparse matmul");
  Tensor at({31, 33});
  for (int i = 0; i < 33; ++i)
    for (int j = 0; j < 31; ++j)
      at[static_cast<std::int64_t>(j) * 33 + i] =
          a[static_cast<std::int64_t>(i) * 31 + j];
  expect_bits_equal(matmul_at(at, b), naive_matmul_at(at, b),
                    "sparse matmul_at");
}

// ---- Convolution: the GEMM production path == the seed's direct loops -------

struct ConvShapeCase {
  int n, ci, h, w, co, k, stride, pad;
  bool bias;
};

class FastConv : public ::testing::TestWithParam<ConvShapeCase> {};

TEST_P(FastConv, ForwardAndBackwardMatchNaiveBitForBit) {
  const ConvShapeCase p = GetParam();
  util::Rng rng(23);
  const Tensor x = Tensor::randn({p.n, p.ci, p.h, p.w}, rng);
  const Tensor w = Tensor::randn({p.co, p.ci, p.k, p.k}, rng, 0.5);
  const Tensor b = p.bias ? Tensor::randn({p.co}, rng, 0.1) : Tensor();

  const Tensor ref_y = naive_conv2d_forward(x, w, b, p.stride, p.pad);
  util::Rng rng2(29);
  const Tensor dy = Tensor::randn(ref_y.shape(), rng2);
  const Conv2dGrads ref_g = naive_conv2d_backward(x, w, dy, p.stride, p.pad);

  BudgetGuard guard;
  for (int budget : kBudgets) {
    util::set_thread_budget(budget);
    expect_bits_equal(conv2d_forward(x, w, b, p.stride, p.pad), ref_y,
                      "conv2d_forward");
    const Conv2dGrads g = conv2d_backward(x, w, dy, p.stride, p.pad);
    expect_bits_equal(g.dw, ref_g.dw, "conv dw");
    expect_bits_equal(g.dbias, ref_g.dbias, "conv dbias");
    expect_bits_equal(g.dx, ref_g.dx, "conv dx");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AdversarialGeometries, FastConv,
    ::testing::Values(
        ConvShapeCase{2, 3, 8, 8, 4, 3, 1, 1, true},    // ResNet-style 3x3
        ConvShapeCase{1, 4, 7, 7, 8, 1, 1, 0, true},    // 1x1 bottleneck
        ConvShapeCase{2, 2, 9, 11, 3, 3, 2, 1, false},  // stride 2, H != W
        ConvShapeCase{1, 2, 13, 13, 2, 7, 1, 3, true},  // 7x7, heavy padding
        ConvShapeCase{1, 3, 10, 6, 2, 5, 2, 2, false},  // stride 2, 5x5
        ConvShapeCase{3, 1, 6, 6, 2, 3, 1, 0, true}));  // valid padding

TEST(FastConv, ReluSparsifiedGradientsMatchTheSkippingNaiveLoop) {
  // The seed's backward skipped whole receptive fields when dy == 0 (the
  // common post-ReLU case); the GEMM weight gradient does not skip.
  util::Rng rng(31);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor w = Tensor::randn({4, 3, 3, 3}, rng, 0.5);
  Tensor dy = Tensor::randn({2, 4, 8, 8}, rng);
  for (std::int64_t i = 0; i < dy.size(); i += 2) dy[i] = 0.0f;
  const Conv2dGrads ref = naive_conv2d_backward(x, w, dy, 1, 1);
  const Conv2dGrads g = conv2d_backward(x, w, dy, 1, 1);
  expect_bits_equal(g.dw, ref.dw, "sparse dw");
  expect_bits_equal(g.dbias, ref.dbias, "sparse dbias");
  expect_bits_equal(g.dx, ref.dx, "sparse dx");
}

// ---- im2col with asymmetric padding stays thread-invariant ------------------

TEST(KernelThreading, Im2colAndCol2imAreBudgetInvariant) {
  util::Rng rng(37);
  const Tensor x = Tensor::randn({3, 2, 9, 7}, rng);
  expect_budget_invariant(
      [&] {
        const Tensor cols = im2col(x, 3, 2, 2, /*pad_h=*/2, /*pad_w=*/1);
        const Tensor back = col2im(cols, x.shape(), 3, 2, 2, 2, 1);
        return std::vector<Tensor>{cols, back};
      },
      "im2col/col2im asymmetric");
}

// ---- Pool/norm/linear/sgd kernels across budgets ----------------------------

TEST(KernelThreading, PoolNormLinearSgdAreBudgetInvariant) {
  util::Rng rng(41);
  const Tensor x = Tensor::randn({3, 4, 9, 9}, rng);
  const Tensor gamma = Tensor::randn({4}, rng, 0.3);
  const Tensor beta = Tensor::randn({4}, rng, 0.3);
  const Tensor fc_x = Tensor::randn({5, 36}, rng);
  const Tensor fc_w = Tensor::randn({7, 36}, rng, 0.4);
  const Tensor fc_b = Tensor::randn({7}, rng, 0.1);
  const Tensor fc_dy = Tensor::randn({5, 7}, rng);

  expect_budget_invariant(
      [&] {
        std::vector<Tensor> out;
        const MaxPoolResult mp = maxpool_forward(x, 2, 2);
        out.push_back(mp.y);
        Tensor dy_pool(mp.y.shape());
        dy_pool.fill(0.5f);
        out.push_back(maxpool_backward(dy_pool, mp, x.shape()));
        out.push_back(global_avg_pool_forward(x));
        out.push_back(relu_forward(x));

        NormCache bc;
        out.push_back(batchnorm_forward(x, gamma, beta, bc));
        Tensor dyn(x.shape());
        dyn.fill(0.25f);
        NormGrads bg = batchnorm_backward(dyn, gamma, bc);
        out.push_back(bg.dx);
        out.push_back(bg.dgamma);
        NormCache gc;
        out.push_back(groupnorm_forward(x, gamma, beta, 2, gc));
        NormGrads gg = groupnorm_backward(dyn, gamma, 2, gc);
        out.push_back(gg.dx);
        out.push_back(gg.dbeta);

        out.push_back(linear_forward(fc_x, fc_w, fc_b));
        LinearGrads lg = linear_backward(fc_x, fc_w, fc_dy);
        out.push_back(lg.dx);
        out.push_back(lg.dw);
        out.push_back(lg.dbias);

        Tensor p = fc_w;
        Tensor g(fc_w.shape());
        g.fill(0.125f);
        Sgd opt({/*lr=*/0.1, /*momentum=*/0.9, /*weight_decay=*/1e-4});
        opt.step({&p}, {&g});
        opt.step({&p}, {&g});
        out.push_back(p);
        return out;
      },
      "pool/norm/linear/sgd");
}

// ---- Whole-model gradients: fast path x serialization x budgets -------------

TEST(KernelThreading, ComputeGradientsIsBudgetInvariant) {
  const Dataset data = make_synthetic_dataset(16, 4, 1, 12, /*seed=*/61);
  expect_budget_invariant(
      [&] {
        SmallCnnConfig cfg;
        cfg.norm = NormMode::kGroup;
        cfg.seed = 99;
        SmallCnn model(cfg);
        compute_gradients(model, data.images, data.labels, {4, 4, 4, 4});
        std::vector<Tensor> out;
        for (Tensor* g : model.gradients()) out.push_back(*g);
        return out;
      },
      "compute_gradients");
}

TEST(KernelThreading, SerializedGradientsStillMatchFullBatchOnFastPath) {
  // The Sec. 3 serialization identity, re-checked on the GEMM production
  // path: GN gradients for chunked sub-batches equal full-batch gradients
  // to float32 accumulation noise.
  const Dataset data = make_synthetic_dataset(16, 4, 1, 12, /*seed=*/21);
  SmallCnnConfig cfg;
  cfg.norm = NormMode::kGroup;
  cfg.seed = 99;
  SmallCnn full(cfg), serial(cfg);
  compute_gradients(full, data.images, data.labels, {16});
  compute_gradients(serial, data.images, data.labels, {4, 4, 4, 4});
  auto gf = full.gradients(), gs = serial.gradients();
  ASSERT_EQ(gf.size(), gs.size());
  for (std::size_t i = 0; i < gf.size(); ++i)
    for (std::int64_t j = 0; j < gf[i]->size(); ++j)
      EXPECT_NEAR((*gf[i])[j], (*gs[i])[j], 2e-4)
          << "param " << i << " elem " << j;
}

// ---- parallel_for semantics -------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnceAtAnyBudget) {
  BudgetGuard guard;
  for (int budget : kBudgets) {
    util::set_thread_budget(budget);
    std::vector<std::atomic<int>> hits(1000);
    util::parallel_for(1000, 1, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i)
        hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, NestedCallsRunInline) {
  BudgetGuard guard;
  util::set_thread_budget(8);
  std::atomic<bool> nested_was_inline{true};
  util::parallel_for(4, 1, [&](std::int64_t, std::int64_t) {
    // Inside a region (pool worker or inline caller), a nested parallel_for
    // must not fan out again.
    if (!util::in_parallel_region())
      nested_was_inline.store(false);
  });
  EXPECT_TRUE(nested_was_inline.load());
  EXPECT_FALSE(util::in_parallel_region());
  {
    util::ParallelRegionGuard region;
    EXPECT_TRUE(util::in_parallel_region());
  }
  EXPECT_FALSE(util::in_parallel_region());
}

TEST(ParallelFor, PropagatesExceptions) {
  BudgetGuard guard;
  util::set_thread_budget(4);
  EXPECT_THROW(
      util::parallel_for(100, 1,
                         [](std::int64_t i0, std::int64_t) {
                           if (i0 > 0) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

// ---- ConvCache: cached-im2col backward == uncached, bit for bit -------------

struct CachedConvCase {
  int n, ci, h, w, co, k, stride, pad;
};

class CachedConv : public ::testing::TestWithParam<CachedConvCase> {};

TEST_P(CachedConv, BackwardWithForwardCacheMatchesUncachedBitForBit) {
  const CachedConvCase p = GetParam();
  util::Rng rng(53);
  const Tensor x = Tensor::randn({p.n, p.ci, p.h, p.w}, rng);
  const Tensor w = Tensor::randn({p.co, p.ci, p.k, p.k}, rng, 0.5);
  const Tensor b = Tensor::randn({p.co}, rng, 0.1);

  // Uncached reference (budget 1).
  BudgetGuard guard;
  util::set_thread_budget(1);
  const Tensor ref_y = conv2d_forward(x, w, b, p.stride, p.pad);
  util::Rng rng2(59);
  const Tensor dy = Tensor::randn(ref_y.shape(), rng2);
  const Conv2dGrads ref_g = conv2d_backward(x, w, dy, p.stride, p.pad);

  for (int budget : {1, 2, 8}) {
    util::set_thread_budget(budget);
    ConvCache cache;
    Conv2dGrads g;
    Tensor y;
    // Twice: the second iteration reuses every step-persistent buffer, so
    // it also exercises the ensure_shape/zeroed reuse paths.
    for (int iter = 0; iter < 2; ++iter) {
      conv2d_forward_into(x, w, b, p.stride, p.pad, &cache, y);
      expect_bits_equal(y, ref_y, "cached conv forward");
      conv2d_backward_into(x, w, dy, p.stride, p.pad, /*need_dx=*/true,
                           &cache, g);
      expect_bits_equal(g.dw, ref_g.dw, "cached conv dw");
      expect_bits_equal(g.dbias, ref_g.dbias, "cached conv dbias");
      expect_bits_equal(g.dx, ref_g.dx, "cached conv dx");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AdversarialGeometries, CachedConv,
    ::testing::Values(
        CachedConvCase{2, 3, 8, 8, 4, 3, 1, 1},    // ResNet-style 3x3
        CachedConvCase{1, 4, 7, 7, 8, 1, 1, 0},    // 1x1 bottleneck
        CachedConvCase{2, 2, 9, 11, 3, 3, 2, 1},   // stride 2, H != W
        CachedConvCase{1, 2, 6, 6, 2, 3, 1, 4},    // pad > kernel
        CachedConvCase{1, 3, 10, 6, 2, 5, 2, 2},   // stride 2, 5x5
        CachedConvCase{2, 2, 7, 7, 3, 3, 2, 3}));  // stride 2, pad > kernel/2

TEST(CachedConv, GeometryChangeWithSameColsShapeRezerosTheBuffer) {
  // A 3x1 kernel (pad 1) and a 1x3 kernel (pad 1) on the same input both
  // lower to a cols matrix of identical SHAPE, but with different
  // padding-zero layouts. Reusing one cache across the switch must not
  // preserve the first geometry's stale values in positions the second
  // geometry treats as padding.
  util::Rng rng(83);
  const Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  Tensor w31({2, 1, 3, 1}), w13({2, 1, 1, 3});
  for (std::int64_t i = 0; i < w31.size(); ++i) {
    w31[i] = 0.25f * static_cast<float>(i + 1);
    w13[i] = -0.5f * static_cast<float>(i + 1);
  }
  ConvCache cache;
  Tensor y;
  conv2d_forward_into(x, w31, Tensor(), 1, 1, &cache, y);
  expect_bits_equal(y, conv2d_forward(x, w31, Tensor(), 1, 1), "3x1 pass");
  conv2d_forward_into(x, w13, Tensor(), 1, 1, &cache, y);
  expect_bits_equal(y, conv2d_forward(x, w13, Tensor(), 1, 1),
                    "1x3 pass after 3x1 cache");
  // And the backward consuming the refreshed cache is right too.
  util::Rng rng2(89);
  const Tensor dy = Tensor::randn(y.shape(), rng2);
  Conv2dGrads got;
  conv2d_backward_into(x, w13, dy, 1, 1, /*need_dx=*/true, &cache, got);
  const Conv2dGrads ref = conv2d_backward(x, w13, dy, 1, 1);
  expect_bits_equal(got.dw, ref.dw, "1x3 dw after geometry switch");
  expect_bits_equal(got.dx, ref.dx, "1x3 dx after geometry switch");
}

TEST(CachedConv, StaleCacheFallsBackToRecomputingBitForBit) {
  util::Rng rng(61);
  const Tensor x8 = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor x6 = Tensor::randn({2, 3, 6, 6}, rng);
  const Tensor w = Tensor::randn({4, 3, 3, 3}, rng, 0.5);
  ConvCache cache;
  Tensor y;
  conv2d_forward_into(x8, w, Tensor(), 1, 1, &cache, y);  // caches 8x8
  // Backward against the 6x6 input: the cache is stale (geometry stamp
  // mismatch) and must be ignored, not consumed.
  util::Rng rng2(67);
  const Tensor dy = Tensor::randn({2, 4, 6, 6}, rng2);
  Conv2dGrads got;
  conv2d_backward_into(x6, w, dy, 1, 1, /*need_dx=*/true, &cache, got);
  const Conv2dGrads ref = conv2d_backward(x6, w, dy, 1, 1);
  expect_bits_equal(got.dw, ref.dw, "stale-cache dw");
  expect_bits_equal(got.dx, ref.dx, "stale-cache dx");
}

TEST(CachedConv, RepeatedStepsWithReusedBuffersStayBitStable) {
  // Every per-layer buffer (ConvCache cols, gradient scratch, activation
  // caches) is reused in place across steps; a second pass over the same
  // data must reproduce the first bit for bit — stale state anywhere in
  // the reuse discipline would show up here.
  const Dataset data = make_synthetic_dataset(8, 4, 1, 12, /*seed=*/71);
  SmallCnnConfig cfg;
  cfg.norm = NormMode::kGroup;
  cfg.seed = 3;
  SmallCnn model(cfg);
  compute_gradients(model, data.images, data.labels, {4, 4});
  std::vector<Tensor> first;
  for (Tensor* g : model.gradients()) first.push_back(*g);
  compute_gradients(model, data.images, data.labels, {4, 4});
  auto gs = model.gradients();
  ASSERT_EQ(gs.size(), first.size());
  for (std::size_t i = 0; i < gs.size(); ++i)
    expect_bits_equal(*gs[i], first[i], "repeated-step gradients");
}

// ---- ReLU into/in-place forms -----------------------------------------------

TEST(ReluForms, IntoAndInplaceMatchTheAllocatingForms) {
  util::Rng rng(73);
  const Tensor x = Tensor::randn({3, 4, 5, 5}, rng);
  const Tensor ref_y = relu_forward(x);
  Tensor y;
  relu_forward_into(x, y);
  expect_bits_equal(y, ref_y, "relu_forward_into");
  relu_forward_into(x, y);  // reused buffer
  expect_bits_equal(y, ref_y, "relu_forward_into reuse");

  util::Rng rng2(79);
  const Tensor dy = Tensor::randn(x.shape(), rng2);
  const Tensor ref_dx = relu_backward(dy, ref_y);
  Tensor d = dy;
  relu_backward_inplace(d, ref_y);
  expect_bits_equal(d, ref_dx, "relu_backward_inplace");
}

// ---- util::Arena -------------------------------------------------------------

TEST(Arena, ReusesCapacityAfterRewindAndReset) {
  util::Arena arena;
  float* first = arena.floats(1000);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first) % util::Arena::kAlign,
            0u);
  const std::int64_t blocks_after_first = arena.block_allocs();
  arena.reset();
  // Same request after reset: same memory, no new block.
  float* second = arena.floats(1000);
  EXPECT_EQ(first, second);
  EXPECT_EQ(arena.block_allocs(), blocks_after_first);

  // A repeating allocation pattern reaches a steady state with zero
  // further block acquisitions (the zero-allocation contract's arena
  // half).
  for (int step = 0; step < 5; ++step) {
    arena.reset();
    arena.floats(123);
    arena.floats(4567);
    arena.floats(89);
  }
  EXPECT_EQ(arena.block_allocs(), blocks_after_first);
  EXPECT_GT(arena.high_water(), 0u);
}

TEST(Arena, MarkRewindNestsLikeAStack) {
  util::Arena arena;
  arena.floats(64);
  const util::Arena::Marker outer = arena.mark();
  float* a = arena.floats(256);
  {
    util::ArenaScope scope(arena);
    float* b = scope.floats(512);
    ASSERT_NE(b, nullptr);
    EXPECT_GT(arena.used(), 0u);
  }
  // The scope rewound its scratch; a new allocation lands where b was.
  float* b2 = arena.floats(512);
  arena.rewind(outer);
  // After rewinding to the outer marker, the same sequence replays to the
  // same addresses.
  float* a2 = arena.floats(256);
  EXPECT_EQ(a, a2);
  float* b3 = arena.floats(512);
  EXPECT_EQ(b2, b3);
}

TEST(Arena, GrowsAcrossBlocksWithoutInvalidatingLivePointers) {
  util::Arena arena;
  float* small = arena.floats(8);
  small[0] = 42.0f;
  // Force growth past the first block.
  float* big = arena.floats((std::int64_t{1} << 20));
  ASSERT_NE(big, nullptr);
  big[0] = 1.0f;
  EXPECT_EQ(small[0], 42.0f);  // old pointer still valid
  EXPECT_GE(arena.block_allocs(), 2);
}

// ---- Zero-allocation contract (Debug builds) --------------------------------

TEST(ZeroAllocContract, SteadyStateTrainStepIsAllocationFree) {
  if (!util::alloc_hook_active())
    GTEST_SKIP() << "allocation hook only active in Debug builds";
  const Dataset data = make_synthetic_dataset(32, 8, 1, 12, /*seed=*/7);
  SmallCnnConfig cfg;
  cfg.norm = NormMode::kGroup;
  cfg.classes = 8;
  cfg.stage_channels = {16, 32};
  SmallCnn model(cfg);
  Sgd opt({/*lr=*/0.05, /*momentum=*/0.9, /*weight_decay=*/1e-4});
  // Warm-up: grows the arena to its high-water mark and settles every
  // step-persistent buffer's capacity.
  for (int i = 0; i < 3; ++i)
    train_step(model, opt, data.images, data.labels, {8, 8, 8, 8});
  const std::int64_t before = util::kernel_path_allocs();
  for (int i = 0; i < 2; ++i)
    train_step(model, opt, data.images, data.labels, {8, 8, 8, 8});
  EXPECT_EQ(util::kernel_path_allocs(), before)
      << "steady-state conv/GEMM path touched the heap";
}

// ---- Kernel-ISA dispatch: portable and AVX2 families are bit-identical ------

/// Pins MBS_KERNEL / MBS_FORCE_NO_AVX2 for one test and restores the
/// default dispatch (env unset) on the way out.
struct IsaGuard {
  ~IsaGuard() {
    unsetenv("MBS_KERNEL");
    unsetenv("MBS_FORCE_NO_AVX2");
    detail::reset_microkernel_dispatch();
  }
  void force(const char* isa) {
    setenv("MBS_KERNEL", isa, 1);
    detail::reset_microkernel_dispatch();
  }
};

bool avx2_available() {
  return detail::avx2_microkernels() != nullptr && util::cpu_supports_avx2();
}

class KernelDispatch : public ::testing::TestWithParam<GemmShapeCase> {};

TEST_P(KernelDispatch, BothIsaFamiliesMatchNaiveBitForBit) {
  const GemmShapeCase p = GetParam();
  util::Rng rng(101);
  const Tensor a = Tensor::randn({p.m, p.k}, rng);
  const Tensor b = Tensor::randn({p.k, p.n}, rng);
  const Tensor init = Tensor::randn({p.n}, rng, 0.2);
  Tensor bt({p.n, p.k});
  for (int i = 0; i < p.k; ++i)
    for (int j = 0; j < p.n; ++j)
      bt[static_cast<std::int64_t>(j) * p.k + i] =
          b[static_cast<std::int64_t>(i) * p.n + j];
  Tensor at({p.k, p.m});
  for (int i = 0; i < p.m; ++i)
    for (int j = 0; j < p.k; ++j)
      at[static_cast<std::int64_t>(j) * p.m + i] =
          a[static_cast<std::int64_t>(i) * p.k + j];

  const Tensor ref = naive_matmul(a, b);
  const Tensor ref_bt = naive_matmul_bt(a, bt);
  const Tensor ref_at = naive_matmul_at(at, b);
  Tensor ref_btf({p.m, p.n});
  for (int i = 0; i < p.m; ++i)
    for (int j = 0; j < p.n; ++j) {
      float acc = init[j];
      for (int kk = 0; kk < p.k; ++kk)
        acc += a[static_cast<std::int64_t>(i) * p.k + kk] *
               bt[static_cast<std::int64_t>(j) * p.k + kk];
      ref_btf[static_cast<std::int64_t>(i) * p.n + j] = acc;
    }

  IsaGuard guard;
  BudgetGuard budget;
  for (const char* isa : {"portable", "avx2"}) {
    if (std::strcmp(isa, "avx2") == 0 && !avx2_available()) continue;
    guard.force(isa);
    ASSERT_EQ(util::to_string(active_gemm_isa()), std::string(isa));
    for (int budget_n : {1, 3}) {
      util::set_thread_budget(budget_n);
      const std::string tag = std::string(isa) + " matmul";
      expect_bits_equal(matmul(a, b), ref, tag.c_str());
      expect_bits_equal(matmul_bt(a, bt), ref_bt,
                        (std::string(isa) + " matmul_bt").c_str());
      expect_bits_equal(matmul_at(at, b), ref_at,
                        (std::string(isa) + " matmul_at").c_str());
      expect_bits_equal(matmul_bt_f32(a, bt, init), ref_btf,
                        (std::string(isa) + " matmul_bt_f32").c_str());
    }
  }
}

// K >= 128 defeats the shared small-GEMM shortcut, so every case below
// actually reaches the dispatched microkernels; N values land on the
// 16-wide block, the 8-wide half-tile, and the masked tail, and odd M
// exercises every MR row remainder.
INSTANTIATE_TEST_SUITE_P(
    RemainderTiles, KernelDispatch,
    ::testing::Values(GemmShapeCase{5, 131, 7},     // masked tail only
                      GemmShapeCase{17, 129, 23},   // 16-block + masked tail
                      GemmShapeCase{3, 200, 33},    // 2x16 + 1-lane tail
                      GemmShapeCase{4, 128, 16},    // exact tile multiples
                      GemmShapeCase{2, 257, 9},     // 8-wide + 1-lane tail
                      GemmShapeCase{1, 131, 1},     // degenerate M = N = 1
                      GemmShapeCase{33, 130, 15},   // M remainder 1, N 8+7
                      GemmShapeCase{6, 128, 31}));  // 16+8+masked 7

TEST(KernelDispatch, Avx2RequestWithoutCpuSupportFallsBackCleanly) {
  IsaGuard guard;
  setenv("MBS_FORCE_NO_AVX2", "1", 1);
  guard.force("avx2");
  EXPECT_EQ(active_gemm_isa(), util::KernelIsa::kPortable);
  // ...and GEMMs keep working on the fallback path.
  util::Rng rng(103);
  const Tensor a = Tensor::randn({9, 130}, rng);
  const Tensor b = Tensor::randn({130, 11}, rng);
  expect_bits_equal(matmul(a, b), naive_matmul(a, b), "fallback matmul");
}

TEST(KernelDispatch, DefaultResolutionPrefersAvx2WhenSupported) {
  IsaGuard guard;
  unsetenv("MBS_KERNEL");
  detail::reset_microkernel_dispatch();
  if (avx2_available())
    EXPECT_EQ(active_gemm_isa(), util::KernelIsa::kAvx2);
  else
    EXPECT_EQ(active_gemm_isa(), util::KernelIsa::kPortable);
}

// ---- Data gradient: every production form == the seed scatter nest --------

/// The seed's data-gradient scatter, verbatim (serial): for each dx
/// element the addends arrive o-major, then (yh, yw)-lexicographic, and
/// `d == 0` skips whole receptive fields. conv2d_backward_into must
/// reproduce it bit for bit, whichever dgrad form its shape selects.
Tensor seed_scatter_dx(const Tensor& dy, const Tensor& w,
                       const std::vector<int>& x_shape, int stride, int pad) {
  const int n = x_shape[0], ci = x_shape[1], ih = x_shape[2],
            iw = x_shape[3];
  const int co = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int oh = dy.dim(2), ow = dy.dim(3);
  Tensor dx(x_shape);
  const std::int64_t x_hw = static_cast<std::int64_t>(ih) * iw;
  const std::int64_t y_hw = static_cast<std::int64_t>(oh) * ow;
  const float* dyd = dy.data();
  const float* wd = w.data();
  float* dxd = dx.data();
  for (std::int64_t b = 0; b < n; ++b)
    for (int o = 0; o < co; ++o) {
      const float* dy_plane = dyd + (b * co + o) * y_hw;
      for (int yh = 0; yh < oh; ++yh) {
        const int xh0 = yh * stride - pad;
        const int r_lo = xh0 < 0 ? -xh0 : 0;
        const int r_hi = ih - xh0 < kh ? ih - xh0 : kh;
        for (int yw = 0; yw < ow; ++yw) {
          const float d = dy_plane[static_cast<std::int64_t>(yh) * ow + yw];
          if (d == 0.0f) continue;
          const int xw0 = yw * stride - pad;
          const int s_lo = xw0 < 0 ? -xw0 : 0;
          const int s_hi = iw - xw0 < kw ? iw - xw0 : kw;
          for (int c = 0; c < ci; ++c)
            for (int r = r_lo; r < r_hi; ++r) {
              const float* w_row =
                  wd + ((static_cast<std::int64_t>(o) * ci + c) * kh + r) * kw;
              float* dx_row = dxd + (b * ci + c) * x_hw +
                              static_cast<std::int64_t>(xh0 + r) * iw + xw0;
              for (int s = s_lo; s < s_hi; ++s) dx_row[s] += d * w_row[s];
            }
        }
      }
    }
  return dx;
}

struct DgradGeometry {
  int stride, pad, k;
};

class DgradReference : public ::testing::TestWithParam<DgradGeometry> {};

TEST_P(DgradReference, MatchesTheSeedScatterBitForBit) {
  const DgradGeometry p = GetParam();
  constexpr int kCo = 12, kH = 7, kW = 6;
  // One gradient struct for every call: a dx buffer left over from another
  // shape or dgrad form must never leak into the next result.
  Conv2dGrads g;
  IsaGuard isa_guard;
  BudgetGuard budget_guard;
  for (int ci : {1, 3, 16, 32})
    for (int n : {1, 8, 32}) {
      util::Rng rng(static_cast<std::uint64_t>(1000 * ci + n));
      const Tensor x = Tensor::randn({n, ci, kH, kW}, rng);
      const Tensor w = Tensor::randn({kCo, ci, p.k, p.k}, rng, 0.5);
      const int oh = (kH + 2 * p.pad - p.k) / p.stride + 1;
      const int ow = (kW + 2 * p.pad - p.k) / p.stride + 1;
      const Tensor dense = Tensor::randn({n, kCo, oh, ow}, rng);
      Tensor sparse = dense;  // ~75% zeros, like a ReLU-masked gradient
      for (std::int64_t i = 0; i < sparse.size(); ++i)
        if (rng.uniform() < 0.75) sparse[i] = 0.0f;
      const Tensor zero(dense.shape());
      const std::pair<const char*, const Tensor*> dys[] = {
          {"dense", &dense}, {"75%-zero", &sparse}, {"all-zero", &zero}};
      for (const auto& [density, dy] : dys) {
        const Tensor ref = seed_scatter_dx(*dy, w, x.shape(), p.stride, p.pad);
        for (const char* isa : {"portable", "avx2"}) {
          if (std::strcmp(isa, "avx2") == 0 && !avx2_available()) continue;
          isa_guard.force(isa);
          for (int budget : {1, 4}) {
            util::set_thread_budget(budget);
            conv2d_backward_into(x, w, *dy, p.stride, p.pad, /*need_dx=*/true,
                                 /*cache=*/nullptr, g);
            const std::string tag =
                "ci=" + std::to_string(ci) + " n=" + std::to_string(n) +
                " " + density + " " + isa + " budget " +
                std::to_string(budget) + " dx";
            expect_bits_equal(g.dx, ref, tag.c_str());
          }
        }
      }
    }
}

INSTANTIATE_TEST_SUITE_P(
    StridePadKernel, DgradReference,
    ::testing::Values(DgradGeometry{1, 0, 1}, DgradGeometry{1, 1, 1},
                      DgradGeometry{1, 0, 3}, DgradGeometry{1, 1, 3},
                      DgradGeometry{2, 0, 1}, DgradGeometry{2, 1, 1},
                      DgradGeometry{2, 0, 3}, DgradGeometry{2, 1, 3}));

// ---- Norm rewrite: raw-pointer loops == legacy Tensor::at() loops -----------

TEST(NormRewrite, PointerAndLegacyFormsAreBitIdentical) {
  const bool saved = norm_rewrite_enabled();
  util::Rng rng(107);
  const Tensor x = Tensor::randn({3, 4, 9, 7}, rng);  // odd H/W planes
  const Tensor gamma = Tensor::randn({4}, rng, 0.3);
  const Tensor beta = Tensor::randn({4}, rng, 0.3);
  Tensor dy = Tensor::randn(x.shape(), rng);

  auto run_all = [&] {
    std::vector<Tensor> out;
    NormCache bc;
    out.push_back(batchnorm_forward(x, gamma, beta, bc));
    out.push_back(bc.mean);
    out.push_back(bc.inv_std);
    out.push_back(bc.xhat);
    NormGrads bg = batchnorm_backward(dy, gamma, bc);
    out.push_back(bg.dx);
    out.push_back(bg.dgamma);
    out.push_back(bg.dbeta);
    NormCache gc;
    out.push_back(groupnorm_forward(x, gamma, beta, 2, gc));
    out.push_back(gc.mean);
    out.push_back(gc.inv_std);
    NormGrads gg = groupnorm_backward(dy, gamma, 2, gc);
    out.push_back(gg.dx);
    out.push_back(gg.dgamma);
    out.push_back(gg.dbeta);
    return out;
  };

  BudgetGuard budget;
  for (int budget_n : {1, 3}) {
    util::set_thread_budget(budget_n);
    set_norm_rewrite(true);
    const std::vector<Tensor> fast = run_all();
    set_norm_rewrite(false);
    const std::vector<Tensor> legacy = run_all();
    ASSERT_EQ(fast.size(), legacy.size());
    for (std::size_t i = 0; i < fast.size(); ++i)
      expect_bits_equal(fast[i], legacy[i],
                        ("norm rewrite tensor " + std::to_string(i) +
                         " budget " + std::to_string(budget_n))
                            .c_str());
  }
  set_norm_rewrite(saved);
}

// ---- Tensor::count overflow guard -------------------------------------------

TEST(TensorCountDeathTest, OversizedShapesFailLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // 2^31 * 2^31 * 2^31 would silently wrap a 64-bit product in Release
  // builds before this guard existed.
  const int big = 1 << 30;
  EXPECT_DEATH(Tensor::count({big, big, big, 8}), "overflows int64");
  EXPECT_DEATH(Tensor::count({2, -3}), "negative dimension");
  // In-range products still work.
  EXPECT_EQ(Tensor::count({big, 4}), static_cast<std::int64_t>(big) * 4);
  EXPECT_EQ(Tensor::count({0, big, big}), 0);
}

}  // namespace
}  // namespace mbs::train
