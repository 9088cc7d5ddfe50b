// Tests for the functional training substrate: finite-difference gradient
// checks for every operator, and the paper's central correctness claim —
// MBS serialization leaves GN training math unchanged (Sec. 3), while BN is
// incompatible with serialization (Sec. 3.1).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "train/attention.h"
#include "train/data.h"
#include "train/loss.h"
#include "train/model.h"
#include "train/norm.h"
#include "train/ops.h"
#include "train/optim.h"
#include "train/trainer.h"
#include "train/transformer_model.h"

namespace mbs::train {
namespace {

// ---- Finite-difference gradient checking -----------------------------------

/// Checks d(sum(f(x)))/dx against central differences at every coordinate.
void check_input_gradient(
    const std::function<Tensor(const Tensor&)>& f,
    const std::function<Tensor(const Tensor&, const Tensor&)>& backward,
    Tensor x, double eps = 1e-3, double tol = 2e-2) {
  const Tensor y0 = f(x);
  Tensor dy(y0.shape());
  dy.fill(1.0f);  // loss = sum(y)
  const Tensor dx = backward(x, dy);
  ASSERT_EQ(dx.size(), x.size());
  for (std::int64_t i = 0; i < x.size(); ++i) {
    const float orig = x[i];
    x[i] = orig + static_cast<float>(eps);
    const Tensor yp = f(x);
    x[i] = orig - static_cast<float>(eps);
    const Tensor ym = f(x);
    x[i] = orig;
    double sp = 0, sm = 0;
    for (std::int64_t j = 0; j < yp.size(); ++j) {
      sp += yp[j];
      sm += ym[j];
    }
    const double numeric = (sp - sm) / (2 * eps);
    EXPECT_NEAR(dx[i], numeric, tol) << "coordinate " << i;
  }
}

TEST(GradCheck, Conv2dInput) {
  util::Rng rng(3);
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  const Tensor w = Tensor::randn({3, 2, 3, 3}, rng, 0.5);
  const Tensor b = Tensor::randn({3}, rng, 0.1);
  check_input_gradient(
      [&](const Tensor& xx) { return conv2d_forward(xx, w, b, 1, 1); },
      [&](const Tensor& xx, const Tensor& dy) {
        return conv2d_backward(xx, w, dy, 1, 1).dx;
      },
      x);
}

TEST(GradCheck, Conv2dStridedInput) {
  util::Rng rng(4);
  Tensor x = Tensor::randn({1, 2, 6, 6}, rng);
  const Tensor w = Tensor::randn({2, 2, 3, 3}, rng, 0.5);
  const Tensor b = Tensor({2});
  check_input_gradient(
      [&](const Tensor& xx) { return conv2d_forward(xx, w, b, 2, 1); },
      [&](const Tensor& xx, const Tensor& dy) {
        return conv2d_backward(xx, w, dy, 2, 1).dx;
      },
      x);
}

TEST(GradCheck, Conv2dWeights) {
  util::Rng rng(5);
  const Tensor x = Tensor::randn({2, 2, 4, 4}, rng);
  Tensor w = Tensor::randn({2, 2, 3, 3}, rng, 0.5);
  const Tensor b = Tensor({2});
  check_input_gradient(
      [&](const Tensor& ww) { return conv2d_forward(x, ww, b, 1, 1); },
      [&](const Tensor& ww, const Tensor& dy) {
        return conv2d_backward(x, ww, dy, 1, 1).dw;
      },
      w);
}

TEST(GradCheck, Conv2dBias) {
  util::Rng rng(6);
  const Tensor x = Tensor::randn({2, 2, 4, 4}, rng);
  const Tensor w = Tensor::randn({2, 2, 3, 3}, rng, 0.5);
  Tensor b = Tensor::randn({2}, rng, 0.1);
  check_input_gradient(
      [&](const Tensor& bb) { return conv2d_forward(x, w, bb, 1, 1); },
      [&](const Tensor&, const Tensor& dy) {
        return conv2d_backward(x, w, dy, 1, 1).dbias;
      },
      b);
}

TEST(GradCheck, Linear) {
  util::Rng rng(7);
  Tensor x = Tensor::randn({3, 6}, rng);
  const Tensor w = Tensor::randn({4, 6}, rng, 0.5);
  const Tensor b = Tensor::randn({4}, rng, 0.1);
  check_input_gradient(
      [&](const Tensor& xx) { return linear_forward(xx, w, b); },
      [&](const Tensor& xx, const Tensor& dy) {
        return linear_backward(xx, w, dy).dx;
      },
      x);
}

TEST(GradCheck, LinearWeights) {
  util::Rng rng(8);
  const Tensor x = Tensor::randn({3, 5}, rng);
  Tensor w = Tensor::randn({2, 5}, rng, 0.5);
  const Tensor b = Tensor({2});
  check_input_gradient(
      [&](const Tensor& ww) { return linear_forward(x, ww, b); },
      [&](const Tensor& ww, const Tensor& dy) {
        return linear_backward(x, ww, dy).dw;
      },
      w);
}

TEST(GradCheck, BatchNormInput) {
  util::Rng rng(9);
  Tensor x = Tensor::randn({3, 2, 3, 3}, rng);
  const Tensor gamma = Tensor::randn({2}, rng, 0.2);
  const Tensor beta = Tensor::randn({2}, rng, 0.2);
  check_input_gradient(
      [&](const Tensor& xx) {
        NormCache c;
        return batchnorm_forward(xx, gamma, beta, c);
      },
      [&](const Tensor& xx, const Tensor& dy) {
        NormCache c;
        batchnorm_forward(xx, gamma, beta, c);
        return batchnorm_backward(dy, gamma, c).dx;
      },
      x, 1e-3, 3e-2);
}

TEST(GradCheck, GroupNormInput) {
  util::Rng rng(10);
  Tensor x = Tensor::randn({2, 4, 3, 3}, rng);
  const Tensor gamma = Tensor::full({4}, 1.2f);
  const Tensor beta = Tensor::full({4}, -0.1f);
  check_input_gradient(
      [&](const Tensor& xx) {
        NormCache c;
        return groupnorm_forward(xx, gamma, beta, 2, c);
      },
      [&](const Tensor& xx, const Tensor& dy) {
        NormCache c;
        groupnorm_forward(xx, gamma, beta, 2, c);
        return groupnorm_backward(dy, gamma, 2, c).dx;
      },
      x, 1e-3, 3e-2);
}

TEST(GradCheck, GroupNormGamma) {
  util::Rng rng(11);
  const Tensor x = Tensor::randn({2, 4, 3, 3}, rng);
  Tensor gamma = Tensor::full({4}, 1.0f);
  const Tensor beta = Tensor({4});
  check_input_gradient(
      [&](const Tensor& gg) {
        NormCache c;
        return groupnorm_forward(x, gg, beta, 2, c);
      },
      [&](const Tensor& gg, const Tensor& dy) {
        NormCache c;
        groupnorm_forward(x, gg, beta, 2, c);
        return groupnorm_backward(dy, gg, 2, c).dgamma;
      },
      gamma, 1e-3, 3e-2);
}

TEST(GradCheck, AttentionInput) {
  // d_model 4, 2 heads, 3 tokens, 2 samples: small enough for the full
  // finite-difference sweep over all 72 qkv coordinates.
  util::Rng rng(11);
  Tensor x = Tensor::randn({2, 12, 3, 1}, rng);
  check_input_gradient(
      [&](const Tensor& xx) {
        AttentionCache c;
        return attention_forward(xx, /*heads=*/2, c);
      },
      [&](const Tensor& xx, const Tensor& dy) {
        AttentionCache c;
        attention_forward(xx, 2, c);
        return attention_backward(dy, xx, 2, c);
      },
      x);
}

TEST(GradCheck, AttentionSingleHead) {
  util::Rng rng(17);
  Tensor x = Tensor::randn({1, 9, 4, 1}, rng);  // d_model 3, 4 tokens
  check_input_gradient(
      [&](const Tensor& xx) {
        AttentionCache c;
        return attention_forward(xx, 1, c);
      },
      [&](const Tensor& xx, const Tensor& dy) {
        AttentionCache c;
        attention_forward(xx, 1, c);
        return attention_backward(dy, xx, 1, c);
      },
      x);
}

TEST(GradCheck, MaxPool) {
  util::Rng rng(12);
  // Distinct values avoid ties, which break finite differences.
  Tensor x({1, 2, 4, 4});
  for (std::int64_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(i % 7) + 0.01f * static_cast<float>(i);
  check_input_gradient(
      [&](const Tensor& xx) { return maxpool_forward(xx, 2, 2).y; },
      [&](const Tensor& xx, const Tensor& dy) {
        const MaxPoolResult r = maxpool_forward(xx, 2, 2);
        return maxpool_backward(dy, r, xx.shape());
      },
      x);
}

TEST(GradCheck, GlobalAvgPool) {
  util::Rng rng(13);
  Tensor x = Tensor::randn({2, 3, 3, 3}, rng);
  check_input_gradient(
      [&](const Tensor& xx) { return global_avg_pool_forward(xx); },
      [&](const Tensor& xx, const Tensor& dy) {
        return global_avg_pool_backward(dy, xx.shape());
      },
      x);
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  util::Rng rng(14);
  Tensor logits = Tensor::randn({3, 4}, rng);
  const std::vector<int> labels{1, 3, 0};
  const LossResult base = softmax_cross_entropy(logits, labels);
  const double eps = 1e-3;
  for (std::int64_t i = 0; i < logits.size(); ++i) {
    const float orig = logits[i];
    logits[i] = orig + static_cast<float>(eps);
    const double lp = softmax_cross_entropy(logits, labels).loss_sum;
    logits[i] = orig - static_cast<float>(eps);
    const double lm = softmax_cross_entropy(logits, labels).loss_sum;
    logits[i] = orig;
    EXPECT_NEAR(base.dlogits[i], (lp - lm) / (2 * eps), 1e-3);
  }
}

// ---- Operator semantics ----------------------------------------------------

TEST(Ops, ReluClampsAndMasks) {
  Tensor x({4});
  x[0] = -1;
  x[1] = 0;
  x[2] = 2;
  x[3] = -0.5;
  const Tensor y = relu_forward(x);
  EXPECT_EQ(y[0], 0);
  EXPECT_EQ(y[2], 2);
  Tensor dy({4});
  dy.fill(1.0f);
  const Tensor dx = relu_backward(dy, y);
  // Gradient is exactly 0 or 1 — the property that lets MBS store 1-bit
  // masks (Sec. 3).
  EXPECT_EQ(dx[0], 0);
  EXPECT_EQ(dx[2], 1);
  EXPECT_EQ(dx[3], 0);
}

TEST(Ops, ConvOutputShape) {
  util::Rng rng(1);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor w = Tensor::randn({5, 3, 3, 3}, rng);
  const Tensor y = conv2d_forward(x, w, Tensor(), 2, 1);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 5, 4, 4}));
}

TEST(Ops, ConvIdentityKernel) {
  // 1x1 kernel with identity weights reproduces the input channel.
  Tensor x({1, 1, 3, 3});
  for (std::int64_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  Tensor w({1, 1, 1, 1});
  w[0] = 1.0f;
  const Tensor y = conv2d_forward(x, w, Tensor(), 1, 0);
  for (std::int64_t i = 0; i < 9; ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Norm, BatchNormNormalizesPerChannel) {
  util::Rng rng(2);
  const Tensor x = Tensor::randn({8, 3, 4, 4}, rng, 3.0);
  const Tensor gamma = Tensor::full({3}, 1.0f);
  const Tensor beta = Tensor({3});
  NormCache c;
  const Tensor y = batchnorm_forward(x, gamma, beta, c);
  // Each channel of y has ~zero mean and ~unit variance.
  for (int ch = 0; ch < 3; ++ch) {
    double s = 0, sq = 0;
    int m = 0;
    for (int b = 0; b < 8; ++b)
      for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j) {
          const double v = y.at(b, ch, i, j);
          s += v;
          sq += v * v;
          ++m;
        }
    EXPECT_NEAR(s / m, 0.0, 1e-4);
    EXPECT_NEAR(sq / m, 1.0, 1e-2);
  }
}

TEST(Norm, GroupNormIsPerSample) {
  // GN statistics must not mix samples: normalizing a batch equals
  // normalizing each sample separately. This is the property that makes GN
  // compatible with MBS (Sec. 3.1).
  util::Rng rng(3);
  const Tensor x = Tensor::randn({4, 4, 3, 3}, rng, 2.0);
  const Tensor gamma = Tensor::full({4}, 1.0f);
  const Tensor beta = Tensor({4});
  NormCache c_all;
  const Tensor y_all = groupnorm_forward(x, gamma, beta, 2, c_all);
  for (int b = 0; b < 4; ++b) {
    const Tensor xb = x.slice_batch(b, 1);
    NormCache c_one;
    const Tensor yb = groupnorm_forward(xb, gamma, beta, 2, c_one);
    for (std::int64_t i = 0; i < yb.size(); ++i)
      EXPECT_FLOAT_EQ(yb[i], y_all[b * yb.size() + i]);
  }
}

TEST(Norm, BatchNormIsNotPerSample) {
  util::Rng rng(4);
  const Tensor x = Tensor::randn({4, 2, 3, 3}, rng, 2.0);
  const Tensor gamma = Tensor::full({2}, 1.0f);
  const Tensor beta = Tensor({2});
  NormCache c_all;
  const Tensor y_all = batchnorm_forward(x, gamma, beta, c_all);
  const Tensor xb = x.slice_batch(0, 1);
  NormCache c_one;
  const Tensor yb = batchnorm_forward(xb, gamma, beta, c_one);
  double max_diff = 0;
  for (std::int64_t i = 0; i < yb.size(); ++i)
    max_diff = std::max(max_diff,
                        std::abs(static_cast<double>(yb[i]) - y_all[i]));
  EXPECT_GT(max_diff, 0.05);
}

// ---- The central claim: serialization equivalence ---------------------------

class SerializationEquivalence : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(SerializationEquivalence, GnGradientsMatchFullBatch) {
  SmallCnnConfig cfg;
  cfg.norm = NormMode::kGroup;
  cfg.seed = 99;
  const Dataset data = make_synthetic_dataset(16, 4, 1, 12, /*seed=*/21);

  SmallCnn full(cfg);
  compute_gradients(full, data.images, data.labels, {16});

  SmallCnn serial(cfg);  // identical init (same seed)
  compute_gradients(serial, data.images, data.labels, GetParam());

  auto gf = full.gradients();
  auto gs = serial.gradients();
  ASSERT_EQ(gf.size(), gs.size());
  for (std::size_t i = 0; i < gf.size(); ++i) {
    ASSERT_EQ(gf[i]->size(), gs[i]->size());
    for (std::int64_t j = 0; j < gf[i]->size(); ++j)
      EXPECT_NEAR((*gf[i])[j], (*gs[i])[j], 2e-4)
          << "param " << i << " elem " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChunkPartitions, SerializationEquivalence,
    ::testing::Values(std::vector<int>{8, 8}, std::vector<int>{4, 4, 4, 4},
                      std::vector<int>{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                       1, 1, 1},
                      std::vector<int>{6, 6, 4}, std::vector<int>{15, 1}));

TEST(SerializationDivergence, BnGradientsDifferUnderSerialization) {
  // The negative control: BN statistics change with the chunking, so
  // serialized BN does NOT reproduce full-batch gradients — the reason the
  // paper switches to GN (Sec. 3.1).
  SmallCnnConfig cfg;
  cfg.norm = NormMode::kBatch;
  cfg.seed = 99;
  const Dataset data = make_synthetic_dataset(16, 4, 1, 12, 21);

  SmallCnn full(cfg);
  compute_gradients(full, data.images, data.labels, {16});
  SmallCnn serial(cfg);
  compute_gradients(serial, data.images, data.labels, {4, 4, 4, 4});

  auto gf = full.gradients();
  auto gs = serial.gradients();
  double max_rel = 0;
  for (std::size_t i = 0; i < gf.size(); ++i)
    for (std::int64_t j = 0; j < gf[i]->size(); ++j) {
      const double a = (*gf[i])[j], b = (*gs[i])[j];
      const double scale = std::max({std::abs(a), std::abs(b), 1e-6});
      max_rel = std::max(max_rel, std::abs(a - b) / scale);
    }
  EXPECT_GT(max_rel, 0.05);
}

// ---- The transformer leg of the equivalence claim ---------------------------

/// [N, C, H, W] images reinterpreted as [N, C, H*W, 1] token sequences
/// (row-major layouts are identical, so this is a pure copy).
Tensor tokens_from_images(const Tensor& images) {
  Tensor t({images.dim(0), images.dim(1), images.dim(2) * images.dim(3), 1});
  std::memcpy(t.data(), images.data(),
              static_cast<std::size_t>(images.size()) * sizeof(float));
  return t;
}

/// One accumulation pass over a chunk partition, gradients scaled by
/// 1/mini-batch — the transformer analogue of compute_gradients().
void transformer_gradients(TinyTransformer& model, const Tensor& x,
                           const std::vector<int>& labels,
                           const std::vector<int>& chunks) {
  const int n = x.dim(0);
  model.zero_grad();
  int offset = 0;
  for (int c : chunks) {
    const Tensor xc = x.slice_batch(offset, c);
    const std::vector<int> yc(labels.begin() + offset,
                              labels.begin() + offset + c);
    LossResult lr = softmax_cross_entropy(model.forward(xc), yc);
    lr.dlogits.scale(1.0f / static_cast<float>(n));
    model.backward(lr.dlogits);
    offset += c;
  }
}

class TransformerSerializationEquivalence
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(TransformerSerializationEquivalence, GnGradientsMatchFullBatch) {
  // Attention is sample-local (every token attends within its own sample),
  // so the Sec. 3 equivalence argument extends verbatim: GN + real softmax
  // attention under any chunk partition reproduces full-batch gradients to
  // float32 rounding.
  TinyTransformerConfig cfg;  // norm defaults to kGroup
  cfg.seed = 7;
  const Dataset data = make_synthetic_dataset(16, 3, 3, 3, /*seed=*/21);
  const Tensor x = tokens_from_images(data.images);  // 3x3 = 9 tokens = cfg.seq

  TinyTransformer full(cfg);
  transformer_gradients(full, x, data.labels, {16});
  TinyTransformer serial(cfg);  // identical init (same seed)
  transformer_gradients(serial, x, data.labels, GetParam());

  auto gf = full.gradients();
  auto gs = serial.gradients();
  ASSERT_EQ(gf.size(), gs.size());
  for (std::size_t i = 0; i < gf.size(); ++i) {
    ASSERT_EQ(gf[i]->size(), gs[i]->size());
    for (std::int64_t j = 0; j < gf[i]->size(); ++j)
      EXPECT_NEAR((*gf[i])[j], (*gs[i])[j], 2e-4)
          << "param " << i << " elem " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChunkPartitions, TransformerSerializationEquivalence,
    ::testing::Values(std::vector<int>{8, 8}, std::vector<int>{4, 4, 4, 4},
                      std::vector<int>{6, 6, 4}, std::vector<int>{15, 1}));

TEST(TransformerSerializationDivergence, BnGradientsDifferUnderSerialization) {
  // The negative control survives the architecture swap: BN statistics
  // still span the mini-batch, so serialized BN diverges on a transformer
  // exactly as it does on the CNN.
  TinyTransformerConfig cfg;
  cfg.norm = NormMode::kBatch;
  cfg.seed = 7;
  const Dataset data = make_synthetic_dataset(16, 3, 3, 3, 21);
  const Tensor x = tokens_from_images(data.images);  // cfg.seq tokens

  TinyTransformer full(cfg);
  transformer_gradients(full, x, data.labels, {16});
  TinyTransformer serial(cfg);
  transformer_gradients(serial, x, data.labels, {4, 4, 4, 4});

  auto gf = full.gradients();
  auto gs = serial.gradients();
  double max_rel = 0;
  for (std::size_t i = 0; i < gf.size(); ++i)
    for (std::int64_t j = 0; j < gf[i]->size(); ++j) {
      const double a = (*gf[i])[j], b = (*gs[i])[j];
      const double scale = std::max({std::abs(a), std::abs(b), 1e-6});
      max_rel = std::max(max_rel, std::abs(a - b) / scale);
    }
  EXPECT_GT(max_rel, 0.05);
}

TEST(Transformer, ForwardShapesAndDeterminism) {
  TinyTransformerConfig cfg;
  cfg.seed = 5;
  TinyTransformer a(cfg), b(cfg);
  const Dataset data = make_synthetic_dataset(8, 3, 3, 3, 3);
  const Tensor x = tokens_from_images(data.images);  // cfg.seq tokens
  const Tensor la = a.forward(x);
  const Tensor lb = b.forward(x);
  EXPECT_EQ(la.shape(), (std::vector<int>{8, 4}));
  for (std::int64_t i = 0; i < la.size(); ++i) EXPECT_EQ(la[i], lb[i]);
}

// ---- Model / optimizer / data ----------------------------------------------

TEST(Model, ForwardShapesAndDeterminism) {
  SmallCnnConfig cfg;
  cfg.seed = 5;
  SmallCnn a(cfg), b(cfg);
  const Dataset data = make_synthetic_dataset(8, 4, 1, 12, 3);
  const Tensor la = a.forward(data.images);
  const Tensor lb = b.forward(data.images);
  EXPECT_EQ(la.shape(), (std::vector<int>{8, 4}));
  for (std::int64_t i = 0; i < la.size(); ++i) EXPECT_EQ(la[i], lb[i]);
}

TEST(Model, GradientsAccumulateAcrossBackwardCalls) {
  SmallCnnConfig cfg;
  SmallCnn m(cfg);
  const Dataset data = make_synthetic_dataset(4, 4, 1, 12, 3);
  const Tensor logits = m.forward(data.images);
  LossResult lr = softmax_cross_entropy(logits, data.labels);
  m.zero_grad();
  m.backward(lr.dlogits);
  const float g1 = (*m.gradients()[0])[0];
  m.forward(data.images);
  m.backward(lr.dlogits);
  EXPECT_NEAR((*m.gradients()[0])[0], 2 * g1, 1e-5);
}

TEST(Model, ZeroGradClears) {
  SmallCnnConfig cfg;
  SmallCnn m(cfg);
  const Dataset data = make_synthetic_dataset(4, 4, 1, 12, 3);
  const Tensor logits = m.forward(data.images);
  LossResult lr = softmax_cross_entropy(logits, data.labels);
  m.backward(lr.dlogits);
  m.zero_grad();
  for (Tensor* g : m.gradients())
    for (std::int64_t i = 0; i < g->size(); ++i) EXPECT_EQ((*g)[i], 0.0f);
}

TEST(Optim, SgdStepMovesAgainstGradient) {
  Tensor p({2});
  p[0] = 1.0f;
  p[1] = -1.0f;
  Tensor g({2});
  g[0] = 0.5f;
  g[1] = -0.5f;
  Sgd opt({/*lr=*/0.1, /*momentum=*/0.0, /*weight_decay=*/0.0});
  opt.step({&p}, {&g});
  EXPECT_FLOAT_EQ(p[0], 1.0f - 0.05f);
  EXPECT_FLOAT_EQ(p[1], -1.0f + 0.05f);
}

TEST(Optim, MomentumAccumulates) {
  Tensor p({1});
  Tensor g({1});
  g[0] = 1.0f;
  Sgd opt({/*lr=*/1.0, /*momentum=*/0.5, /*weight_decay=*/0.0});
  opt.step({&p}, {&g});
  EXPECT_FLOAT_EQ(p[0], -1.0f);  // v=1
  opt.step({&p}, {&g});
  EXPECT_FLOAT_EQ(p[0], -2.5f);  // v=1.5
}

TEST(Data, DeterministicAndBalanced) {
  const Dataset a = make_synthetic_dataset(64, 4, 1, 12, 11);
  const Dataset b = make_synthetic_dataset(64, 4, 1, 12, 11);
  for (std::int64_t i = 0; i < a.images.size(); ++i)
    EXPECT_EQ(a.images[i], b.images[i]);
  std::vector<int> counts(4, 0);
  for (int l : a.labels) counts[static_cast<std::size_t>(l)]++;
  for (int c : counts) EXPECT_EQ(c, 16);
}

TEST(Data, DifferentSeedsDiffer) {
  const Dataset a = make_synthetic_dataset(8, 4, 1, 12, 1);
  const Dataset b = make_synthetic_dataset(8, 4, 1, 12, 2);
  double diff = 0;
  for (std::int64_t i = 0; i < a.images.size(); ++i)
    diff += std::abs(static_cast<double>(a.images[i]) - b.images[i]);
  EXPECT_GT(diff, 1.0);
}

TEST(Trainer, LearnsSyntheticTask) {
  SmallCnnConfig cfg;
  cfg.norm = NormMode::kGroup;
  SmallCnn model(cfg);
  const Dataset train_set = make_synthetic_dataset(256, 4, 1, 12, 31);
  const Dataset val_set = make_synthetic_dataset(128, 4, 1, 12, 32);
  TrainRunConfig rc;
  rc.epochs = 6;
  rc.sgd.lr = 0.05;
  const auto logs = train_model(model, train_set, val_set, rc);
  ASSERT_EQ(logs.size(), 6u);
  // Chance is 75% error; the model must do far better.
  EXPECT_LT(logs.back().val_error, 40.0);
  EXPECT_LT(logs.back().val_error, logs.front().val_error + 1e-9);
}

TEST(Trainer, SerializedTrainingMatchesFullBatchForGn) {
  // Whole-run equivalence: identical val-error trajectories for GN with and
  // without MBS serialization (float32 tolerance).
  const Dataset train_set = make_synthetic_dataset(128, 4, 1, 12, 41);
  const Dataset val_set = make_synthetic_dataset(64, 4, 1, 12, 42);
  TrainRunConfig rc;
  rc.epochs = 3;
  rc.batch = 32;

  SmallCnnConfig cfg;
  cfg.norm = NormMode::kGroup;
  cfg.seed = 77;
  SmallCnn full(cfg);
  const auto lf = train_model(full, train_set, val_set, rc);

  rc.chunks = {8, 8, 8, 8};
  SmallCnn serial(cfg);
  const auto ls = train_model(serial, train_set, val_set, rc);

  for (std::size_t e = 0; e < lf.size(); ++e) {
    EXPECT_NEAR(lf[e].train_loss, ls[e].train_loss, 1e-3);
    EXPECT_NEAR(lf[e].val_error, ls[e].val_error, 1.6);
  }
}

TEST(Tensor, SliceBatch) {
  Tensor t({4, 2});
  for (std::int64_t i = 0; i < 8; ++i) t[i] = static_cast<float>(i);
  const Tensor s = t.slice_batch(1, 2);
  EXPECT_EQ(s.shape(), (std::vector<int>{2, 2}));
  EXPECT_EQ(s[0], 2.0f);
  EXPECT_EQ(s[3], 5.0f);
}

TEST(Tensor, AxpyAndScale) {
  Tensor a = Tensor::full({3}, 1.0f);
  Tensor b = Tensor::full({3}, 2.0f);
  a.axpy(0.5f, b);
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  a.scale(2.0f);
  EXPECT_FLOAT_EQ(a[1], 4.0f);
}

}  // namespace
}  // namespace mbs::train
