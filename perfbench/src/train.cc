// train: the fig06 shape. SweepRunner::map fans out three SmallCnn runs (BN
// full-batch, GN+MBS with {8,8,8,8} sub-batches, no normalization) over
// the fig06 synthetic data for a fixed number of epochs.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "train/data.h"
#include "train/loss.h"
#include "train/trainer.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace mbs;

namespace {

constexpr int kEpochs = 4;
constexpr int kBatch = 32;

struct RunSpec {
  const char* name;
  train::NormMode norm;
  bool serialize;
};
constexpr RunSpec kRuns[] = {{"bn", train::NormMode::kBatch, false},
                             {"gn_mbs", train::NormMode::kGroup, true},
                             {"none", train::NormMode::kNone, false}};

train::SmallCnnConfig model_config(train::NormMode norm) {
  train::SmallCnnConfig cfg;
  cfg.norm = norm;
  cfg.classes = 8;
  cfg.stage_channels = {16, 32};
  cfg.seed = 2026;
  return cfg;
}

train::TrainRunConfig run_config(bool serialize) {
  train::TrainRunConfig rc;
  rc.epochs = kEpochs;
  rc.batch = kBatch;
  rc.sgd.lr = 0.05;
  rc.lr_decay_epochs = {8, 12};
  rc.lr_decay = 0.1;
  if (serialize) rc.chunks = {8, 8, 8, 8};
  return rc;
}

/// The final epoch's log, every double as a hex float (bit-exact).
std::string final_log(const train::EpochLog& e) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%a,%a,%a,%a", e.train_loss, e.val_error,
                e.first_preact_mean, e.last_preact_mean);
  return buf;
}

constexpr util::KernelKind kKinds[] = {
    util::KernelKind::kConvFwd, util::KernelKind::kConvBwd,
    util::KernelKind::kNorm,    util::KernelKind::kPool,
    util::KernelKind::kRelu,    util::KernelKind::kLinear,
    util::KernelKind::kSgd,     util::KernelKind::kGemm,
    util::KernelKind::kIm2col};
constexpr const char* kKindNames[] = {"conv_fwd", "conv_bwd", "norm",
                                      "pool",     "relu",     "linear",
                                      "sgd",      "gemm",     "im2col"};
constexpr std::size_t kNumKinds = sizeof kKinds / sizeof kKinds[0];

class Train : public Workload {
 public:
  explicit Train(const Options& o) : o_(o), rng_(o.seed) {}

  const char* op_name() const override { return "training samples"; }

  void setup() override {
    {
      ScopedSpan span("train.make_synthetic_dataset");
      train_set_ = train::make_synthetic_dataset(512, 8, 1, 12, 101, 1.0);
    }
    ScopedSpan span("train.make_synthetic_dataset");
    val_set_ = train::make_synthetic_dataset(256, 8, 1, 12, 102, 1.0);
  }

  Timed run() override {
    // The seed picks the order the three runs are handed to the pool.
    std::vector<int> order = {0, 1, 2};
    shuffle(order, rng_);
    std::vector<std::function<std::vector<train::EpochLog>()>> jobs;
    for (int i : order)
      jobs.push_back([this, i] {
        const RunSpec& r = kRuns[i];
        train::SmallCnn model(model_config(r.norm));
        return train::train_model(model, train_set_, val_set_,
                                  run_config(r.serialize));
      });
    util::KernelStat before[kNumKinds];
    for (std::size_t k = 0; k < kNumKinds; ++k) before[k] = util::kernel_stat(kKinds[k]);
    engine::SweepOptions so;
    so.threads = o_.threads;
    const BusyClock clock;
    std::vector<std::vector<train::EpochLog>> runs;
    {
      ScopedSpan span("engine.sweep_runner.map");
      runs = engine::SweepRunner(so).map<std::vector<train::EpochLog>>(jobs);
    }
    wall_s_ = clock.wall_s();
    const double cpu_s = clock.cpu_s();
    busy_frac_ = clock.busy_frac(o_.threads);
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      const util::KernelStat after = util::kernel_stat(kKinds[k]);
      kernels_[k].calls = after.calls - before[k].calls;
      kernels_[k].seconds = after.seconds - before[k].seconds;
      kernels_[k].flops = after.flops - before[k].flops;
    }
    for (std::size_t j = 0; j < order.size(); ++j)
      logs_[order[j]] = std::move(runs[j]);
    return {3LL * kEpochs * train_set_.size(), wall_s_, cpu_s};
  }

  void check(Tally& tally) override {
    for (int i = 0; i < 3; ++i) {
      const std::string got = logs_[i].empty() ? "" : final_log(logs_[i].back());
      tally.check(got == read_expected(o_, "train.txt", kRuns[i].name), 1,
                  std::string("train: final epoch log of '") + kRuns[i].name +
                      "' differs from the recorded one: " + got);
    }
    if (!gradients_checked_) {
      gradients_checked_ = true;
      tally.check(gn_gradients_match(), 1,
                  "train: GN full-batch and GN+MBS gradients differ");
    }
  }

  void attribute(LayerMetrics& m, Tally& tally) override;

  std::vector<std::string> notes() const override {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "train: %d epochs x 512 samples x 3 runs; GN full-batch vs "
                  "GN+MBS max |grad diff| %.2e (bound 2e-4)",
                  kEpochs, grad_diff_);
    return {buf};
  }

 private:
  /// The fig06 bit-level argument: serialized GN gradients equal the
  /// full-batch ones up to float32 reassociation.
  bool gn_gradients_match() {
    train::SmallCnnConfig cfg;
    cfg.norm = train::NormMode::kGroup;
    cfg.seed = 4;
    cfg.classes = 8;
    const train::Tensor x = train_set_.images.slice_batch(0, kBatch);
    const std::vector<int> labels(train_set_.labels.begin(),
                                  train_set_.labels.begin() + kBatch);
    train::SmallCnn full(cfg), serial(cfg);
    train::compute_gradients(full, x, labels, {kBatch});
    train::compute_gradients(serial, x, labels, {8, 8, 8, 8});
    const auto gf = full.gradients(), gs = serial.gradients();
    for (std::size_t i = 0; i < gf.size(); ++i)
      for (std::int64_t j = 0; j < gf[i]->size(); ++j)
        grad_diff_ = std::max(grad_diff_,
                              static_cast<double>(std::fabs((*gf[i])[j] - (*gs[i])[j])));
    return grad_diff_ <= 2e-4;
  }

  Options o_;
  Rng rng_;
  train::Dataset train_set_, val_set_;
  std::vector<train::EpochLog> logs_[3];
  util::KernelStat kernels_[kNumKinds];
  double wall_s_ = 0;
  double busy_frac_ = 0;
  bool gradients_checked_ = false;
  double grad_diff_ = 0;
};

void Train::attribute(LayerMetrics& m, Tally&) {
  double kernel_s = 0;
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    const std::string base = std::string("train.kernel.") + kKindNames[k];
    m[base + ".s"] = kernels_[k].seconds;
    m[base + ".calls"] = static_cast<double>(kernels_[k].calls);
    kernel_s += kernels_[k].seconds;
    if (kKinds[k] == util::KernelKind::kConvFwd || kKinds[k] == util::KernelKind::kConvBwd)
      m[base + ".gflops"] = kernels_[k].seconds > 0
                                ? static_cast<double>(kernels_[k].flops) /
                                      kernels_[k].seconds * 1e-9
                                : 0;
  }
  m["train.kernel.busy_frac"] = kernel_s / (wall_s_ * o_.threads);
  m["engine.sweep_runner.busy_frac"] = busy_frac_;

  // One epoch of serial GN training steps, each phase in its own span.
  train::SmallCnn model(model_config(train::NormMode::kGroup));
  train::Sgd opt(run_config(false).sgd);
  for (int off = 0; off + kBatch <= train_set_.size(); off += kBatch) {
    const train::Tensor x = train_set_.images.slice_batch(off, kBatch);
    const std::vector<int> labels(train_set_.labels.begin() + off,
                                  train_set_.labels.begin() + off + kBatch);
    train::Tensor logits;
    {
      ScopedSpan span("train.step.forward");
      logits = model.forward(x);
    }
    train::LossResult loss = train::softmax_cross_entropy(logits, labels);
    loss.dlogits.scale(1.0f / kBatch);
    model.zero_grad();
    {
      ScopedSpan span("train.step.backward");
      model.backward(loss.dlogits);
    }
    ScopedSpan span("train.step.sgd");
    opt.step(model.parameters(), model.gradients());
  }

  // Each stage's conv and GN kernels on that stage's shapes.
  util::Rng rng(7);
  const int channels[] = {1, 16, 32};
  const int image[] = {12, 6};
  for (int st = 0; st < 2; ++st) {
    const int ci = channels[st], co = channels[st + 1], hw = image[st];
    const train::Tensor x = train::Tensor::randn({kBatch, ci, hw, hw}, rng);
    const train::Tensor w = train::Tensor::randn({co, ci, 3, 3}, rng, 0.1);
    const train::Tensor b = train::Tensor::randn({co}, rng);
    const train::Tensor dy = train::Tensor::randn({kBatch, co, hw, hw}, rng);
    const train::Tensor gamma = train::Tensor::full({co}, 1.0f);
    const train::Tensor beta({co});
    train::ConvCache cache;
    train::Tensor y;
    train::Conv2dGrads g;
    train::NormCache ncache;
    const std::string base = "train.layer.stage" + std::to_string(st) + ".";
    for (int rep = 0; rep < 50; ++rep) {
      {
        ScopedSpan span(base + "conv_fwd");
        train::conv2d_forward_into(x, w, b, 1, 1, &cache, y);
      }
      {
        ScopedSpan span(base + "conv_bwd");
        train::conv2d_backward_into(x, w, dy, 1, 1, /*need_dx=*/st > 0, &cache, g);
      }
      {
        ScopedSpan span(base + "norm_fwd");
        (void)train::groupnorm_forward(y, gamma, beta, 4, ncache);
      }
      ScopedSpan span(base + "norm_bwd");
      (void)train::groupnorm_backward(dy, gamma, 4, ncache);
    }
  }
}

}  // namespace

std::unique_ptr<Workload> make_train(const Options& o) {
  return std::make_unique<Train>(o);
}

}  // namespace perfbench
