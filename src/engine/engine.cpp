#include "engine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/audit.hpp"
#include "common/scheduler.hpp"
#include "hw/quant.hpp"
#include "linalg/gemm_s8.hpp"
#include "models/blocks.hpp"
#include "nn/activations.hpp"
#include "nn/loss.hpp"

namespace rt {

namespace {

/// Weight quantization width: the int8 kernels' offset arithmetic assumes
/// q in [-127, 127].
constexpr int kInt8Bits = 8;

std::int64_t div_round_up(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

std::string base_name(const std::string& param_name) {
  const std::string suffix = ".weight";
  if (param_name.size() > suffix.size() &&
      param_name.compare(param_name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return param_name.substr(0, param_name.size() - suffix.size());
  }
  return param_name;
}

/// Packs a layer's folded (out_ch, in_ch*k*k) weight, whose geometry and
/// folded bias pack_conv or pack_head already set, into the chosen format,
/// fills the int8 sidecar and appends the layer's plan record. The weight
/// buffer is consumed. The layer keeps its executed matrix row-major in
/// `weight` (the kept rows of a channel-compact layer, all rows otherwise)
/// and the int8 sidecar in the same order, whatever the format:
/// pack_layer resolves its tap table or packs its panels from them.
void pack_weights(PackedConv& p, std::vector<float> w,
                  const CompileOptions& options,
                  std::vector<LayerPlan>& plans) {
  const std::int64_t rows = p.out_ch;
  const std::int64_t cols = p.in_ch * p.geom.kernel * p.geom.kernel;
  std::vector<float> scales;
  if (options.int8_weights) {
    scales = fake_quantize_matrix(w.data(), rows, cols,
                                  QuantScheme::kPerChannel, kInt8Bits);
  }

  std::int64_t nnz = 0;
  std::vector<std::int32_t> kept;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t row_nnz = 0;
    for (std::int64_t c = 0; c < cols; ++c) {
      if (w[static_cast<std::size_t>(r * cols + c)] != 0.0f) ++row_nnz;
    }
    if (row_nnz > 0) kept.push_back(static_cast<std::int32_t>(r));
    nnz += row_nnz;
  }

  const PackedFormat format = choose_packed_format(
      rows, cols, nnz, static_cast<std::int64_t>(kept.size()), options);
  p.format = format;

  if (options.int8_weights) {
    // fake_quantize_matrix left every stored float equal to q * scale, so
    // the shippable integer is recovered exactly: one per stored float, in
    // stored order (the kept rows of a channel-compact layer, every entry
    // otherwise).
    const auto quantize_row = [&](std::int64_t r) {
      const float s = scales[static_cast<std::size_t>(r)];
      for (std::int64_t c = 0; c < cols; ++c) {
        const float v = w[static_cast<std::size_t>(r * cols + c)];
        p.qvalues.push_back(
            static_cast<std::int8_t>(s > 0.0f ? std::lround(v / s) : 0));
      }
    };
    if (format == PackedFormat::kChannelCompact) {
      for (const std::int32_t r : kept) quantize_row(r);
    } else {
      for (std::int64_t r = 0; r < rows; ++r) quantize_row(r);
    }
  }

  const std::int64_t macs_per_weight = p.out_h * p.out_w;
  LayerPlan plan;
  plan.name = p.name;
  plan.format = format;
  plan.quantized = options.int8_weights;
  plan.rows = rows;
  plan.cols = cols;
  plan.nnz = nnz;
  plan.kept_rows = static_cast<std::int64_t>(kept.size());
  plan.dense_macs = rows * cols * macs_per_weight;

  const std::int64_t value_bytes = options.int8_weights ? 1 : 4;
  switch (format) {
    case PackedFormat::kDense: {
      p.weight = std::move(w);
      plan.effective_macs = plan.dense_macs;
      plan.packed_bytes = rows * cols * value_bytes;
      break;
    }
    case PackedFormat::kChannelCompact: {
      p.kept = kept;
      for (const std::int32_t r : kept) {
        p.kept_bias.push_back(p.bias[static_cast<std::size_t>(r)]);
      }
      p.weight.resize(static_cast<std::size_t>(
          static_cast<std::int64_t>(kept.size()) * cols));
      for (std::size_t k = 0; k < kept.size(); ++k) {
        const float* src = w.data() + static_cast<std::int64_t>(kept[k]) * cols;
        std::copy(src, src + cols,
                  p.weight.data() + static_cast<std::int64_t>(k) * cols);
      }
      plan.effective_macs =
          static_cast<std::int64_t>(kept.size()) * cols * macs_per_weight;
      plan.packed_bytes = static_cast<std::int64_t>(kept.size()) * cols *
                              value_bytes +
                          div_round_up(rows, 8);  // kept-row bitmap
      break;
    }
    case PackedFormat::kCsr: {
      p.weight = std::move(w);
      plan.effective_macs = nnz * macs_per_weight;
      // values + 32-bit column indices + row pointers.
      plan.packed_bytes = nnz * value_bytes + nnz * 4 + (rows + 1) * 4;
      break;
    }
  }

  if (options.int8_weights) {
    p.qscales = std::move(scales);
    plan.packed_bytes +=
        static_cast<std::int64_t>(p.qscales.size()) * 4;  // fp32 scales
    // True int8 execution: pack_layer packs the sidecar into the quantized
    // kernel layer's executable operands.
    p.int8_exec = options.int8_native;
  }
  plan.packed_bytes += rows * 4;  // folded fp32 bias
  plans.push_back(std::move(plan));
}

/// The back half every plan layer shares: packs the folded weight
/// (pack_weights), then freezes the layer's executor with linalg's one tap
/// rule, applied to the executed matrix (a channel-compact layer's kept rows
/// hold all its nonzeros) whatever the format or precision: the format is
/// what ships, not what runs. Taps resolve from the matrix the layer
/// executes, the int8 sidecar for native layers, and their values replace
/// it. Panels are packed once per compile instead of once per serve-time
/// call; they are host-side acceleration, not part of the shippable
/// encoding, so they are reported apart from packed_bytes. A layer keeps
/// only what its executor reads.
void pack_layer(PackedConv& p, std::vector<float> w,
                const CompileOptions& options, std::vector<LayerPlan>& plans) {
  pack_weights(p, std::move(w), options, plans);
  LayerPlan& plan = plans.back();
  const std::int64_t ckk = plan.cols;
  const bool compact = p.format == PackedFormat::kChannelCompact;
  const std::int64_t exec_rows =
      compact ? static_cast<std::int64_t>(p.kept.size()) : p.out_ch;
  if (p.int8_exec) {
    p.qexec_scales.resize(static_cast<std::size_t>(exec_rows));
    for (std::int64_t r = 0; r < exec_rows; ++r) {
      p.qexec_scales[static_cast<std::size_t>(r)] = p.qscales[static_cast<
          std::size_t>(compact ? p.kept[static_cast<std::size_t>(r)] : r)];
    }
    std::vector<float>().swap(p.weight);
  } else {
    // Simulated int8 (int8_native off) runs the fake-quantized floats;
    // nothing reads the integers.
    std::vector<std::int8_t>().swap(p.qvalues);
  }
  if (conv_prefers_taps(plan.nnz, exec_rows, ckk, p.out_h * p.out_w)) {
    if (p.int8_exec) {
      std::vector<std::int8_t> values;
      p.taps.resolve(p.qvalues.data(), exec_rows, p.in_ch, p.in_h, p.in_w,
                     p.geom, values);
      p.qvalues = std::move(values);
    } else {
      std::vector<float> values;
      p.taps.resolve(p.weight.data(), exec_rows, p.in_ch, p.in_h, p.in_w,
                     p.geom, values);
      p.weight = std::move(values);
    }
  } else if (p.int8_exec) {
    // Quad panels + offset corrections + per-packed-row scales, with k
    // reordered to (ki, kj, channel quad): the kernel reads each quad of
    // the operand straight from channel-quad input planes.
    const std::vector<std::int8_t> quads = conv_s8_quad_weights(
        p.qvalues.data(), exec_rows, p.in_ch, p.geom.kernel);
    p.qpacked.pack(quads.data(), exec_rows,
                   p.geom.kernel * p.geom.kernel * round_up4(p.in_ch));
    p.qoffsets = conv_s8_quad_offsets(p.in_ch, p.in_h, p.in_w, p.geom);
    plan.prepacked_bytes =
        p.qpacked.bytes() + static_cast<std::int64_t>(p.qoffsets.size()) * 4;
    std::vector<std::int8_t>().swap(p.qvalues);
  } else {
    p.prepacked.pack(p.weight.data(), exec_rows, p.in_ch, p.geom,
                     /*forward=*/true, /*dgrad=*/false);
    plan.prepacked_bytes = p.prepacked.bytes();
    std::vector<float>().swap(p.weight);
  }
}

/// Folds conv (+ optional BN) into a PackedConv at the given input extent.
PackedConv pack_conv(const Conv2d& conv, const BatchNorm2d* bn, bool relu,
                     std::int64_t in_h, std::int64_t in_w,
                     const CompileOptions& options,
                     std::vector<LayerPlan>& plans) {
  PackedConv p;
  p.name = base_name(conv.weight().name);
  p.geom = conv.geometry();
  p.in_ch = conv.in_channels();
  p.out_ch = conv.out_channels();
  p.in_h = in_h;
  p.in_w = in_w;
  p.out_h = p.geom.out_extent(in_h);
  p.out_w = p.geom.out_extent(in_w);
  p.relu = relu;

  const std::int64_t ckk = p.in_ch * p.geom.kernel * p.geom.kernel;
  const Tensor& wv = conv.weight().value;
  std::vector<float> w(wv.data(), wv.data() + wv.numel());
  p.bias.assign(static_cast<std::size_t>(p.out_ch), 0.0f);
  if (conv.bias() != nullptr) {
    for (std::int64_t oc = 0; oc < p.out_ch; ++oc) {
      p.bias[static_cast<std::size_t>(oc)] = conv.bias()->value[oc];
    }
  }
  if (bn != nullptr) {
    if (bn->channels() != p.out_ch) {
      throw std::invalid_argument("Engine::compile: conv/bn channel mismatch");
    }
    for (std::int64_t oc = 0; oc < p.out_ch; ++oc) {
      const float s = bn->gamma().value[oc] /
                      std::sqrt(bn->running_var()[oc] + bn->eps());
      float* row = w.data() + oc * ckk;
      for (std::int64_t c = 0; c < ckk; ++c) row[c] *= s;
      // One fused multiply-add, so the folded bias has the same bits
      // whether or not the compiler contracts a multiply and an add.
      p.bias[static_cast<std::size_t>(oc)] = std::fma(
          s, p.bias[static_cast<std::size_t>(oc)] - bn->running_mean()[oc],
          bn->beta().value[oc]);
    }
  }
  pack_layer(p, std::move(w), options, plans);
  return p;
}

/// The classifier head as a 1x1 conv over the pooled features' 1x1 plane:
/// its (classes, features) weight is that conv's weight, its bias fuses into
/// the conv epilogue, and the conv's (n, classes, 1, 1) output is the (n,
/// classes) logits.
PackedConv pack_head(const Linear& lin, const CompileOptions& options,
                     std::vector<LayerPlan>& plans) {
  PackedConv p;
  p.name = base_name(lin.weight().name);
  p.geom = ConvGeometry{.kernel = 1, .stride = 1, .padding = 0};
  p.in_ch = lin.in_features();
  p.out_ch = lin.out_features();
  p.in_h = p.in_w = p.out_h = p.out_w = 1;
  p.bias.assign(static_cast<std::size_t>(p.out_ch), 0.0f);
  if (lin.bias() != nullptr) {
    for (std::int64_t j = 0; j < p.out_ch; ++j) {
      p.bias[static_cast<std::size_t>(j)] = lin.bias()->value[j];
    }
  }
  const Tensor& wv = lin.weight().value;
  pack_layer(p, std::vector<float>(wv.data(), wv.data() + wv.numel()),
             options, plans);
  return p;
}

/// Tracks the sizing maxima a Workspace needs: activation planes and the
/// int8 convs' channel-quad inputs. The fp32 convs' staging (ConvScratch)
/// grows to the plan's layers on a Workspace's first run.
struct ScratchExtents {
  std::int64_t plane = 0, ohw = 0, s8_quad = 0;

  void cover(const PackedConv& c) {
    plane = std::max({plane, c.in_floats(), c.out_floats()});
    ohw = std::max(ohw, c.out_h * c.out_w);
    if (!c.qoffsets.empty()) {
      s8_quad = std::max(s8_quad, s8_quad_plane_bytes(c.in_ch, c.in_h, c.in_w,
                                                      c.geom.padding));
    }
  }
};

}  // namespace

CompiledTicket Engine::compile(const ResNet& model,
                               const CompileOptions& options) {
  CompiledTicket t;
  t.height_ = options.height;
  t.width_ = options.width;
  t.in_channels_ = model.config().in_channels;
  t.num_classes_ = model.config().num_classes;
  t.feature_dim_ = model.feature_dim();

  ScratchExtents extents;
  std::int64_t h = options.height, w = options.width, ch = t.in_channels_;
  const Conv2d* pending_conv = nullptr;
  bool stem_done = false;

  for (std::size_t i = 0; i < model.trunk_size(); ++i) {
    const Module& m = model.trunk_module(i);
    if (const auto* conv = dynamic_cast<const Conv2d*>(&m)) {
      if (pending_conv != nullptr) {
        throw std::invalid_argument(
            "Engine::compile: bare conv without batch norm");
      }
      pending_conv = conv;
    } else if (const auto* bn = dynamic_cast<const BatchNorm2d*>(&m)) {
      if (pending_conv == nullptr || stem_done) {
        throw std::invalid_argument("Engine::compile: unexpected batch norm");
      }
      if (pending_conv->in_channels() != ch) {
        throw std::invalid_argument("Engine::compile: stem channel mismatch");
      }
      t.stem_ = pack_conv(*pending_conv, bn, /*relu=*/false, h, w, options,
                          t.layers_);
      extents.cover(t.stem_);
      h = t.stem_.out_h;
      w = t.stem_.out_w;
      ch = t.stem_.out_ch;
      pending_conv = nullptr;
      stem_done = true;
    } else if (dynamic_cast<const ReLU*>(&m) != nullptr) {
      if (!stem_done || !t.blocks_.empty()) {
        throw std::invalid_argument("Engine::compile: unexpected ReLU");
      }
      t.stem_.relu = true;
    } else if (const auto* basic = dynamic_cast<const BasicBlock*>(&m)) {
      CompiledBlock b;
      b.c1 = pack_conv(basic->conv1(), &basic->bn1(), /*relu=*/true, h, w,
                       options, t.layers_);
      b.c2 = pack_conv(basic->conv2(), &basic->bn2(), /*relu=*/false,
                       b.c1.out_h, b.c1.out_w, options, t.layers_);
      if (basic->has_projection()) {
        b.down = pack_conv(*basic->down_conv(), basic->down_bn(),
                           /*relu=*/false, h, w, options, t.layers_);
      }
      extents.cover(b.c1);
      extents.cover(b.c2);
      if (b.down) extents.cover(*b.down);
      h = b.c2.out_h;
      w = b.c2.out_w;
      ch = b.c2.out_ch;
      t.blocks_.push_back(std::move(b));
    } else if (const auto* bneck = dynamic_cast<const BottleneckBlock*>(&m)) {
      CompiledBlock b;
      b.c1 = pack_conv(bneck->conv1(), &bneck->bn1(), /*relu=*/true, h, w,
                       options, t.layers_);
      b.c2 = pack_conv(bneck->conv2(), &bneck->bn2(), /*relu=*/true,
                       b.c1.out_h, b.c1.out_w, options, t.layers_);
      b.c3 = pack_conv(bneck->conv3(), &bneck->bn3(), /*relu=*/false,
                       b.c2.out_h, b.c2.out_w, options, t.layers_);
      if (bneck->has_projection()) {
        b.down = pack_conv(*bneck->down_conv(), bneck->down_bn(),
                           /*relu=*/false, h, w, options, t.layers_);
      }
      extents.cover(b.c1);
      extents.cover(b.c2);
      extents.cover(*b.c3);
      if (b.down) extents.cover(*b.down);
      h = b.c3->out_h;
      w = b.c3->out_w;
      ch = b.c3->out_ch;
      t.blocks_.push_back(std::move(b));
    } else {
      throw std::invalid_argument(
          "Engine::compile: unsupported trunk module");
    }
  }
  if (!stem_done || pending_conv != nullptr) {
    throw std::invalid_argument("Engine::compile: malformed trunk");
  }
  if (ch != t.feature_dim_) {
    throw std::invalid_argument("Engine::compile: feature width mismatch");
  }
  t.feat_h_ = h;
  t.feat_w_ = w;

  t.head_ = pack_head(model.head(), options, t.layers_);
  extents.cover(t.head_);
  t.max_plane_floats_ = extents.plane;
  t.max_ohw_ = extents.ohw;
  t.s8_quad_bytes_ = extents.s8_quad;
  t.int8_native_ = options.int8_weights && options.int8_native;
  return t;
}

// ---- Session ----------------------------------------------------------------

Session::Session(CompiledTicket plan, int max_batch)
    : Session(std::make_shared<const CompiledTicket>(std::move(plan)),
              SessionOptions{.max_batch = max_batch}) {}

Session::Session(std::shared_ptr<const CompiledTicket> plan, int max_batch)
    : Session(std::move(plan), SessionOptions{.max_batch = max_batch}) {}

Session::Session(CompiledTicket plan, const SessionOptions& options)
    : Session(std::make_shared<const CompiledTicket>(std::move(plan)),
              options) {}

Session::Session(std::shared_ptr<const CompiledTicket> plan,
                 const SessionOptions& options)
    : plan_(std::move(plan)), options_(options) {
  if (options_.max_batch <= 0) {
    throw std::invalid_argument(
        "SessionOptions: max_batch must be > 0, got " +
        std::to_string(options_.max_batch));
  }
  if (plan_ == nullptr) {
    throw std::invalid_argument("Session: null plan");
  }
  // One workspace up front: a single-threaded caller never allocates again.
  idle_.push_back(std::make_unique<Workspace>(*plan_, options_.max_batch));
}

std::unique_ptr<Workspace> Session::acquire() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<Workspace> ws = std::move(idle_.back());
      idle_.pop_back();
      return ws;
    }
  }
  // Pool exhausted: a new concurrency high-water mark. Allocate outside the
  // lock; the workspace joins the pool on release.
  return std::make_unique<Workspace>(*plan_, options_.max_batch);
}

void Session::release(std::unique_ptr<Workspace> ws) {
  std::lock_guard<std::mutex> lock(mutex_);
  idle_.push_back(std::move(ws));
}

class Session::WorkspaceLease {
 public:
  explicit WorkspaceLease(Session& session)
      : session_(session), ws_(session.acquire()) {}
  ~WorkspaceLease() { session_.release(std::move(ws_)); }

  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  Workspace& get() { return *ws_; }

 private:
  Session& session_;
  std::unique_ptr<Workspace> ws_;
};

RT_HOT void Session::run_rows(const float* x, std::int64_t n, float* logits) {
  // Steady-state allocation-free: the lease recycles pooled workspaces and
  // only Session::acquire allocates, on a concurrency high-water mark.
  WorkspaceLease lease(*this);
  plan_->run(x, n, logits, lease.get());
}

void Session::run_chunk(const Tensor& x, std::int64_t begin, std::int64_t end,
                        Tensor& logits) {
  const std::int64_t plane =
      plan_->in_channels() * plan_->height() * plan_->width();
  run_rows(x.data() + begin * plane, end - begin,
           logits.data() + begin * plan_->num_classes());
}

Tensor Session::predict(const Tensor& x) {
  if (!options_.shared_scheduler) {
    WorkspaceLease lease(*this);
    return plan_->predict(x, lease.get());
  }
  // Shared-scheduler serving: every max_batch chunk becomes one stealable
  // task. Concurrent predict() calls from any number of threads feed the
  // same scheduler, which interleaves their chunks across one set of
  // workers — cooperative machine filling instead of per-call serialization.
  // Chunk boundaries are fixed by max_batch and each chunk runs the serial
  // executor on its own workspace, so the logits are bitwise identical to
  // serial mode.
  plan_->check_input(x);
  const std::int64_t n = x.dim(0);
  Tensor logits({n, plan_->num_classes()});
  const std::int64_t chunk = options_.max_batch;
  const std::int64_t chunks = (n + chunk - 1) / chunk;
  Scheduler::current().parallel_for(
      chunks,
      [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
          const std::int64_t begin = c * chunk;
          run_chunk(x, begin, std::min<std::int64_t>(n, begin + chunk),
                    logits);
        }
      },
      /*grain=*/1);
  return logits;
}

Tensor Session::predict_probabilities(const Tensor& x) {
  return softmax(predict(x));
}

std::vector<int> Session::classify(const Tensor& x) {
  return argmax_rows(predict(x));
}

}  // namespace rt
