#pragma once
// Layer abstraction with explicit manual backpropagation.
//
// Every layer caches what it needs during forward() and implements
// backward(grad_out) -> grad_in, accumulating the gradients of trainable
// parameters as a side effect. Manual backprop (instead of an autograd tape)
// is a deliberate choice: PGD attacks need input gradients, LMP needs
// straight-through estimation on masks, and IMP needs weight rewinding — all
// of which want direct control over the backward pass.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"

namespace rt {

/// What a parameter tensor represents; drives pruning eligibility and
/// structured-granularity grouping.
enum class ParamKind {
  kConvWeight,    ///< (out_ch, in_ch * k * k) matrix of a Conv2d
  kLinearWeight,  ///< (out, in) matrix of a Linear
  kBias,
  kBnGamma,
  kBnBeta,
};

/// A trainable tensor with gradient and an optional binary sparsity mask.
///
/// Mask semantics (the ticket contract): when a mask is installed,
/// value == value * mask holds after every optimizer step, and gradients of
/// masked-out entries are zeroed before the update. apply_mask()/mask_grad()
/// enforce this; SGD calls them automatically.
struct Parameter {
  std::string name;
  ParamKind kind = ParamKind::kBias;
  Tensor value;
  Tensor grad;
  Tensor mask;  ///< empty => dense
  /// Frozen (false): backward skips its gradient, optimizers skip its
  /// update. PyTorch's requires_grad; the input gradient a layer returns is
  /// the same bits either way.
  bool trainable = true;

  // Conv geometry, needed to map the flattened weight matrix onto
  // channel/kernel/row structured-pruning groups.
  std::int64_t conv_in_channels = 0;
  std::int64_t conv_kernel = 0;

  /// True for weights that pruning may remove (conv + linear weights).
  bool prunable() const {
    return kind == ParamKind::kConvWeight || kind == ParamKind::kLinearWeight;
  }
  bool has_mask() const { return !mask.empty(); }
  void zero_grad() { grad.fill_(0.0f); }
  /// value *= mask (no-op when dense).
  void apply_mask();
  /// grad *= mask (no-op when dense).
  void mask_grad();
  /// Installs a mask (must match value's shape) and immediately applies it.
  void set_mask(Tensor m);
  /// Removes the mask (weights keep their current, possibly zeroed, values).
  void clear_mask() { mask = Tensor(); }
};

/// Base class for all layers and composite networks.
class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Computes the output and caches activations needed by backward().
  virtual Tensor forward(const Tensor& x) = 0;

  /// Propagates grad_out (same shape as the last forward output) back to the
  /// input, accumulating .grad of every trainable parameter along the way
  /// (frozen ones are skipped; the returned input gradient does not depend
  /// on the flags). Must be called after a matching forward().
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Appends raw pointers to all parameters owned (transitively) by this
  /// module. Pointers remain valid for the module's lifetime.
  virtual void collect_parameters(std::vector<Parameter*>& out) = 0;

  /// Switches train/eval behaviour (batch-norm statistics, etc.).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Non-parameter persistent state (batch-norm running statistics).
  /// Names must be unique within a model.
  using NamedTensor = std::pair<std::string, Tensor*>;
  virtual void collect_buffers(std::vector<NamedTensor>& out) {
    (void)out;
  }

  std::vector<Parameter*> parameters();
  void zero_grad();
  /// Total number of scalar parameters.
  std::int64_t num_parameters();
  /// Number of scalars kept by masks (== num_parameters when dense).
  std::int64_t num_unmasked_parameters();

  /// Snapshot of all parameter values and buffers, keyed by name.
  StateDict state_dict();
  /// Restores parameter values and buffers by name. Throws if a stored entry
  /// has no matching destination or shapes differ; entries missing from
  /// `state` keep their current values.
  void load_state(const StateDict& state);

 protected:
  bool training_ = true;
};

/// Runs sub-modules in order; backward in reverse order.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns a non-owning typed pointer for later access.
  template <typename T, typename... Args>
  T* emplace(Args&&... args) {
    auto layer = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  void append(std::unique_ptr<Module> m) { layers_.push_back(std::move(m)); }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_buffers(std::vector<NamedTensor>& out) override;
  void set_training(bool training) override;

  std::size_t size() const { return layers_.size(); }
  Module& layer(std::size_t i) { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace rt
