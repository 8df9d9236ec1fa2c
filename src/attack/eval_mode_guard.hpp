#pragma once
// Scope guard shared by every attack in src/attack/ (private to the module).

#include <cstddef>
#include <vector>

#include "nn/module.hpp"

namespace rt {

/// For code that wants gradients with respect to the input only. On entry it
/// switches the model to eval mode (batch-norm statistics are neither
/// polluted nor recomputed per step) and freezes every parameter, so
/// backward() returns dx without computing any weight gradient. On exit,
/// also by exception, it restores each parameter's previous `trainable` flag
/// and the previous mode, and clears all parameter gradients: attack
/// gradients never leak into training.
class EvalModeGuard {
 public:
  explicit EvalModeGuard(Module& model)
      : model_(model),
        was_training_(model.training()),
        params_(model.parameters()) {
    was_trainable_.reserve(params_.size());
    for (Parameter* p : params_) {
      was_trainable_.push_back(p->trainable);
      p->trainable = false;
    }
    model_.set_training(false);
  }

  ~EvalModeGuard() {
    // Reverse order, so a parameter listed twice gets its first-seen flag
    // back.
    for (std::size_t i = params_.size(); i-- > 0;) {
      params_[i]->trainable = was_trainable_[i];
      params_[i]->zero_grad();
    }
    model_.set_training(was_training_);
  }

  EvalModeGuard(const EvalModeGuard&) = delete;
  EvalModeGuard& operator=(const EvalModeGuard&) = delete;

 private:
  Module& model_;
  bool was_training_;
  std::vector<Parameter*> params_;
  std::vector<bool> was_trainable_;
};

}  // namespace rt
