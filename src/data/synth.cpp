#include "data/synth.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/numeric.hpp"

namespace rt {

namespace {

constexpr int kS = kImageSize;
constexpr std::uint64_t kSourceSeed = 0xA11CEULL;
// kTwoPi comes from common/numeric.hpp.

float soft_edge(float signed_dist, float sharpness = 1.2f) {
  // Maps signed distance (positive inside) to [0, 1] with a soft boundary.
  const float v = std::fma(signed_dist, sharpness, 0.5f);
  return v < 0.0f ? 0.0f : (v > 1.0f ? 1.0f : v);
}

/// One color channel's intensity at hue phase `phase`.
float channel_tint(float phase) {
  return std::fma(0.45f, std::sin(kTwoPi * phase), 0.55f);
}

/// Channel ch of a hue sits at phase hue + ch / 3.
std::array<float, 3> hue_to_color(float hue) {
  std::array<float, 3> c{};
  for (int ch = 0; ch < 3; ++ch) {
    c[static_cast<std::size_t>(ch)] =
        channel_tint(hue + static_cast<float>(ch) / 3.0f);
  }
  return c;
}

}  // namespace

void render_archetype(int archetype, float cx, float cy, Rng& rng,
                      float* mask) {
  if (archetype < 0 || archetype >= kNumArchetypes) {
    throw std::invalid_argument("render_archetype: bad archetype");
  }
  auto at = [&](int y, int x) -> float& { return mask[y * kS + x]; };
  for (int i = 0; i < kS * kS; ++i) mask[i] = 0.0f;

  switch (archetype) {
    case 0: {  // filled disk
      const float r = rng.uniform(3.5f, 5.0f);
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          const float d = std::hypot(static_cast<float>(x) - cx,
                                     static_cast<float>(y) - cy);
          at(y, x) = soft_edge(r - d);
        }
      }
      break;
    }
    case 1: {  // ring
      const float r = rng.uniform(4.0f, 5.5f);
      const float t = rng.uniform(1.0f, 1.6f);
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          const float d = std::hypot(static_cast<float>(x) - cx,
                                     static_cast<float>(y) - cy);
          at(y, x) = soft_edge(t - std::fabs(d - r));
        }
      }
      break;
    }
    case 2: {  // horizontal bars (period 4)
      const float phase = rng.uniform(0.0f, 4.0f);
      for (int y = 0; y < kS; ++y) {
        const float v =
            std::fma(0.5f,
                     std::sin(kTwoPi * (static_cast<float>(y) + phase) / 4.0f),
                     0.5f);
        for (int x = 0; x < kS; ++x) at(y, x) = v > 0.5f ? 1.0f : 0.0f;
      }
      break;
    }
    case 3: {  // vertical bars (period 4)
      const float phase = rng.uniform(0.0f, 4.0f);
      for (int x = 0; x < kS; ++x) {
        const float v =
            std::fma(0.5f,
                     std::sin(kTwoPi * (static_cast<float>(x) + phase) / 4.0f),
                     0.5f);
        for (int y = 0; y < kS; ++y) at(y, x) = v > 0.5f ? 1.0f : 0.0f;
      }
      break;
    }
    case 4: {  // diagonal stripes (period 6 along x+y)
      const float phase = rng.uniform(0.0f, 6.0f);
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          const float v = std::fma(
              0.5f,
              std::sin(kTwoPi * (static_cast<float>(x + y) + phase) / 6.0f),
              0.5f);
          at(y, x) = v > 0.5f ? 1.0f : 0.0f;
        }
      }
      break;
    }
    case 5: {  // checkerboard, cell 4
      const int px = rng.uniform_int(0, 3);
      const int py = rng.uniform_int(0, 3);
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          at(y, x) = (((x + px) / 4 + (y + py) / 4) % 2 == 0) ? 1.0f : 0.0f;
        }
      }
      break;
    }
    case 6: {  // two gaussian blobs
      const float sep = rng.uniform(3.0f, 4.5f);
      const float sig = rng.uniform(1.4f, 2.0f);
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          const float d1 = std::fma(x - (cx - sep), x - (cx - sep),
                                    (y - cy) * (y - cy));
          const float d2 = std::fma(x - (cx + sep), x - (cx + sep),
                                    (y - cy) * (y - cy));
          const float v = std::exp(-d1 / (2 * sig * sig)) +
                          std::exp(-d2 / (2 * sig * sig));
          at(y, x) = v > 1.0f ? 1.0f : v;
        }
      }
      break;
    }
    case 7: {  // triangle wedge
      const float s = rng.uniform(5.0f, 7.0f);
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          const float u = static_cast<float>(x) - cx + s / 2;
          const float v = static_cast<float>(y) - cy + s / 2;
          const float inside =
              std::min(std::min(u, v), s - (u + v));
          at(y, x) = soft_edge(inside);
        }
      }
      break;
    }
    case 8: {  // axis-aligned cross
      const float w = rng.uniform(1.2f, 1.8f);
      const float ext = rng.uniform(5.0f, 6.5f);
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          const float ax = std::fabs(static_cast<float>(x) - cx);
          const float ay = std::fabs(static_cast<float>(y) - cy);
          const float arm1 = std::min(w - ax, ext - ay);
          const float arm2 = std::min(w - ay, ext - ax);
          at(y, x) = soft_edge(std::max(arm1, arm2));
        }
      }
      break;
    }
    case 9: {  // diamond
      const float r = rng.uniform(4.0f, 5.5f);
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          const float d = std::fabs(static_cast<float>(x) - cx) +
                          std::fabs(static_cast<float>(y) - cy);
          at(y, x) = soft_edge(r - d);
        }
      }
      break;
    }
    case 10: {  // X (diagonal cross) — OoD pool starts here
      const float w = rng.uniform(1.2f, 1.8f);
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          const float u = static_cast<float>(x) - cx;
          const float v = static_cast<float>(y) - cy;
          const float d = std::min(std::fabs(u - v), std::fabs(u + v));
          const float ext = 6.5f - std::max(std::fabs(u), std::fabs(v));
          at(y, x) = soft_edge(std::min(w - d, ext));
        }
      }
      break;
    }
    case 11: {  // half disk
      const float r = rng.uniform(4.0f, 5.5f);
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          const float d = std::hypot(static_cast<float>(x) - cx,
                                     static_cast<float>(y) - cy);
          const float half = cx - static_cast<float>(x);
          at(y, x) = soft_edge(std::min(r - d, half));
        }
      }
      break;
    }
    case 12: {  // three dots in a row
      const float sep = rng.uniform(4.0f, 5.0f);
      const float sig = rng.uniform(1.1f, 1.5f);
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          float v = 0.0f;
          for (int k = -1; k <= 1; ++k) {
            const float dx = static_cast<float>(x) -
                             std::fma(sep, static_cast<float>(k), cx);
            const float dy = static_cast<float>(y) - cy;
            v += std::exp(-std::fma(dx, dx, dy * dy) / (2 * sig * sig));
          }
          at(y, x) = v > 1.0f ? 1.0f : v;
        }
      }
      break;
    }
    case 13: {  // square frame
      const float r = rng.uniform(4.0f, 5.5f);
      const float t = rng.uniform(1.0f, 1.5f);
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          const float d = std::max(std::fabs(static_cast<float>(x) - cx),
                                   std::fabs(static_cast<float>(y) - cy));
          at(y, x) = soft_edge(t - std::fabs(d - r));
        }
      }
      break;
    }
    case 14: {  // single thick vertical bar
      const float w = rng.uniform(2.0f, 3.0f);
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          at(y, x) = soft_edge(w - std::fabs(static_cast<float>(x) - cx));
        }
      }
      break;
    }
    case 15: {  // dot inside ring
      const float r = rng.uniform(4.5f, 6.0f);
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          const float d = std::hypot(static_cast<float>(x) - cx,
                                     static_cast<float>(y) - cy);
          const float ring = soft_edge(1.1f - std::fabs(d - r));
          const float dot = soft_edge(2.0f - d);
          at(y, x) = std::max(ring, dot);
        }
      }
      break;
    }
    default:
      break;
  }
}

namespace {

std::vector<Tensor> make_patterns(int count, std::uint64_t seed) {
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(count));
  Rng rng(seed, /*stream=*/0x9E3779B9ULL);
  for (int c = 0; c < count; ++c) {
    Tensor p({3, kS, kS});
    for (std::int64_t i = 0; i < p.numel(); ++i) {
      p[i] = rng.bernoulli(0.5f) ? 1.0f : -1.0f;
    }
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace

SynthTaskSpec source_task_spec() {
  SynthTaskSpec spec;
  spec.name = "synth-imagenet";
  spec.num_classes = 10;
  spec.shift = 0.0f;
  spec.pattern_amplitude = 0.07f;
  spec.seed = kSourceSeed;
  Rng rng(spec.seed);
  for (int c = 0; c < spec.num_classes; ++c) {
    ClassSpec cs;
    cs.archetype = c;
    // Hue 0.618034 * c, each channel's phase one fused multiply-add.
    for (int ch = 0; ch < 3; ++ch) {
      cs.color[static_cast<std::size_t>(ch)] = channel_tint(std::fma(
          0.618034f, static_cast<float>(c), static_cast<float>(ch) / 3.0f));
    }
    spec.classes.push_back(cs);
  }
  spec.patterns = make_patterns(spec.num_classes, spec.seed);
  return spec;
}

SynthTaskSpec downstream_task_spec(const std::string& name, int num_classes,
                                   float shift, std::uint64_t seed) {
  if (shift < 0.0f || shift > 1.0f) {
    throw std::invalid_argument("downstream_task_spec: shift out of [0,1]");
  }
  const SynthTaskSpec source = source_task_spec();
  SynthTaskSpec spec;
  spec.name = name;
  spec.num_classes = num_classes;
  spec.shift = shift;
  spec.seed = seed;
  Rng rng(seed, /*stream=*/0xD15EA5EULL);
  for (int c = 0; c < num_classes; ++c) {
    ClassSpec cs;
    cs.archetype = c % 10;  // downstream tasks reuse the source shape pool
    // Class tint rotates away from the source archetype's hue by an angle
    // proportional to shift (random direction, deterministic magnitude):
    // shift 0 => downstream classes look like source classes, so source
    // features transfer directly; shift 1 => full appearance gap.
    const float source_hue = 0.618034f * static_cast<float>(cs.archetype);
    const float direction = rng.bernoulli(0.5f) ? 1.0f : -1.0f;
    const float hue =
        std::fma(direction * shift, rng.uniform(0.25f, 0.45f), source_hue);
    cs.color = hue_to_color(hue);
    spec.classes.push_back(cs);
    // The brittle cue of a downstream class is the SOURCE pattern of its
    // archetype; corruption below decorrelates it in proportion to shift.
    spec.patterns.push_back(source.patterns[static_cast<std::size_t>(cs.archetype)]);
  }
  spec.pattern_amplitude = 0.07f * std::fma(-0.3f, shift, 1.0f);
  spec.pattern_corruption = 0.5f * shift;
  // Deterministic magnitudes with random signs: the SIZE of the photometric
  // gap tracks shift exactly (so measured FID orders tasks like Tab. II),
  // while its direction stays task-specific.
  for (int ch = 0; ch < 3; ++ch) {
    const float gain_dir = rng.bernoulli(0.5f) ? 1.0f : -1.0f;
    const float bias_dir = rng.bernoulli(0.5f) ? 1.0f : -1.0f;
    spec.channel_gain[static_cast<std::size_t>(ch)] =
        std::fma(gain_dir * shift, rng.uniform(0.22f, 0.30f), 1.0f);
    spec.channel_bias[static_cast<std::size_t>(ch)] =
        bias_dir * shift * rng.uniform(0.04f, 0.07f);
  }
  spec.noise_sigma = std::fma(0.08f, shift, 0.02f);
  spec.texture_amplitude = 0.10f * shift;
  spec.texture_fx = rng.uniform(0.15f, 0.45f);
  spec.texture_fy = rng.uniform(0.15f, 0.45f);
  spec.texture_phase = rng.uniform(0.0f, kTwoPi);
  spec.position_jitter = std::fma(2.0f, shift, 2.0f);
  return spec;
}

Dataset generate_dataset(const SynthTaskSpec& spec, int n,
                         std::uint64_t sample_seed) {
  if (n <= 0) throw std::invalid_argument("generate_dataset: n must be > 0");
  if (spec.classes.empty() ||
      spec.classes.size() != spec.patterns.size()) {
    throw std::invalid_argument("generate_dataset: spec not built");
  }
  Dataset ds;
  ds.name = spec.name;
  ds.num_classes = spec.num_classes;
  ds.images = Tensor({n, 3, kS, kS});
  ds.labels.resize(static_cast<std::size_t>(n));

  Rng rng(sample_seed ^ (spec.seed * 0x9E3779B97F4A7C15ULL));
  std::vector<int> order = random_permutation(n, rng);

  for (int i = 0; i < n; ++i) {
    const int cls = i % spec.num_classes;  // balanced before shuffling
    const int slot = order[static_cast<std::size_t>(i)];
    ds.labels[static_cast<std::size_t>(slot)] = cls;
    const ClassSpec& cs = spec.classes[static_cast<std::size_t>(cls)];
    Rng inst = rng.split();

    const float cx = 7.5f + inst.uniform(-spec.position_jitter,
                                         spec.position_jitter);
    const float cy = 7.5f + inst.uniform(-spec.position_jitter,
                                         spec.position_jitter);
    float mask[kS * kS];
    render_archetype(cs.archetype, cx, cy, inst, mask);

    // Background: smooth gradient.
    const float b0 = inst.uniform(0.30f, 0.45f);
    const float gx = inst.uniform(-0.12f, 0.12f);
    const float gy = inst.uniform(-0.12f, 0.12f);
    const float amp = inst.uniform(0.40f, 0.60f);
    const Tensor& pattern = spec.patterns[static_cast<std::size_t>(cls)];

    float* img = ds.images.data() + static_cast<std::int64_t>(slot) * 3 * kS * kS;
    for (int ch = 0; ch < 3; ++ch) {
      const float color = cs.color[static_cast<std::size_t>(ch)];
      const float gain = spec.channel_gain[static_cast<std::size_t>(ch)];
      const float bias = spec.channel_bias[static_cast<std::size_t>(ch)];
      for (int y = 0; y < kS; ++y) {
        for (int x = 0; x < kS; ++x) {
          // Dividing by 8 is exact, so a contracted b0 + gx * (x - 7.5) / 8
          // rounds as the two-step sum does: no std::fma needed here.
          float v = b0 + gx * (static_cast<float>(x) - 7.5f) / 8.0f +
                    gy * (static_cast<float>(y) - 7.5f) / 8.0f;
          v = std::fma(amp * color, mask[y * kS + x], v);
          if (spec.texture_amplitude > 0.0f) {
            const float t = std::fma(spec.texture_fx, static_cast<float>(x),
                                     spec.texture_fy * static_cast<float>(y));
            v = std::fma(spec.texture_amplitude,
                         std::sin(std::fma(kTwoPi, t, spec.texture_phase)), v);
          }
          float p = pattern.data()[(ch * kS + y) * kS + x];
          if (spec.pattern_corruption > 0.0f &&
              inst.bernoulli(spec.pattern_corruption)) {
            p = -p;
          }
          v = std::fma(spec.pattern_amplitude, p, v);
          v = std::fma(v, gain, bias);
          v += inst.normal(0.0f, spec.noise_sigma);
          img[(ch * kS + y) * kS + x] = std::clamp(v, 0.0f, 1.0f);
        }
      }
    }
  }
  return ds;
}

Dataset generate_ood_dataset(int n, std::uint64_t seed) {
  SynthTaskSpec spec;
  spec.name = "synth-ood";
  spec.num_classes = 6;
  spec.seed = seed;
  spec.noise_sigma = 0.04f;
  spec.pattern_amplitude = 0.0f;
  Rng rng(seed, /*stream=*/0x0DDBA11ULL);
  for (int c = 0; c < spec.num_classes; ++c) {
    ClassSpec cs;
    cs.archetype = 10 + c;  // archetypes never used by classification tasks
    cs.color = hue_to_color(rng.uniform());
    spec.classes.push_back(cs);
    spec.patterns.push_back(Tensor({3, kS, kS}));  // zero pattern
  }
  Dataset ds = generate_dataset(spec, n, seed ^ 0xBADC0DEULL);
  // OoD labels carry no meaning for detection; collapse them.
  for (auto& l : ds.labels) l = 0;
  ds.num_classes = 1;
  return ds;
}

}  // namespace rt
