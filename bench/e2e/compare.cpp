// e2e_compare: reads run records written by e2e_bench and judges them.
//
//   e2e_compare [--bench BENCHMARK.json] BASE_DIR NEW_DIR
//       One row per workload x metric: each side's median and quartiles, the
//       share of seed-matched pairs the new side wins, and a verdict
//       (end-to-end metrics only, with the bounds from BENCHMARK.json):
//         failed      a run failed an output check
//         unresolved  a side's spread (IQR / median) is wider than the bound,
//                     unless every new run beats every base run
//         regressed   the new median is worse than the base median by more
//                     than the bound
//         improved    the new side wins >= 9/10 of the pairs and the medians
//                     differ by more than the base side's IQR
//         unchanged   otherwise
//       Exit status 1 when any row failed or regressed.
//   e2e_compare --overhead UNTRACED.json TRACED.json
//       Tracing overhead: each end-to-end metric, traced minus untraced.
//   e2e_compare --calibrate [--bench BENCHMARK.json] DIR
//       Per workload x metric: the values, median, quartiles and relative
//       IQR; per end-to-end metric the widest spread and the bound it
//       suggests. Prints JSON (calibration.json is this output).

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

// ---- a minimal JSON reader (objects, arrays, strings, numbers, literals) ---

struct Json {
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class Parser {
 public:
  explicit Parser(std::string text) : s_(std::move(text)) {}

  Json parse() {
    Json v = value();
    ws();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error(std::string("JSON: ") + what + " at offset " +
                             std::to_string(i_));
  }
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail("unexpected character");
  }
  std::string str() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) fail("bad escape");
        const char e = s_[i_];
        out.push_back(e == 'n' ? '\n' : e == 't' ? '\t' : e);
      } else {
        out.push_back(s_[i_]);
      }
      ++i_;
    }
    expect('"');
    return out;
  }
  Json value() {
    ws();
    if (i_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      if (eat('}')) return v;
      do {
        ws();
        std::string key = str();
        expect(':');
        v.object[key] = value();
      } while (eat(','));
      expect('}');
    } else if (c == '[') {
      ++i_;
      if (eat(']')) return v;
      do {
        v.array.push_back(value());
      } while (eat(','));
      expect(']');
    } else if (c == '"') {
      v.string = str();
    } else if (s_.compare(i_, 4, "true") == 0) {
      v.boolean = true;
      i_ += 4;
    } else if (s_.compare(i_, 5, "false") == 0) {
      i_ += 5;
    } else if (s_.compare(i_, 4, "null") == 0) {
      i_ += 4;
    } else {
      char* end = nullptr;
      v.number = std::strtod(s_.c_str() + i_, &end);
      if (end == s_.c_str() + i_) fail("bad number");
      i_ = static_cast<std::size_t>(end - s_.c_str());
    }
    return v;
  }

  std::string s_;
  std::size_t i_ = 0;
};

Json read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return Parser(ss.str()).parse();
}

// ---- run records --------------------------------------------------------

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  bool correct = false;
  std::map<std::string, double> metrics;  // end-to-end and per-layer
};

Run load_run(const std::string& path) {
  const Json j = read_json(path);
  Run r;
  r.workload = j.at("workload").string;
  r.seed = static_cast<std::uint64_t>(j.at("seed").number);
  r.correct = j.at("correct").boolean && j.at("failed").number == 0.0;
  for (const char* section : {"metrics", "per_layer"}) {
    if (!j.has(section)) continue;
    for (const auto& [name, m] : j.at(section).object) {
      r.metrics[name] = m.at("value").number;
    }
  }
  return r;
}

/// workload -> seed -> run, from every *.json in `dir`.
std::map<std::string, std::map<std::uint64_t, Run>> load_dir(
    const std::string& dir) {
  std::map<std::string, std::map<std::uint64_t, Run>> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    Run r = load_run(entry.path().string());
    out[r.workload][r.seed] = std::move(r);
  }
  if (out.empty()) throw std::runtime_error("no run records in " + dir);
  return out;
}

struct MetricSpec {
  bool lower_is_better = true;
  double bound = -1.0;  // < 0: per-layer metric, no bound
};

std::map<std::string, MetricSpec> load_specs(const std::string& path) {
  std::map<std::string, MetricSpec> out;
  const Json j = read_json(path);
  for (const char* section : {"end_to_end", "per_layer"}) {
    for (const Json& m : j.at(section).array) {
      MetricSpec spec;
      spec.lower_is_better = m.at("better").string == "lower";
      if (m.has("bound")) spec.bound = m.at("bound").number;
      out[m.at("name").string] = spec;
    }
  }
  return out;
}

std::vector<double> values_of(const std::map<std::uint64_t, Run>& runs,
                              const std::string& metric) {
  std::vector<double> v;
  for (const auto& [seed, r] : runs) {
    const auto it = r.metrics.find(metric);
    if (it != r.metrics.end()) v.push_back(it->second);
  }
  return v;
}

// ---- modes ----------------------------------------------------------------

int compare(const std::string& bench, const std::string& base_dir,
            const std::string& new_dir) {
  const auto specs = load_specs(bench);
  const auto base = load_dir(base_dir);
  const auto next = load_dir(new_dir);
  bool bad = false;
  std::printf("%-12s %-24s %12s %23s %12s %23s %8s %6s  %s\n", "workload",
              "metric", "base", "[q1, q3]", "new", "[q1, q3]", "change",
              "wins", "verdict");
  for (const auto& [workload, base_runs] : base) {
    const auto found = next.find(workload);
    if (found == next.end()) continue;
    const auto& new_runs = found->second;
    bool any_failed = false;
    for (const auto* side : {&base_runs, &new_runs}) {
      for (const auto& [seed, r] : *side) any_failed |= !r.correct;
    }
    for (const auto& [metric, spec] : specs) {
      const std::vector<double> a = values_of(base_runs, metric);
      const std::vector<double> b = values_of(new_runs, metric);
      if (a.empty() || b.empty()) continue;
      const auto better = [&](double x, double y) {  // x better than y
        return spec.lower_is_better ? x < y : x > y;
      };
      const e2e::Quartiles qa = e2e::quartiles(a);
      const e2e::Quartiles qb = e2e::quartiles(b);
      int wins = 0, pairs = 0;
      for (const auto& [seed, rb] : new_runs) {
        const auto ra = base_runs.find(seed);
        if (ra == base_runs.end() || !ra->second.metrics.count(metric) ||
            !rb.metrics.count(metric)) {
          continue;
        }
        ++pairs;
        if (better(rb.metrics.at(metric), ra->second.metrics.at(metric))) {
          ++wins;
        }
      }
      const double change =
          qa.median != 0.0 ? (qb.median - qa.median) / std::fabs(qa.median)
                           : 0.0;
      const double worse_by = spec.lower_is_better ? change : -change;
      const double best_a = spec.lower_is_better
                                ? *std::min_element(a.begin(), a.end())
                                : *std::max_element(a.begin(), a.end());
      const double worst_b = spec.lower_is_better
                                 ? *std::max_element(b.begin(), b.end())
                                 : *std::min_element(b.begin(), b.end());
      const bool every_new_better = better(worst_b, best_a);
      const double spread =
          std::max(e2e::relative_iqr(qa), e2e::relative_iqr(qb));
      const char* verdict = "-";
      if (any_failed) {
        verdict = "failed";
      } else if (spec.bound >= 0.0) {
        if (spread > spec.bound && !every_new_better) {
          verdict = "unresolved";
        } else if (worse_by > spec.bound) {
          verdict = "regressed";
        } else if (pairs > 0 && wins * 10 >= pairs * 9 &&
                   better(qb.median, qa.median) &&
                   std::fabs(qb.median - qa.median) > qa.q3 - qa.q1) {
          verdict = "improved";
        } else {
          verdict = "unchanged";
        }
      }
      bad |= std::string(verdict) == "failed" ||
             std::string(verdict) == "regressed";
      std::printf(
          "%-12s %-24s %12.4g [%10.4g, %10.4g] %12.4g [%10.4g, %10.4g] "
          "%+7.2f%% %2d/%-3d  %s\n",
          workload.c_str(), metric.c_str(), qa.median, qa.q1, qa.q3,
          qb.median, qb.q1, qb.q3, 100.0 * change, wins, pairs, verdict);
    }
  }
  return bad ? 1 : 0;
}

int overhead(const std::string& untraced_path, const std::string& traced_path) {
  const Json untraced = read_json(untraced_path);
  const Json traced = read_json(traced_path);
  std::printf("tracing overhead, %s (traced minus untraced):\n",
              untraced.at("workload").string.c_str());
  for (const auto& [name, m] : untraced.at("metrics").object) {
    if (!traced.at("metrics").has(name)) continue;
    const double u = m.at("value").number;
    const double t = traced.at("metrics").at(name).at("value").number;
    std::printf("  %-16s %12.4g -> %12.4g %s  (%+.4g, %+.2f%%)\n", name.c_str(),
                u, t, m.at("unit").string.c_str(), t - u,
                u != 0.0 ? 100.0 * (t - u) / std::fabs(u) : 0.0);
  }
  return 0;
}

int calibrate(const std::string& bench, const std::string& dir) {
  const auto specs = load_specs(bench);
  const auto runs = load_dir(dir);
  std::map<std::string, double> widest;
  std::printf("{\n  \"workloads\": {");
  bool first_w = true;
  for (const auto& [workload, by_seed] : runs) {
    std::printf("%s\n    \"%s\": {", first_w ? "" : ",", workload.c_str());
    first_w = false;
    bool first_m = true;
    for (const auto& [metric, spec] : specs) {
      std::vector<double> v = values_of(by_seed, metric);
      if (v.empty()) continue;
      const e2e::Quartiles q = e2e::quartiles(v);
      const double spread = e2e::relative_iqr(q);
      if (spec.bound >= 0.0) widest[metric] = std::max(widest[metric], spread);
      std::printf("%s\n      \"%s\": {\"median\": %.6g, \"q1\": %.6g, "
                  "\"q3\": %.6g, \"relative_iqr\": %.4f, \"values\": [",
                  first_m ? "" : ",", metric.c_str(), q.median, q.q1, q.q3,
                  spread);
      first_m = false;
      for (std::size_t i = 0; i < v.size(); ++i) {
        std::printf("%s%.6g", i == 0 ? "" : ", ", v[i]);
      }
      std::printf("]}");
    }
    std::printf("\n    }");
  }
  // Suggested bound: three times the widest spread over the workloads, so
  // a spread stays below a third of its bound; at least 5%, and at most 24%
  // so that setup_s keeps the largest bound (25%).
  std::printf("\n  },\n  \"end_to_end\": {");
  bool first = true;
  for (const auto& [metric, spread] : widest) {
    const double suggested =
        std::min(0.24, std::max(0.05, std::ceil(300.0 * spread) / 100.0));
    std::printf("%s\n    \"%s\": {\"widest_relative_iqr\": %.4f, "
                "\"suggested_bound\": %.2f, \"bound\": %.2f}",
                first ? "" : ",", metric.c_str(), spread, suggested,
                specs.at(metric).bound);
    first = false;
  }
  std::printf("\n  }\n}\n");
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: e2e_compare [--bench BENCHMARK.json] BASE_DIR NEW_DIR\n"
               "       e2e_compare --overhead UNTRACED.json TRACED.json\n"
               "       e2e_compare --calibrate [--bench BENCHMARK.json] DIR\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string bench = "BENCHMARK.json";
  std::string mode = "compare";
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--bench" && i + 1 < args.size()) {
      bench = args[++i];
    } else if (args[i] == "--overhead" || args[i] == "--calibrate") {
      mode = args[i].substr(2);
    } else {
      positional.push_back(args[i]);
    }
  }
  try {
    if (mode == "overhead" && positional.size() == 2) {
      return overhead(positional[0], positional[1]);
    }
    if (mode == "calibrate" && positional.size() == 1) {
      return calibrate(bench, positional[0]);
    }
    if (mode == "compare" && positional.size() == 2) {
      return compare(bench, positional[0], positional[1]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_compare: %s\n", e.what());
    return 2;
  }
  usage();
  return 2;
}
