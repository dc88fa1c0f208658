// GatedSweep: the one harness behind the determinism-gated benches
// (exp_scaling, multiflow_topologies, shard_scaling, routing_churn,
// chaos_soak, traffic_soak).
//
// A bench declares three things:
//   - labelled configs, each a trial function of (seed, shard count)
//     swept along the jobs axis, the shards axis, or run at one point;
//   - named per-trial gates ("these scalars must equal these values");
//   - the aggregate columns it reports.
// run() executes every (config, jobs, shards) point through
// exp::TrialRunner with the same trial count and base seed, times it,
// digests the aggregate, and checks that
//   - within each config, every point's digest equals the first one's
//     (results are bit-identical across --jobs and --shards);
//   - every trial of every gated config passes every gate;
//   - every cross-point check the bench registered holds.
// It prints the table and a PASS/FAIL line per gate and check, writes
// the JSON below and returns the exit status: 0 when everything
// passes, 1 otherwise.
//
//   {"benchmark": NAME, "trials_per_point": N, "hw_concurrency": CORES,
//    "digests_bit_identical": BOOL, <gate or check>: BOOL, ...,
//    <field>: NUM, ...,
//    "sweep": [{"config": LABEL, "jobs": J, "shards": S, "seconds": T,
//               "digest": HEX, "digests_match": BOOL, <gate>: BOOL, ...,
//               <column>: NUM, ...}, ...]}
//
// Flags: the shared BenchArgs set plus --out=PATH (the JSON file).
// --jobs / --shards add one value to the jobs / shards axis.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.hpp"

namespace qnetp::bench {

/// Cores this process may run on (the affinity mask, so cpusets count).
inline std::size_t host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// `values` plus `extra`, sorted ascending without duplicates.
inline std::vector<std::size_t> merge_axis(std::vector<std::size_t> values,
                                           std::size_t extra) {
  values.push_back(extra);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

/// Mean of one scalar over a point's trials (the common column).
inline std::function<double(const exp::SummaryAccumulator&)> mean_of(
    std::string scalar) {
  return [scalar = std::move(scalar)](const exp::SummaryAccumulator& acc) {
    return acc.scalar(scalar).mean();
  };
}

class GatedSweep {
 public:
  enum class Axis { none, jobs, shards };

  /// One trial of a config: a pure function of its seed and the shard
  /// count it runs at.
  using TrialFn =
      std::function<exp::TrialResult(std::uint64_t seed, std::size_t shards)>;
  using AccumulatorFn = std::function<exp::SummaryAccumulator()>;
  using ColumnFn = std::function<double(const exp::SummaryAccumulator&)>;

  struct Point {
    std::string config;
    std::size_t jobs = 1;
    std::size_t shards = 1;
    double seconds = 0.0;
    std::uint64_t digest = 0;
    bool digests_match = true;
    bool gated = true;            ///< the config's gates are enforced
    std::vector<bool> gates;      ///< parallel to the declared gates
    std::vector<double> columns;  ///< parallel to the declared columns
    std::vector<exp::TrialResult> results;  ///< for cross-point checks
  };
  using Points = std::vector<Point>;
  using FieldFn = std::function<double(const Points&)>;

  /// Parse the shared flags plus --out=PATH (default `out`).
  GatedSweep(std::string benchmark, std::string out, int argc, char** argv)
      : benchmark_(std::move(benchmark)), out_(std::move(out)) {
    check("digests_bit_identical",
          "aggregates bit-identical across --jobs and --shards values",
          [](const Points& points) {
            return std::all_of(points.begin(), points.end(),
                               [](const Point& p) { return p.digests_match; });
          });
    args_ = BenchArgs::parse(
        argc, argv,
        [this](const std::string& a) {
          if (a.rfind("--out=", 0) != 0) return false;
          out_ = a.substr(6);
          if (out_.empty()) {
            std::fprintf(stderr, "bad value for --out: empty path\n");
            std::exit(2);
          }
          return true;
        },
        " [--out=PATH]");
  }

  const BenchArgs& args() const { return args_; }

  /// The jobs values Axis::jobs configs run at, plus --jobs.
  void jobs_axis(std::vector<std::size_t> values) {
    jobs_ = merge_axis(std::move(values), args_.jobs);
  }
  /// The shard counts Axis::shards configs run at, plus --shards, which
  /// must not exceed `max_shards` (the fabric's region count).
  void shards_axis(std::vector<std::size_t> values, std::size_t max_shards) {
    if (args_.shards > max_shards) {
      std::fprintf(stderr,
                   "bad value for --shards: %zu (must be <= %zu, the "
                   "fabric's region count)\n",
                   args_.shards, max_shards);
      std::exit(2);
    }
    shards_ = merge_axis(std::move(values), args_.shards);
  }

  /// A config; `gated = false` reports its gates without enforcing them.
  void config(std::string label, Axis axis, TrialFn trial,
              bool gated = true) {
    configs_.push_back({std::move(label), axis, std::move(trial), gated});
  }
  /// A per-trial gate: every named scalar equals its value in every trial.
  void gate(std::string name,
            std::vector<std::pair<std::string, double>> require) {
    std::string what;
    for (const auto& [scalar, value] : require) {
      what += (what.empty() ? "" : ", ") + scalar + " == " + fixed(value, 0);
    }
    check(name, what + " in every gated trial",
          [g = gates_.size()](const Points& points) {
            return std::all_of(
                points.begin(), points.end(),
                [g](const Point& p) { return !p.gated || p.gates[g]; });
          });
    gates_.push_back({std::move(name), std::move(require)});
  }
  /// A per-point number computed from the point's aggregate.
  void column(std::string name, int precision, ColumnFn value) {
    columns_.push_back({std::move(name), precision, std::move(value)});
  }
  /// Builds each point's accumulator (default: a plain one).
  void accumulator(AccumulatorFn make) { make_accumulator_ = std::move(make); }
  /// A top-level gate over the whole sweep, evaluated after it.
  void check(std::string name, std::string what,
             std::function<bool(const Points&)> pass) {
    checks_.push_back({std::move(name), std::move(what), std::move(pass)});
  }
  /// A top-level number derived from the whole sweep.
  void field(std::string name, int precision, FieldFn value) {
    fields_.push_back({std::move(name), precision, std::move(value)});
  }

  /// Run the sweep, report it and return the exit status.
  int run(std::size_t trials, std::uint64_t base_seed,
          const std::string& title) {
    Points points;
    for (const Config& c : configs_) {
      const std::size_t first = points.size();
      for (const std::size_t v : axis_values(c.axis)) {
        points.push_back(run_point(c, c.axis == Axis::jobs ? v : 1,
                                   c.axis == Axis::shards ? v : 1, trials,
                                   base_seed));
        points.back().digests_match =
            points.back().digest == points[first].digest;
      }
    }

    // Top-level entries: (name, JSON value); checks first, then fields.
    std::vector<std::pair<std::string, std::string>> summary;
    print_table(title, points);
    bool pass = true;
    for (const Check& c : checks_) {
      const bool ok = c.pass(points);
      std::printf("%s: %s (%s)\n", c.name.c_str(), ok ? "PASS" : "FAIL",
                  c.what.c_str());
      summary.emplace_back(c.name, ok ? "true" : "false");
      pass = pass && ok;
    }
    for (const auto& f : fields_) {
      summary.emplace_back(f.name, fixed(f.value(points), f.precision));
      std::printf("%s: %s\n", f.name.c_str(), summary.back().second.c_str());
    }
    std::printf("host cores: %zu\n", host_cores());
    write_json(trials, points, summary);
    std::printf("wrote %s\n", out_.c_str());
    return pass ? 0 : 1;
  }

 private:
  struct Config {
    std::string label;
    Axis axis;
    TrialFn trial;
    bool gated;
  };
  struct Gate {
    std::string name;
    std::vector<std::pair<std::string, double>> require;
  };
  template <class Fn>
  struct Numeric {
    std::string name;
    int precision;
    Fn value;
  };
  struct Check {
    std::string name;
    std::string what;
    std::function<bool(const Points&)> pass;
  };

  const std::vector<std::size_t>& axis_values(Axis axis) const {
    static const std::vector<std::size_t> single{1};
    if (axis == Axis::jobs) return jobs_;
    if (axis == Axis::shards) return shards_;
    return single;
  }

  Point run_point(const Config& c, std::size_t jobs, std::size_t shards,
                  std::size_t trials, std::uint64_t base_seed) const {
    Point p;
    p.config = c.label;
    p.jobs = jobs;
    p.shards = shards;
    p.gated = c.gated;
    const auto start = std::chrono::steady_clock::now();
    p.results = exp::TrialRunner({jobs, base_seed})
                    .run(trials, [&c, shards](const exp::Trial& t) {
                      return c.trial(t.seed, shards);
                    });
    p.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    exp::SummaryAccumulator acc =
        make_accumulator_ ? make_accumulator_() : exp::SummaryAccumulator{};
    for (const auto& r : p.results) acc.add(r);
    p.digest = acc.digest();
    // A missing scalar reads as NaN, which equals nothing.
    const double missing = std::numeric_limits<double>::quiet_NaN();
    for (const Gate& g : gates_) {
      bool ok = true;
      for (const auto& r : p.results) {
        for (const auto& [scalar, value] : g.require) {
          ok = ok && r.scalar_or(scalar, missing) == value;
        }
      }
      p.gates.push_back(ok);
    }
    for (const auto& col : columns_) p.columns.push_back(col.value(acc));
    return p;
  }

  void print_table(const std::string& title, const Points& points) const {
    print_banner(std::cout, title);
    std::vector<std::string> headers{"config", "jobs", "shards", "seconds"};
    for (const auto& c : columns_) headers.push_back(c.name);
    headers.insert(headers.end(), {"digest", "match"});
    for (const Gate& g : gates_) headers.push_back(g.name);
    TablePrinter table(headers);
    for (const Point& p : points) {
      std::vector<std::string> row{p.config, std::to_string(p.jobs),
                                   std::to_string(p.shards),
                                   fixed(p.seconds, 3)};
      for (std::size_t i = 0; i < columns_.size(); ++i) {
        row.push_back(fixed(p.columns[i], columns_[i].precision));
      }
      row.push_back(hex(p.digest));
      row.push_back(p.digests_match ? "yes" : "NO");
      for (const bool g : p.gates) row.push_back(g ? "yes" : "NO");
      table.add_row(row);
    }
    emit(table, args_);
    std::printf("\n");
  }

  static std::string fixed(double v, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    return buf;
  }
  static std::string hex(std::uint64_t digest) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
  }

  void write_json(
      std::size_t trials, const Points& points,
      const std::vector<std::pair<std::string, std::string>>& summary) const {
    std::FILE* f = std::fopen(out_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_.c_str());
      std::exit(1);
    }
    std::fprintf(f,
                 "{\n  \"benchmark\": \"%s\",\n  \"trials_per_point\": %zu,\n"
                 "  \"hw_concurrency\": %zu,\n",
                 benchmark_.c_str(), trials, host_cores());
    for (const auto& [name, value] : summary) {
      std::fprintf(f, "  \"%s\": %s,\n", name.c_str(), value.c_str());
    }
    std::fprintf(f, "  \"sweep\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(f,
                   "    {\"config\": \"%s\", \"jobs\": %zu, \"shards\": %zu, "
                   "\"seconds\": %.6f, \"digest\": \"%s\", "
                   "\"digests_match\": %s",
                   p.config.c_str(), p.jobs, p.shards, p.seconds,
                   hex(p.digest).c_str(), p.digests_match ? "true" : "false");
      for (std::size_t g = 0; g < gates_.size(); ++g) {
        std::fprintf(f, ", \"%s\": %s", gates_[g].name.c_str(),
                     p.gates[g] ? "true" : "false");
      }
      for (std::size_t c = 0; c < columns_.size(); ++c) {
        std::fprintf(f, ", \"%s\": %s", columns_[c].name.c_str(),
                     fixed(p.columns[c], columns_[c].precision).c_str());
      }
      std::fprintf(f, "}%s\n", i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

  std::string benchmark_;
  std::string out_;
  BenchArgs args_;
  std::vector<std::size_t> jobs_{1};
  std::vector<std::size_t> shards_{1};
  std::vector<Config> configs_;
  std::vector<Gate> gates_;
  std::vector<Numeric<ColumnFn>> columns_;
  std::vector<Check> checks_;
  std::vector<Numeric<FieldFn>> fields_;
  AccumulatorFn make_accumulator_;
};

/// The TrialFn running `trial(cfg, seed)`, with cfg.shards set to the
/// point's shard count when the config has one.
template <class Cfg>
GatedSweep::TrialFn trial_of(Cfg cfg,
                             exp::TrialResult (*trial)(const Cfg&,
                                                       std::uint64_t)) {
  return [cfg, trial](std::uint64_t seed, std::size_t shards) {
    Cfg run_cfg = cfg;
    if constexpr (requires { run_cfg.shards; }) run_cfg.shards = shards;
    return trial(run_cfg, seed);
  };
}

}  // namespace qnetp::bench
