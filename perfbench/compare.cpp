// perfbench_compare: compare two sets of saved benchmark results (a
// parent and a change) against the bounds in BENCHMARK.json.
//
//   perfbench_compare BENCHMARK.json parent.jsonl change.jsonl
//
// Each .jsonl line is one run as `run.py --save` appends it. Only
// end-to-end runs (trace 0) are compared. Every (workload, metric) pair
// gets its own row with each side's median and quartiles and a verdict:
//   improved   the change wins >= 90% of the runs paired by seed, and its
//              median beats the parent's by more than the parent's own
//              quartile spread;
//   worse      the median is worse by more than the metric's bound;
//   unresolved a side's quartile spread exceeds the bound and no side
//              beats every run of the other;
//   unchanged  otherwise.
// fail_frac (failed / attempted, all runs of the workload) sits beside
// each row. Exits 1 when any row is worse, 2 on unreadable input.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

// --- a minimal JSON reader (objects, arrays, strings, numbers, literals)

/// A parsed value; literals (true, false, null) parse to an empty one.
struct Json {
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  const Json* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  const Json& at(const std::string& key) const {
    const Json* v = find(key);
    if (v == nullptr) throw std::runtime_error("missing key '" + key + "'");
    return *v;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (i_ != s_.size()) error("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void error(const std::string& what) {
    throw std::runtime_error("JSON: " + what + " at offset " +
                             std::to_string(i_));
  }
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!consume(c)) error(std::string("expected '") + c + "'");
  }

  std::string str() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) error("bad escape");
        const char e = s_[i_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Keep \uXXXX verbatim; names and units here are ASCII.
            out += "\\u";
            continue;
          default: c = e;
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }

  Json value() {
    skip_ws();
    if (i_ >= s_.size()) error("unexpected end");
    Json v;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      if (consume('}')) return v;
      do {
        skip_ws();
        std::string key = str();
        expect(':');
        v.object.emplace_back(std::move(key), value());
      } while (consume(','));
      expect('}');
    } else if (c == '[') {
      ++i_;
      if (consume(']')) return v;
      do {
        v.array.push_back(value());
      } while (consume(','));
      expect(']');
    } else if (c == '"') {
      v.string = str();
    } else if (s_.compare(i_, 4, "true") == 0 || s_.compare(i_, 4, "null") == 0) {
      i_ += 4;
    } else if (s_.compare(i_, 5, "false") == 0) {
      i_ += 5;
    } else {
      const char* begin = s_.c_str() + i_;
      char* end = nullptr;
      v.number = std::strtod(begin, &end);
      if (end == begin) error("bad value");
      i_ += static_cast<std::size_t>(end - begin);
    }
    return v;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- results

struct Bound {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = 0;
};

/// One workload's runs from one side.
struct Side {
  std::map<std::string, std::vector<std::pair<long long, double>>> values;
  long long attempted = 0;
  long long failed = 0;
};

using ResultSet = std::map<std::string, Side>;  // by workload

ResultSet load_results(const std::string& path) {
  ResultSet set;
  std::istringstream lines(read_file(path));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const Json run = Parser(line).parse();
    if (run.at("trace").number != 0) continue;
    Side& side = set[run.at("workload").string];
    const auto seed = static_cast<long long>(run.at("seed").number);
    side.attempted += static_cast<long long>(run.at("attempted").number);
    side.failed += static_cast<long long>(run.at("failed").number);
    for (const auto& [name, m] : run.at("metrics").object) {
      side.values[name].emplace_back(seed, m.at("value").number);
    }
  }
  return set;
}

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default 'exclusive' method).
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 1) return {v[0], v[0], v[0]};
  double q[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * (n + 1) / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * (n + 1)) - 4.0 * j;
    q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  }
  return {q[0], q[1], q[2]};
}

double spread(const Quartiles& q) {
  return q.median != 0 ? (q.q3 - q.q1) / std::abs(q.median) : 0;
}

std::vector<double> values_of(
    const std::vector<std::pair<long long, double>>& runs) {
  std::vector<double> out;
  for (const auto& [seed, v] : runs) out.push_back(v);
  return out;
}

double fail_frac(const Side& s) {
  return s.attempted > 0 ? static_cast<double>(s.failed) / s.attempted : 0;
}

/// The verdict for one row; `better(a, b)` says whether a beats b.
template <class Better>
std::string verdict(const std::vector<std::pair<long long, double>>& parent,
                    const std::vector<std::pair<long long, double>>& change,
                    const Bound& b, Better better) {
  const Quartiles p = quartiles(values_of(parent));
  const Quartiles c = quartiles(values_of(change));
  const double worse_by =
      (b.lower_is_better ? c.median - p.median : p.median - c.median) /
      std::abs(p.median);

  // Runs pair up by seed; a seed only one side ran stays unpaired.
  std::map<long long, double> by_seed(parent.begin(), parent.end());
  int pairs = 0, wins = 0;
  for (const auto& [seed, cv] : change) {
    const auto it = by_seed.find(seed);
    if (it == by_seed.end()) continue;
    ++pairs;
    wins += better(cv, it->second);
  }
  bool change_beats_all = true, parent_beats_all = true;
  for (const auto& [cs, cv] : change) {
    for (const auto& [ps, pv] : parent) {
      change_beats_all = change_beats_all && better(cv, pv);
      parent_beats_all = parent_beats_all && better(pv, cv);
    }
  }
  const bool noisy = spread(p) > b.bound || spread(c) > b.bound;

  if (-worse_by > spread(p) && pairs > 0 && wins * 10 >= pairs * 9 &&
      (!noisy || change_beats_all)) {
    return "improved";
  }
  if (worse_by > b.bound && (!noisy || parent_beats_all)) return "worse";
  if (noisy && !change_beats_all && !parent_beats_all) return "unresolved";
  return "unchanged";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: perfbench_compare BENCHMARK.json PARENT.jsonl "
                 "CHANGE.jsonl\n");
    return 2;
  }
  std::vector<Bound> bounds;
  ResultSet parent, change;
  try {
    const Json bench = Parser(read_file(argv[1])).parse();
    for (const Json& m : bench.at("end_to_end").array) {
      bounds.push_back({m.at("name").string, m.at("unit").string,
                        m.at("better").string == "lower",
                        m.at("bound").number});
    }
    parent = load_results(argv[2]);
    change = load_results(argv[3]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_compare: %s\n", e.what());
    return 2;
  }

  bool any_worse = false;
  std::printf("%-8s %-14s %-7s %5s  %-34s %-34s %6s  %-10s %s\n", "workload",
              "metric", "unit", "bound", "parent q1 / median / q3",
              "change q1 / median / q3", "delta", "verdict",
              "fail_frac parent/change");
  for (const auto& [workload, cside] : change) {
    const auto pit = parent.find(workload);
    if (pit == parent.end()) {
      std::printf("%-8s (no parent runs)\n", workload.c_str());
      continue;
    }
    const Side& pside = pit->second;
    for (const Bound& b : bounds) {
      const auto pv = pside.values.find(b.name);
      const auto cv = cside.values.find(b.name);
      if (pv == pside.values.end() || cv == cside.values.end()) {
        std::printf("%-8s %-14s (missing on one side)\n", workload.c_str(),
                    b.name.c_str());
        continue;
      }
      const Quartiles p = quartiles(values_of(pv->second));
      const Quartiles c = quartiles(values_of(cv->second));
      const std::string v = verdict(
          pv->second, cv->second, b, [&b](double x, double y) {
            return b.lower_is_better ? x < y : x > y;
          });
      any_worse = any_worse || v == "worse";
      char pbuf[64], cbuf[64];
      std::snprintf(pbuf, sizeof pbuf, "%.4g / %.4g / %.4g", p.q1, p.median,
                    p.q3);
      std::snprintf(cbuf, sizeof cbuf, "%.4g / %.4g / %.4g", c.q1, c.median,
                    c.q3);
      std::printf("%-8s %-14s %-7s %5.2f  %-34s %-34s %+5.1f%%  %-10s "
                  "%.4g / %.4g\n",
                  workload.c_str(), b.name.c_str(), b.unit.c_str(), b.bound,
                  pbuf, cbuf,
                  p.median != 0 ? 100 * (c.median - p.median) / p.median : 0,
                  v.c_str(), fail_frac(pside), fail_frac(cside));
    }
  }
  return any_worse ? 1 : 0;
}
