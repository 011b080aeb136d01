#include "compare.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>

#include "common/stats.h"
#include "common/table.h"
#include "json.h"

namespace psnapbench {

namespace {

struct Bound {
  bool lower_is_better = true;
  double share = 0;
};

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    std::size_t next = s.find(sep, pos);
    out.push_back(s.substr(pos, next - pos));
    if (next == std::string::npos) return out;
    pos = next + 1;
  }
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

// name -> values, one per file that has the entry; `order` keeps first
// appearance.
bool read_side(const std::vector<std::string>& files,
               std::map<std::string, std::vector<double>>& values,
               std::vector<std::string>& order) {
  for (const std::string& path : files) {
    std::string error;
    std::optional<json::Value> doc = json::parse_file(path, &error);
    const json::Value* rows = doc ? doc->get("benchmarks") : nullptr;
    if (rows == nullptr || rows->kind != json::Value::Kind::kArray) {
      std::cerr << "compare: " << (doc ? path + ": no benchmarks array" : error)
                << "\n";
      return false;
    }
    for (const json::Value& row : rows->array) {
      const json::Value* name = row.get("name");
      const json::Value* value = row.get("value");
      if (name == nullptr || value == nullptr ||
          value->kind != json::Value::Kind::kNumber) {
        std::cerr << "compare: " << path << ": malformed entry\n";
        return false;
      }
      auto [it, fresh] = values.try_emplace(name->string);
      if (fresh) order.push_back(name->string);
      it->second.push_back(value->number);
    }
  }
  return true;
}

}  // namespace

std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  std::array<double, 3> out{};
  const long m = ld + 1;
  for (long i = 1; i < 4; ++i) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

int run_compare(const std::string& sides, const std::string& bounds_path) {
  const std::vector<std::string> halves = split(sides, ':');
  if (halves.size() != 2) {
    std::cerr << "compare: expected <a.json,...>:<b.json,...>\n";
    return 2;
  }
  std::string error;
  std::optional<json::Value> bench = json::parse_file(bounds_path, &error);
  const json::Value* e2e = bench ? bench->get("end_to_end") : nullptr;
  if (e2e == nullptr) {
    std::cerr << "compare: "
              << (bench ? bounds_path + ": no end_to_end" : error) << "\n";
    return 2;
  }
  std::map<std::string, Bound> bounds;
  for (const json::Value& m : e2e->array) {
    const json::Value* name = m.get("name");
    const json::Value* better = m.get("better");
    const json::Value* bound = m.get("bound");
    if (name && better && bound) {
      bounds[name->string] = Bound{better->string == "lower", bound->number};
    }
  }

  std::map<std::string, std::vector<double>> a, b;
  std::vector<std::string> order, order_b;
  if (!read_side(split(halves[0], ','), a, order) ||
      !read_side(split(halves[1], ','), b, order_b)) {
    return 2;
  }
  for (const std::string& n : order_b) {
    if (!a.count(n)) order.push_back(n);
  }

  psnap::TablePrinter table({"workload/metric", "a median [q1, q3]",
                             "b median [q1, q3]", "delta", "bound",
                             "verdict"});
  bool regressed = false;
  for (const std::string& name : order) {
    const std::string metric = name.substr(name.rfind('/') + 1);
    auto side = [](const std::vector<double>& v) {
      const auto q = quartiles(v);
      return num(q[1]) + " [" + num(q[0]) + ", " + num(q[2]) + "]";
    };
    if (!a.count(name) || !b.count(name)) {
      table.add_row({name, a.count(name) ? side(a[name]) : "-",
                     b.count(name) ? side(b[name]) : "-", "-", "-",
                     "missing"});
      continue;
    }
    const std::vector<double>& va = a[name];
    const std::vector<double>& vb = b[name];
    const double ma = psnap::percentile(va, 50.0);
    const double mb = psnap::percentile(vb, 50.0);
    const double delta = ma != 0 ? (mb - ma) / ma : 0;
    std::string verdict = "info", bound = "-";
    if (auto it = bounds.find(metric); it != bounds.end()) {
      const Bound& bd = it->second;
      bound = num(bd.share * 100) + "%";
      const auto qa = quartiles(va), qb = quartiles(vb);
      const double spread = std::max(ma != 0 ? (qa[2] - qa[0]) / ma : 0,
                                     mb != 0 ? (qb[2] - qb[0]) / mb : 0);
      const double worse = bd.lower_is_better ? delta : -delta;
      const auto [amin, amax] = std::minmax_element(va.begin(), va.end());
      const auto [bmin, bmax] = std::minmax_element(vb.begin(), vb.end());
      const bool b_wins_every_run =
          bd.lower_is_better ? *bmax < *amin : *bmin > *amax;
      if (spread > bd.share && !b_wins_every_run) {
        verdict = "unresolved";
      } else if (worse > bd.share) {
        verdict = "regressed";
        regressed = true;
      } else {
        verdict = "ok";
      }
    }
    table.add_row({name, side(va), side(vb),
                   (delta >= 0 ? "+" : "") + num(delta * 100) + "%", bound,
                   verdict});
  }
  table.print(std::cout, "compare: a = " + halves[0] + ", b = " + halves[1]);
  return regressed ? 1 : 0;
}

}  // namespace psnapbench
