#include "plan/plan_io.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace cgc::plan {

namespace {

/// Exact-round-trip double formatting for checkpoint files: 17
/// significant digits reproduce the bit pattern through strtod.
std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Display formatting for plan.json — readable, and deterministic
/// because the input doubles are bit-identical however the run was
/// executed.
std::string fmt10(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string workload_str(const ScenarioSpec& spec) {
  std::string out;
  for (std::size_t i = 0; i < spec.workload.size(); ++i) {
    if (i > 0) {
      out += '+';
    }
    out += spec.workload[i].model + ":" + fmt10(spec.workload[i].weight);
  }
  return out;
}

/// The score fields, in frozen serialization order: checkpoint rows
/// and plan.json's "score" objects both walk this table.
constexpr struct {
  const char* name;
  double ScenarioScore::*member;
} kScoreFields[] = {
    {"cpu_util_mean", &ScenarioScore::cpu_util_mean},
    {"cpu_util_peak", &ScenarioScore::cpu_util_peak},
    {"mem_util_mean", &ScenarioScore::mem_util_mean},
    {"mem_util_peak", &ScenarioScore::mem_util_peak},
    {"eviction_rate", &ScenarioScore::eviction_rate},
    {"wait_p50_s", &ScenarioScore::wait_p50_s},
    {"wait_p90_s", &ScenarioScore::wait_p90_s},
    {"wait_p99_s", &ScenarioScore::wait_p99_s},
    {"wait_mean_s", &ScenarioScore::wait_mean_s},
    {"machines_needed", &ScenarioScore::machines_needed},
    {"headroom", &ScenarioScore::headroom},
    {"machine_hours", &ScenarioScore::machine_hours},
    {"cost_usd", &ScenarioScore::cost_usd},
    {"consolidated_cost_usd", &ScenarioScore::consolidated_cost_usd},
    {"slo_attainment", &ScenarioScore::slo_attainment},
    {"cpu_hours_delivered", &ScenarioScore::cpu_hours_delivered},
    {"usd_per_slo", &ScenarioScore::usd_per_slo},
};

/// The $/SLO order: defined costs ascending, undefined (< 0) last, ids
/// break ties so the order is total.
bool cheaper_per_slo(const ScenarioResult& a, const ScenarioResult& b) {
  const double ca = a.score.usd_per_slo;
  const double cb = b.score.usd_per_slo;
  const bool da = ca >= 0.0;
  const bool db = cb >= 0.0;
  if (da != db) {
    return da;
  }
  if (da && ca != cb) {
    return ca < cb;
  }
  return a.id < b.id;
}

/// The checkpoint's closing line: "end <crc32 of all bytes before it>".
std::string seal_line(std::string_view content) {
  char line[16];
  std::snprintf(line, sizeof(line), "end %08x\n", sweep::crc32_of(content));
  return line;
}

/// JSON fragment for one score (plan.json display precision).
std::string score_json(const ScenarioScore& s) {
  std::string out;
  for (const auto& field : kScoreFields) {
    out += out.empty() ? "{\"" : ", \"";
    out += std::string(field.name) + "\": " + fmt10(s.*field.member);
  }
  out += "}";
  return out;
}

}  // namespace

std::string shard_results_path(const std::string& out_dir,
                               const sweep::ShardSpec& spec) {
  return out_dir + "/plan-shard-" + std::to_string(spec.index) + "-of-" +
         std::to_string(spec.total) + ".cgcp";
}

void write_results(const std::string& path, const ShardResults& results) {
  std::string content;
  content.reserve(256 + results.results.size() * 360);
  content += "cgcplan v1\n";
  char digest_hex[20];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64,
                results.matrix_digest);
  content += "matrix " + results.matrix_name + " " + digest_hex + "\n";
  content += "shard " + results.shard.str() + "\n";
  content += std::string("complete ") + (results.complete ? "1" : "0") + "\n";
  for (const ScenarioResult& r : results.results) {
    content += "R " + r.id;
    if (r.ok) {
      content += " 1";
      for (const auto& field : kScoreFields) {
        content += ' ';
        content += fmt17(r.score.*field.member);
      }
      content += "\n";
    } else {
      std::string error = r.error;
      std::replace(error.begin(), error.end(), '\n', ' ');
      content += " 0 " + error + "\n";
    }
  }
  content += seal_line(content);
  sweep::write_file_atomic(path, content);
}

sweep::ReadStatus read_results(const std::string& path,
                               const ScenarioMatrix& matrix,
                               ShardResults* out) {
  using sweep::ReadStatus;
  std::string raw;
  const ReadStatus status = sweep::read_file(path, &raw);
  if (status != ReadStatus::kOk) {
    return status;
  }

  // The file must end with a sealed "end <crc>\n" line over everything
  // before it; anything else is a torn write.
  const std::string::size_type tail = raw.rfind("end ");
  if (tail == std::string::npos || (tail != 0 && raw[tail - 1] != '\n')) {
    return ReadStatus::kCorrupt;
  }
  const std::string content = raw.substr(0, tail);
  if (raw.compare(tail, std::string::npos, seal_line(content)) != 0) {
    return ReadStatus::kCorrupt;
  }

  std::unordered_map<std::string, std::size_t> index;
  index.reserve(matrix.scenarios.size());
  for (std::size_t i = 0; i < matrix.scenarios.size(); ++i) {
    index.emplace(scenario_id(matrix.scenarios[i]), i);
  }

  ShardResults parsed;
  bool foreign = false;
  std::vector<std::pair<std::size_t, ScenarioResult>> rows;
  std::istringstream lines(content);
  std::string line;
  bool have_header = false;
  while (std::getline(lines, line)) {
    if (line == "cgcplan v1") {
      have_header = true;
      continue;
    }
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "matrix") {
      std::string digest_hex;
      fields >> parsed.matrix_name >> digest_hex;
      parsed.matrix_digest =
          std::strtoull(digest_hex.c_str(), nullptr, 16);
      // A sealed checkpoint of a different matrix is not corruption:
      // report kOk with the stamped digest and no results — the caller
      // classifies (DataError on resume/merge). Its ids would not map
      // onto this matrix, so R lines are skipped below.
      foreign = parsed.matrix_digest != matrix.digest();
    } else if (tag == "shard") {
      std::string spec;
      fields >> spec;
      try {
        parsed.shard = sweep::parse_shard_spec(spec);
      } catch (const util::Error&) {
        return ReadStatus::kCorrupt;
      }
    } else if (tag == "complete") {
      int flag = 0;
      fields >> flag;
      parsed.complete = flag != 0;
    } else if (tag == "R") {
      if (foreign) {
        continue;
      }
      ScenarioResult r;
      int ok = 0;
      fields >> r.id >> ok;
      if (fields.fail()) {
        return ReadStatus::kCorrupt;
      }
      const auto it = index.find(r.id);
      if (it == index.end()) {
        return ReadStatus::kCorrupt;  // not a scenario of this matrix
      }
      r.spec = matrix.scenarios[it->second];
      r.ok = ok != 0;
      if (r.ok) {
        for (const auto& field : kScoreFields) {
          fields >> r.score.*field.member;
        }
        if (fields.fail()) {
          return ReadStatus::kCorrupt;
        }
      } else {
        std::getline(fields >> std::ws, r.error);
      }
      rows.emplace_back(it->second, std::move(r));
    } else if (!tag.empty()) {
      return ReadStatus::kCorrupt;
    }
  }
  if (!have_header) {
    return ReadStatus::kCorrupt;
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].first == rows[i - 1].first) {
      return ReadStatus::kCorrupt;  // duplicate scenario in one file
    }
  }
  parsed.results.reserve(rows.size());
  for (auto& [idx, r] : rows) {
    parsed.results.push_back(std::move(r));
  }
  *out = std::move(parsed);
  return ReadStatus::kOk;
}

std::vector<ScenarioResult> merge_results(
    const ScenarioMatrix& matrix, const std::vector<ShardResults>& shards) {
  const std::uint64_t digest = matrix.digest();
  std::vector<sweep::ShardClaim> claims(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardResults& shard = shards[i];
    sweep::ShardClaim& claim = claims[i];
    if (!shard.unreadable.empty()) {
      claim.name = "input " + std::to_string(i);
      claim.unfinished = shard.unreadable;
      continue;
    }
    claim.name = "shard " + shard.shard.str() + " (input " +
                 std::to_string(i) + ")";
    claim.stamp = shard.shard;
    if (!shard.complete) {
      claim.unfinished = "incomplete";
    }
    if (shard.matrix_digest != digest) {
      claim.foreign = "produced by a different matrix (digest mismatch)";
    }
    for (const ScenarioResult& r : shard.results) {
      claim.ids.push_back(r.id);
    }
  }
  std::vector<std::string> expected;
  expected.reserve(matrix.scenarios.size());
  for (const ScenarioSpec& spec : matrix.scenarios) {
    expected.push_back(scenario_id(spec));
  }
  std::vector<ScenarioResult> all;
  all.reserve(expected.size());
  for (const sweep::Claim& c :
       sweep::check_claims(claims, expected, /*allow_partial=*/false,
                           nullptr)) {
    all.push_back(
        shards[static_cast<std::size_t>(c.shard)].results[c.record]);
  }
  return all;
}

std::string render_plan_json(const ScenarioMatrix& matrix,
                             const std::vector<ScenarioResult>& results) {
  if (results.size() != matrix.scenarios.size()) {
    throw util::FatalError("render_plan_json needs the full matrix (" +
                           std::to_string(matrix.scenarios.size()) +
                           " scenarios, got " +
                           std::to_string(results.size()) + ")");
  }
  char digest_hex[20];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64,
                matrix.digest());

  std::string out;
  out.reserve(512 + results.size() * 700);
  out += "{\n";
  out += "  \"matrix\": {\"name\": \"" + util::json_escape(matrix.name) +
         "\", \"digest\": \"" + digest_hex + "\", \"scenarios\": " +
         std::to_string(matrix.scenarios.size()) + "},\n";

  out += "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    const ScenarioSpec& s = r.spec;
    out += "    {\"id\": \"" + r.id + "\", \"fleet\": " +
           std::to_string(s.fleet) + ", \"horizon_s\": " +
           std::to_string(s.horizon) + ", \"workload\": \"" +
           workload_str(s) + "\", \"hetero_mix\": " + fmt10(s.hetero_mix) +
           ", \"preemption\": " + (s.preemption ? "true" : "false") +
           ", \"remap\": \"" + std::string(remap_name(s.remap)) +
           "\", \"placement\": \"" +
           std::string(sim::placement_name(s.placement)) +
           "\", \"target_utilization\": " + fmt10(s.target_utilization) +
           ", \"cost_per_machine_hour\": " + fmt10(s.cost_per_machine_hour) +
           ", \"slo_wait_s\": " + fmt10(s.slo_wait_s) +
           ", \"seed\": " + std::to_string(s.seed) + ", \"ok\": " +
           (r.ok ? "true" : "false");
    if (r.ok) {
      out += ", \"score\": " + score_json(r.score);
    } else {
      out += ", \"error\": \"" + util::json_escape(r.error) + "\"";
    }
    out += i + 1 < results.size() ? "},\n" : "}\n";
  }
  out += "  ],\n";

  // Frontier over the scenarios that produced a score, ids in matrix
  // order (pareto_frontier preserves input order).
  std::vector<ScenarioScore> ok_scores;
  std::vector<std::size_t> ok_index;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok) {
      ok_scores.push_back(results[i].score);
      ok_index.push_back(i);
    }
  }
  const std::vector<std::size_t> frontier = pareto_frontier(ok_scores);
  out += "  \"frontier\": [";
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + results[ok_index[frontier[i]]].id + "\"";
  }
  out += "],\n";

  // $/SLO ranking.
  std::vector<std::size_t> rank(ok_index);
  std::sort(rank.begin(), rank.end(),
            [&results](std::size_t a, std::size_t b) {
              return cheaper_per_slo(results[a], results[b]);
            });
  out += "  \"ranking\": [\n";
  for (std::size_t i = 0; i < rank.size(); ++i) {
    const ScenarioResult& r = results[rank[i]];
    out += "    {\"id\": \"" + r.id + "\", \"usd_per_slo\": " +
           fmt10(r.score.usd_per_slo) + ", \"consolidated_cost_usd\": " +
           fmt10(r.score.consolidated_cost_usd) + ", \"slo_attainment\": " +
           fmt10(r.score.slo_attainment) + ", \"machines_needed\": " +
           fmt10(r.score.machines_needed) + "}";
    out += i + 1 < rank.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string render_comparison_table(
    const std::vector<ScenarioResult>& results, std::size_t top_n) {
  std::vector<const ScenarioResult*> ranked;
  for (const ScenarioResult& r : results) {
    if (r.ok) {
      ranked.push_back(&r);
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ScenarioResult* a, const ScenarioResult* b) {
              return cheaper_per_slo(*a, *b);
            });
  if (top_n > 0 && ranked.size() > top_n) {
    ranked.resize(top_n);
  }
  util::AsciiTable table({"rank", "scenario", "workload", "fleet", "place",
                          "preempt", "$/SLO cpu-h", "SLO att.", "cpu util",
                          "machines needed"});
  table.set_caption("scenario comparison, best $/SLO first");
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const ScenarioResult& r = *ranked[i];
    table.add_row({std::to_string(i + 1), r.id, workload_str(r.spec),
                   std::to_string(r.spec.fleet),
                   std::string(sim::placement_name(r.spec.placement)),
                   r.spec.preemption ? "yes" : "no",
                   r.score.usd_per_slo < 0.0
                       ? std::string("n/a")
                       : util::cell(r.score.usd_per_slo, 4),
                   util::cell_pct(r.score.slo_attainment),
                   util::cell_pct(r.score.cpu_util_mean),
                   util::cell(r.score.machines_needed, 4)});
  }
  return table.render();
}

}  // namespace cgc::plan
