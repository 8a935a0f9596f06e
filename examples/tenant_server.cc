// Multi-tenant sketch server: a stdin line-protocol driver over
// TenantManager, the serving shape the manager was built for — one
// process holding 100k+ keyed sliding windows under a memory budget.
//
// Protocol (one command per line):
//   U <key> <ts> <v0> ... <v{d-1}>   ingest one row for tenant <key>
//   A <key> <now>                    advance tenant <key>'s clock
//   Q <key>                          print the tenant's approximation
//   STATS                            print deterministic manager counts
//
// Updates are buffered and flushed through the keyed batch path
// (UpdateKeyed) every --batch rows and before any Q/A/STATS, so answers
// always reflect every preceding U line. A U or A line the sketches cannot
// admit (unparsable, wrong width, a non-finite value, a timestamp or clock
// move before the tenant's clock) prints one `ERR <code> <reason>` line
// and the server keeps serving: U rows are checked against the admission
// rule as they are read, so a bad row never costs its batch; a refusal
// only a tenant can make drops that tenant's pending rows and the rows
// queued behind them. Q prints the key, the row count
// and each sketch row with %.17g values — bit-stable across runs for the
// deterministic algorithms, which is what the ctest smoke fixture pins.
// Throughput (rows/s and QPS) goes to stderr so stdout stays comparable.
//
//   ./tenant_server [--algorithm=lm-fd] [--d=4] [--window=4096]
//                   [--time_window=0] [--ell=8] [--budget_mb=0]
//                   [--batch=256] < commands.txt
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/factory.h"
#include "core/sliding_window_sketch.h"
#include "linalg/vector_ops.h"
#include "service/tenant_manager.h"
#include "util/flags.h"
#include "util/timer.h"

using namespace swsketch;

namespace {

struct PendingRows {
  std::vector<uint64_t> keys;
  std::vector<double> ts;
  std::vector<double> values;  // Flat, d per row (stable backing store).
};

void PrintError(const Status& st) {
  std::printf("ERR %s %s\n", st.CodeName(), st.message().c_str());
}

// Parses the rest of `in` as numbers (strtod, so nan/inf spell values).
bool ReadNumbers(std::istringstream& in, std::vector<double>* out) {
  std::string token;
  while (in >> token) {
    char* end = nullptr;
    out->push_back(std::strtod(token.c_str(), &end));
    if (end != token.c_str() + token.size()) return false;
  }
  return true;
}

// Flushes the pending rows; a refusal is reported and drops them.
void FlushPending(TenantManager* manager, PendingRows* pending, size_t d) {
  if (pending->keys.empty()) return;
  std::vector<KeyedRow> batch(pending->keys.size());
  for (size_t i = 0; i < pending->keys.size(); ++i) {
    batch[i] = KeyedRow{
        pending->keys[i], pending->ts[i],
        std::span<const double>(pending->values.data() + i * d, d)};
  }
  const Status st = manager->UpdateKeyed(batch);
  if (!st.ok()) PrintError(st);
  pending->keys.clear();
  pending->ts.clear();
  pending->values.clear();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string algorithm = flags.GetString("algorithm", "lm-fd");
  const size_t d = static_cast<size_t>(flags.GetInt("d", 4));
  const uint64_t window = static_cast<uint64_t>(flags.GetInt("window", 4096));
  const double time_window = flags.GetDouble("time_window", 0.0);
  const size_t ell = static_cast<size_t>(flags.GetInt("ell", 8));
  const size_t budget_mb = static_cast<size_t>(flags.GetInt("budget_mb", 0));
  const size_t batch = static_cast<size_t>(flags.GetInt("batch", 256));

  SketchConfig config;
  config.algorithm = algorithm;
  config.ell = ell;
  const WindowSpec spec = time_window > 0.0
                              ? WindowSpec::Time(time_window)
                              : WindowSpec::Sequence(window);
  TenantManager::Options options;
  options.memory_budget_bytes = budget_mb << 20;
  auto made = TenantManager::Make(d, spec, config, options);
  if (!made.ok()) {
    std::cerr << "cannot build manager: " << made.status().ToString() << "\n";
    return 1;
  }
  auto& manager = *made.value();

  PendingRows pending;
  uint64_t rows = 0, queries = 0;
  double update_s = 0.0, query_s = 0.0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "U" || cmd == "A") {
      uint64_t key;
      std::vector<double> nums;
      if (!(in >> key) || !ReadNumbers(in, &nums) || nums.empty() ||
          (cmd == "A" && nums.size() != 1)) {
        PrintError(Status::InvalidArgument("bad " + cmd + " line"));
        continue;
      }
      const double ts = nums.front();
      if (cmd == "A") {
        {
          Timer t;
          FlushPending(&manager, &pending, d);
          update_s += t.ElapsedSeconds();
        }
        const Status st = manager.AdvanceTo(key, ts);
        if (!st.ok()) PrintError(st);
        continue;
      }
      const std::span<const double> values(nums.data() + 1, nums.size() - 1);
      if (Status st = AdmitRow(values.size(), NormSq(values), ts, d,
                               -std::numeric_limits<double>::infinity(),
                               "tenant_server");
          !st.ok()) {
        PrintError(st);
        continue;
      }
      pending.keys.push_back(key);
      pending.ts.push_back(ts);
      pending.values.insert(pending.values.end(), values.begin(),
                            values.end());
      ++rows;
      if (pending.keys.size() >= batch) {
        Timer t;
        FlushPending(&manager, &pending, d);
        update_s += t.ElapsedSeconds();
      }
    } else if (cmd == "Q") {
      uint64_t key;
      if (!(in >> key)) {
        std::cerr << "bad Q line: " << line << "\n";
        return 1;
      }
      {
        Timer t;
        FlushPending(&manager, &pending, d);
        update_s += t.ElapsedSeconds();
      }
      Timer t;
      auto result = manager.Query(key);
      if (!result.ok()) {
        std::cerr << "query failed: " << result.status().ToString() << "\n";
        return 1;
      }
      query_s += t.ElapsedSeconds();
      ++queries;
      const Matrix& m = result.value();
      std::printf("Q %" PRIu64 " rows=%zu\n", key, m.rows());
      for (size_t i = 0; i < m.rows(); ++i) {
        for (size_t j = 0; j < m.cols(); ++j) {
          std::printf(j ? " %.17g" : "%.17g", m(i, j));
        }
        std::printf("\n");
      }
    } else if (cmd == "STATS") {
      Timer t;
      FlushPending(&manager, &pending, d);
      update_s += t.ElapsedSeconds();
      std::printf("STATS tenants=%zu resident=%zu spilled=%zu rows=%" PRIu64
                  " queries=%" PRIu64 "\n",
                  manager.num_tenants(), manager.resident_tenants(),
                  manager.spilled_tenants(), rows, queries);
    } else {
      std::cerr << "unknown command: " << line << "\n";
      return 1;
    }
  }
  {
    Timer t;
    FlushPending(&manager, &pending, d);
    update_s += t.ElapsedSeconds();
  }
  // Timing to stderr only: stdout is the deterministic transcript.
  if (rows > 0 && update_s > 0.0) {
    std::fprintf(stderr, "ingest: %" PRIu64 " rows, %.0f rows/s\n", rows,
                 static_cast<double>(rows) / update_s);
  }
  if (queries > 0 && query_s > 0.0) {
    std::fprintf(stderr, "queries: %" PRIu64 ", %.0f q/s\n", queries,
                 static_cast<double>(queries) / query_s);
  }
  return 0;
}
