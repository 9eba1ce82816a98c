// sweep_merge: validate and merge sharded sweep artifacts (.mcol).
//
//   sweep_merge [--json=OUT] shard0.mcol shard1.mcol ... shardN-1.mcol
//
// Reads every shard artifact (order on the command line does not matter),
// validates that
//   * each file is intact (magic, version, per-block CRCs, in-range and
//     monotone cell indices — read_columnar_file throws on any defect),
//   * all shards come from the SAME sweep (identical sweep fingerprint,
//     bench, and total cell count),
//   * the shard cell ranges tile [0, total_cells) exactly — no gaps, no
//     overlaps,
// and then concatenates the records in cell order. With --json=OUT the
// merged records are rendered exactly like exp::JsonFileSink renders a
// serial run, so
//
//   bench --shard=i/N --columnar=shard_i.mcol   (for i in 0..N-1)
//   sweep_merge --json=merged.json shard_*.mcol
//
// produces a merged.json byte-identical to `bench --json=merged.json`
// run in one process (modulo the wall-clock fields; scripts/check.sh
// strips those before diffing). Without --json the tool just validates
// and prints a summary. Exit status: 0 on success, 1 on any validation
// failure (message on stderr).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/columnar.hpp"
#include "exp/sink.hpp"

using namespace manet;

namespace {

int usage(int status) {
  std::fprintf(
      status == 0 ? stdout : stderr,
      "usage: sweep_merge [--json=OUT] shard0.mcol ... shardN-1.mcol\n"
      "  Validates sharded sweep artifacts (integrity, matching sweep\n"
      "  fingerprint, gap/overlap-free cell coverage) and optionally\n"
      "  renders the merged records as the canonical JSON artifact.\n");
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg.rfind("--json=", 0) == 0) {
      json_out = arg.substr(7);
      if (json_out.empty()) {
        std::fprintf(stderr, "sweep_merge: --json needs a path\n");
        return 1;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "sweep_merge: unknown flag %s\n", arg.c_str());
      return usage(1);
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "sweep_merge: no shard files given\n");
    return usage(1);
  }

  // Read + per-file validation.
  std::vector<exp::ColumnarFile> shards;
  for (const std::string& path : inputs) {
    try {
      shards.push_back(exp::read_columnar_file(path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sweep_merge: %s\n", e.what());
      return 1;
    }
  }

  // Cross-file validation: one sweep, one bench, one total.
  const exp::ColumnarMeta& first = shards.front().meta;
  for (const exp::ColumnarFile& shard : shards) {
    const exp::ColumnarMeta& m = shard.meta;
    if (m.sweep != first.sweep) {
      std::fprintf(stderr,
                   "sweep_merge: sweep config mismatch:\n  %s\n  vs\n  %s\n"
                   "(shards were produced by different sweeps)\n",
                   first.sweep.c_str(), m.sweep.c_str());
      return 1;
    }
    if (m.bench != first.bench || m.total_cells != first.total_cells) {
      std::fprintf(stderr,
                   "sweep_merge: bench/total-cells mismatch (%s: %llu vs %s: "
                   "%llu)\n",
                   first.bench.c_str(),
                   static_cast<unsigned long long>(first.total_cells),
                   m.bench.c_str(),
                   static_cast<unsigned long long>(m.total_cells));
      return 1;
    }
  }

  // Coverage: the declared ranges must tile [0, total_cells) exactly.
  std::vector<std::size_t> order(shards.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return shards[a].meta.cell_begin < shards[b].meta.cell_begin ||
           (shards[a].meta.cell_begin == shards[b].meta.cell_begin &&
            shards[a].meta.cell_end < shards[b].meta.cell_end);
  });
  std::uint64_t expect = 0;
  for (std::size_t idx : order) {
    const exp::ColumnarMeta& m = shards[idx].meta;
    if (m.cell_begin > expect) {
      std::fprintf(stderr,
                   "sweep_merge: coverage gap: cells [%llu, %llu) are in no "
                   "shard\n",
                   static_cast<unsigned long long>(expect),
                   static_cast<unsigned long long>(m.cell_begin));
      return 1;
    }
    if (m.cell_begin < expect) {
      std::fprintf(stderr,
                   "sweep_merge: overlapping shards: cell %llu is claimed "
                   "twice (shard %s)\n",
                   static_cast<unsigned long long>(m.cell_begin),
                   m.shard.c_str());
      return 1;
    }
    expect = m.cell_end;
  }
  if (expect != first.total_cells) {
    std::fprintf(stderr,
                 "sweep_merge: coverage gap: cells [%llu, %llu) are in no "
                 "shard\n",
                 static_cast<unsigned long long>(expect),
                 static_cast<unsigned long long>(first.total_cells));
    return 1;
  }

  // Merge: shard ranges are disjoint and per-file records are already in
  // cell order, so concatenation in range order IS the serial order.
  std::size_t total_records = 0;
  for (const exp::ColumnarFile& shard : shards) {
    total_records += shard.records.size();
  }

  if (!json_out.empty()) {
    std::FILE* out = std::fopen(json_out.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "sweep_merge: cannot open %s\n", json_out.c_str());
      return 1;
    }
    std::string buffer = "[\n";
    bool first_record = true;
    for (std::size_t idx : order) {
      for (const auto& [cell, record] : shards[idx].records) {
        (void)cell;
        if (!first_record) buffer += ",\n";
        first_record = false;
        buffer += record.to_json();
        if (buffer.size() >= 64 * 1024) {
          std::fwrite(buffer.data(), 1, buffer.size(), out);
          buffer.clear();
        }
      }
    }
    buffer += "\n]\n";
    std::fwrite(buffer.data(), 1, buffer.size(), out);
    std::fclose(out);
  }

  std::printf("sweep_merge: OK: %zu shard(s), %llu cells, %zu records (%s)\n",
              shards.size(),
              static_cast<unsigned long long>(first.total_cells),
              total_records, first.bench.c_str());
  return 0;
}
