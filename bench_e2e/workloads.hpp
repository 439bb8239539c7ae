// Seeded request streams of the end-to-end benchmark.
//
// A workload is a traffic mix: a JSONL request stream plus the input files
// (.otree snapshots, .mtx matrices) its lines name, all derived from one
// seed. The program under test sees only these lines and files. Streams
// are stored as distinct line texts plus a position -> text index, so a
// workload that repeats requests (tenant-repeat) does not store each
// 16 KiB inline tree once per repetition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/server/plan_server.hpp"

namespace bench {

struct Stream {
  std::vector<std::string> texts;    ///< distinct JSONL line texts
  std::vector<std::uint32_t> answer; ///< text -> answer id; texts differing only in tenant share one
  std::vector<std::uint32_t> order;  ///< stream position -> index into texts
  std::vector<std::string> files;    ///< input files the lines name

  [[nodiscard]] const std::string& line(std::size_t pos) const { return texts[order[pos]]; }
};

/// Static description of one workload: its closed-loop window, its tenant
/// weights and how much untimed warm-up precedes the window.
struct Workload {
  std::string name;
  std::size_t window = 6;  ///< requests kept outstanding by the generator
  std::size_t warmup = 0;  ///< untimed requests (the stream's tail) served at set-up
  std::size_t length = 0;  ///< stream positions generated
  std::vector<ooctree::server::TenantWeight> weights;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Generates the workload's stream for `seed` and writes the input files
/// its lines name under `dir`, which must exist.
[[nodiscard]] Stream make_stream(const Workload& workload, std::uint64_t seed,
                                 const std::string& dir);

/// Server configuration every workload runs against: 3 dispatch workers
/// (with the generator thread, 4 busy threads on a 4-core box), a
/// 512-entry result cache, default admission depth, fusion on.
[[nodiscard]] ooctree::server::ServerConfig server_config(const Workload& workload);

/// 64-bit digest of the stream's lines and order plus the bytes of its
/// files — the byte-identity check of the self-tests.
[[nodiscard]] std::uint64_t stream_digest(const Stream& stream);

}  // namespace bench
