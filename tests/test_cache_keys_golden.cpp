// Golden cache keys: the spec key (request_fingerprint), the params half of
// the canonical key (params_fingerprint) and the fusion key
// (tree_identity) of a fixed grid of JSONL requests, plus the digest of
// two spilled .plan files. The values are hard-coded, so any change to a
// mix order, a decode default or the .plan byte layout fails here — such a
// change would silently orphan every cached and spilled answer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "src/service/plan_service.hpp"
#include "src/service/request_io.hpp"
#include "src/service/result_cache.hpp"
#include "src/util/rng.hpp"

namespace ooctree {
namespace {

constexpr std::uint64_t kServiceSeed = 20170208;
constexpr core::Weight kResolvedMemory = 1000;

struct GoldenKeys {
  const char* line;
  std::uint64_t spec;  ///< 0 when request_fingerprint is nullopt (path sources)
  std::uint64_t params;
  std::uint64_t tree;
};

// One row per request. Covers the three source kinds, both models, every
// strategy, and replay blocks with each priority, eviction policy and cost
// model, kRandom with and without an explicit evict_seed, and the paged,
// disk and pipeline knobs.
const GoldenKeys kGrid[] = {
    {R"({"id":1,"nodes":40,"seed":3})",
     0x24fb8fc4943f0f0cULL, 0xad1913125fbcf86eULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":2,"nodes":40})",
     0x9353f1b2028e5d01ULL, 0xad1913125fbcf86eULL, 0x7b528c70cf2ad7adULL},
    {R"({"id":3,"nodes":40,"seed":3,"model":"sum"})",
     0x68ec47874f98e270ULL, 0xad1913125fbcf86eULL, 0x2bde1804e55af945ULL},
    {R"({"id":4,"nodes":40,"seed":3,"w_lo":2,"w_hi":9})",
     0x345414b98e0d9abcULL, 0xad1913125fbcf86eULL, 0xac3add75832ca337ULL},
    {R"({"id":5,"nodes":40,"seed":3,"strategy":"postorder"})",
     0xf2ef8e517ceec698ULL, 0xfc264ff5fb8c80c3ULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":6,"nodes":40,"seed":3,"strategy":"optminmem"})",
     0x5f9ca01a8bc0ee11ULL, 0xbcdea30a9afeb0d7ULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":7,"nodes":40,"seed":3,"strategy":"full","memory":90})",
     0x76fea9c2ac8c3278ULL, 0x4e03019d435add09ULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":8,"nodes":40,"seed":3,"memory_lb":1.25})",
     0x5fd28745b8dd1391ULL, 0xad1913125fbcf86eULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":9,"parent":[-1,0,0,1],"weight":[5,3,2,4]})",
     0xa29551bac8678849ULL, 0xad1913125fbcf86eULL, 0xb7551c5b82696014ULL},
    {R"({"id":10,"parent":[-1,0,0,1],"weight":[5,3,2,4],"model":"sum","memory":12})",
     0x95ae5be45694641fULL, 0xad1913125fbcf86eULL, 0xd67759846d60849aULL},
    {R"({"id":11,"path":"instances/a.tree"})",
     0x0ULL, 0xad1913125fbcf86eULL, 0x305a5fed5fc5e0fULL},
    {R"({"id":12,"path":"instances/a.mtx","strategy":"optminmem"})",
     0x0ULL, 0xbcdea30a9afeb0d7ULL, 0xd690b9f0ea144855ULL},
    {R"({"id":13,"path":"instances/a.otree","model":"sum"})",
     0x0ULL, 0xad1913125fbcf86eULL, 0x4a7aa62ddb27f732ULL},
    {R"({"id":14,"nodes":40,"seed":3,"workers":2})",
     0x9dc30c1d4f1409ddULL, 0x9657220291e7a837ULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":15,"nodes":40,"seed":3,"workers":3,"priority":"critical-path"})",
     0xaf176ad350628d8fULL, 0x2a3c74b50be691abULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":16,"nodes":40,"seed":3,"workers":3,"priority":"heaviest-subtree"})",
     0xdec3694b4f61beddULL, 0x14bf67bb5a3aa0c3ULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":17,"nodes":40,"seed":3,"workers":2,"evict":"belady"})",
     0x9dc30c1d4f1409ddULL, 0x9657220291e7a837ULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":18,"nodes":40,"seed":3,"workers":2,"evict":"lru","cost":"weight"})",
     0x1f24df24a46ba3c7ULL, 0xe4c32760c69841f1ULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":19,"nodes":40,"seed":3,"workers":2,"evict":"largest","cost":"unit"})",
     0x245591fe0b3d57d0ULL, 0x511119f6050067daULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":20,"nodes":40,"seed":3,"workers":2,"evict":"random"})",
     0xf64e2460d4fbca86ULL, 0x228baab124dfe35eULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":21,"nodes":40,"workers":2,"evict":"random"})",
     0x4867b758eb75cf7ULL, 0xaf72ceb760c1a7cdULL, 0x7e7141e0ce8d405eULL},
    {R"({"id":22,"nodes":40,"seed":3,"workers":2,"evict":"random","evict_seed":17})",
     0x8b23fa86d555495cULL, 0x984e0cf51f18d3c1ULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":23,"nodes":40,"seed":3,"workers":2,"evict":"belady","evict_seed":17})",
     0x9dc30c1d4f1409ddULL, 0x9657220291e7a837ULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":24,"nodes":40,"seed":3,"workers":4,"backfill_depth":1,"residency":true})",
     0xfde24408f956929fULL, 0x9d8cef77a8476c53ULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":25,"nodes":40,"seed":3,"workers":2,"page_size":4})",
     0x81ae22abed156450ULL, 0xe611d4f25519d710ULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":26,"nodes":40,"seed":3,"workers":2,"page_size":4,"disk_bandwidth":8,)"
     R"("disk_latency":0.5})",
     0x4ebdf84a7773031eULL, 0x9d1a74a42216d0ceULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":27,"nodes":40,"seed":3,"workers":2,"page_size":4,"disk_bandwidth":8,)"
     R"("write_queue_depth":3,"prefetch_window":5})",
     0x5fd8d3cece5f7ed4ULL, 0xbcf003c26c154721ULL, 0xff70ef31ca83f6ecULL},
    {R"({"id":28,"parent":[-1,0,0,1],"weight":[5,3,2,4],"workers":2,"evict":"random",)"
     R"("page_size":2})",
     0x1f0594115a5a6d53ULL, 0xd8428e98916cf35cULL, 0xb7551c5b82696014ULL},
};

TEST(GoldenCacheKeys, RequestGridKeysAreStable) {
  for (const GoldenKeys& row : kGrid) {
    const service::PlanRequest request = service::request_from_json(row.line);
    const std::uint64_t seed = service::effective_seed(request, kServiceSeed);
    const std::uint64_t spec = service::request_fingerprint(request, seed).value_or(0);
    const std::uint64_t params = service::params_fingerprint(request, kResolvedMemory, seed);
    const std::uint64_t tree = service::tree_identity(request, seed);
    EXPECT_TRUE(spec == row.spec && params == row.params && tree == row.tree)
        << std::hex << "    {R\"(" << row.line << ")\", 0x" << spec << "ULL, 0x" << params
        << "ULL, 0x" << tree << "ULL},";
  }
}

/// splitmix digest of a file's bytes.
std::uint64_t file_digest(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  std::uint64_t h = util::splitmix64(bytes.size());
  for (const char c : bytes) h = util::splitmix64(h ^ static_cast<unsigned char>(c));
  return h;
}

/// Digest of the one .plan file a persistent cache spills for `stats`.
std::uint64_t spilled_digest(const std::string& name, const service::CacheKey& key,
                             std::shared_ptr<const service::PlanStats> stats) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  { service::ResultCache(4, 1, dir).put(key, std::move(stats)); }  // flushed on destroy
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) files.push_back(entry.path());
  EXPECT_EQ(files.size(), 1u);
  return files.empty() ? 0 : file_digest(files.front());
}

TEST(GoldenCacheKeys, SpilledPlanBytesAreStable) {
  service::PlanService planner(service::ServiceConfig{.threads = 1});
  const service::PlanResponse replayed = planner.plan(service::request_from_json(
      R"({"id":1,"nodes":60,"seed":7,"memory_lb":1.5,"workers":2,"evict":"random",)"
      R"("page_size":4,"disk_bandwidth":8,"disk_latency":0.5,"prefetch_window":2})"));
  ASSERT_TRUE(replayed.stats->ok) << replayed.stats->error;
  ASSERT_TRUE(replayed.stats->replayed);
  const service::PlanResponse failed =
      planner.plan(service::request_from_json(R"({"id":2,"nodes":60,"seed":7,"memory":1})"));
  ASSERT_FALSE(failed.stats->ok);

  EXPECT_EQ(spilled_digest("golden_plan_ok", {0x1111, 0x2222}, replayed.stats),
            0x9a4acce5ad73b2c6ULL);
  EXPECT_EQ(spilled_digest("golden_plan_failed", {0x3333, 0x4444}, failed.stats),
            0x58f1ebe76560899cULL);
}

}  // namespace
}  // namespace ooctree
