// Request field table suite. The role test perturbs every request field
// the decoder knows and checks that the hand-written fingerprint mixes
// honour the field's declared role: answer-determining fields change every
// cache key that applies to them, routing fields change none. A field
// without a sample fails the test, so a new field cannot skip it. The
// decode tests pin the strict number rules both formats share.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/tree_io.hpp"
#include "src/service/plan_service.hpp"
#include "src/service/request_io.hpp"
#include "src/util/rng.hpp"
#include "tests/test_support.hpp"

namespace ooctree {
namespace {

using service::FieldRole;
using service::PlanRequest;

constexpr std::uint64_t kServiceSeed = 20170208;

/// One perturbation: the JSONL object {base, "field": a} against
/// {base, "field": b}, and the role the pair must show. A conditional case
/// (evict_seed outside kRandom, id with seed 0) names the role it behaves
/// as, which may differ from the field's declared role.
struct Sample {
  std::string field;
  FieldRole expect;
  std::string base;
  std::string a;
  std::string b;
};

/// Every key a request can be cached or fused under.
struct Keys {
  std::optional<std::uint64_t> spec;  ///< request_fingerprint; none for path sources
  std::uint64_t tree_hash = 0;        ///< canonical key, tree half
  std::uint64_t params = 0;           ///< canonical key, params half
  std::uint64_t identity = 0;         ///< tree_identity (fusion)
};

Keys keys_of(const PlanRequest& request) {
  const std::uint64_t seed = service::effective_seed(request, kServiceSeed);
  const core::Tree tree = service::materialize_tree(request, seed);
  const core::Weight memory = service::resolve_memory(request, tree);
  return {service::request_fingerprint(request, seed), tree.canonical_hash(),
          service::params_fingerprint(request, memory, seed),
          service::tree_identity(request, seed)};
}

std::string line_of(const Sample& s, const std::string& value) {
  return "{" + s.base + (s.base.empty() ? "" : ",") + "\"" + s.field + "\":" + value + "}";
}

std::string role_name(FieldRole role) {
  switch (role) {
    case FieldRole::kRouting: return "routing";
    case FieldRole::kTree: return "tree";
    case FieldRole::kParams: return "params";
    case FieldRole::kReplay: return "replay";
  }
  return "?";
}

/// Two tree files of different content, for the path field.
std::vector<std::string> tree_files() {
  std::vector<std::string> paths;
  for (const std::uint64_t seed : {1, 2}) {
    util::Rng rng(seed);
    paths.push_back(::testing::TempDir() + "request_fields_" + std::to_string(seed) + ".tree");
    core::save_tree(paths.back(), test::small_random_tree(12, 20, rng));
  }
  return paths;
}

std::vector<Sample> samples() {
  const std::vector<std::string> files = tree_files();
  const std::string synth = R"("nodes":30,"seed":3)";
  const std::string replay = synth + R"(,"workers":2)";
  const std::string disk = replay + R"(,"page_size":4,"disk_bandwidth":8)";
  const std::string parents = R"("parent":[-1,0,0,1],"weight":[5,3,2,4])";
  return {
      {"id", FieldRole::kRouting, synth, "1", "2"},
      {"id", FieldRole::kTree, R"("nodes":30)", "1", "2"},  // seed 0: id salts the stream
      {"tenant", FieldRole::kRouting, synth, R"("a")", R"("b")"},
      {"tenant", FieldRole::kRouting, replay + R"(,"evict":"random")", R"("a")", R"("b")"},
      {"source", FieldRole::kTree, synth + "," + parents, R"("synth")", R"("parents")"},
      {"nodes", FieldRole::kTree, R"("seed":3)", "30", "31"},
      {"w_lo", FieldRole::kTree, synth + R"(,"w_hi":50)", "1", "2"},
      {"w_hi", FieldRole::kTree, synth, "50", "60"},
      {"seed", FieldRole::kTree, R"("nodes":30)", "3", "4"},
      {"parent", FieldRole::kTree, R"("weight":[5,3,2,4])", "[-1,0,0,1]", "[-1,0,1,1]"},
      {"weight", FieldRole::kTree, R"("parent":[-1,0,0,1])", "[5,3,2,4]", "[5,3,2,6]"},
      {"path", FieldRole::kTree, "", "\"" + files[0] + "\"", "\"" + files[1] + "\""},
      {"model", FieldRole::kTree, synth, R"("max")", R"("sum")"},
      {"memory", FieldRole::kParams, synth, "100000", "100001"},
      {"memory_lb", FieldRole::kParams, synth, "1.5", "2.5"},
      {"strategy", FieldRole::kParams, synth, R"("postorder")", R"("optminmem")"},
      {"workers", FieldRole::kReplay, synth, "2", "3"},
      {"priority", FieldRole::kReplay, replay, R"("critical-path")", R"("heaviest-subtree")"},
      {"evict", FieldRole::kReplay, replay, R"("lru")", R"("largest")"},
      {"cost", FieldRole::kReplay, replay, R"("wbar")", R"("unit")"},
      {"backfill_depth", FieldRole::kReplay, replay, "0", "1"},
      {"residency", FieldRole::kReplay, disk, "false", "true"},
      {"evict_seed", FieldRole::kReplay, replay + R"(,"evict":"random")", "5", "6"},
      // Outside kRandom the replay seed cannot change the answer.
      {"evict_seed", FieldRole::kRouting, replay + R"(,"evict":"belady")", "5", "6"},
      {"page_size", FieldRole::kReplay, replay, "2", "4"},
      {"disk_latency", FieldRole::kReplay, disk, "0.5", "1.5"},
      {"disk_bandwidth", FieldRole::kReplay, replay + R"(,"page_size":4)", "8", "16"},
      {"write_queue_depth", FieldRole::kReplay, disk, "1", "3"},
      {"prefetch_window", FieldRole::kReplay, disk, "1", "3"},
  };
}

TEST(RequestFields, EveryFieldHonoursItsCacheKeyRole) {
  const std::vector<Sample> all = samples();
  const std::vector<service::RequestField> fields = service::request_fields();
  for (const service::RequestField& field : fields) {
    const bool covered = std::any_of(all.begin(), all.end(), [&](const Sample& s) {
      return s.field == field.name && s.expect == field.role;
    });
    EXPECT_TRUE(covered) << "no " << role_name(field.role) << " sample for field '" << field.name
                         << "'";
  }
  for (const Sample& s : all) {
    SCOPED_TRACE(s.field + " (" + role_name(s.expect) + "): " + s.a + " vs " + s.b);
    EXPECT_TRUE(std::any_of(fields.begin(), fields.end(),
                            [&](const service::RequestField& f) { return f.name == s.field; }))
        << "sample names no request field";
    const Keys a = keys_of(service::request_from_json(line_of(s, s.a)));
    const Keys b = keys_of(service::request_from_json(line_of(s, s.b)));
    switch (s.expect) {
      case FieldRole::kRouting:
        EXPECT_EQ(a.spec, b.spec);
        EXPECT_EQ(a.tree_hash, b.tree_hash);
        EXPECT_EQ(a.params, b.params);
        EXPECT_EQ(a.identity, b.identity);
        break;
      case FieldRole::kTree:
        // Path sources have no spec key; every other source must differ.
        EXPECT_TRUE(!a.spec.has_value() || a.spec != b.spec);
        EXPECT_EQ(a.spec.has_value(), b.spec.has_value());
        EXPECT_NE(a.tree_hash, b.tree_hash);
        EXPECT_NE(a.identity, b.identity);
        break;
      case FieldRole::kParams:
      case FieldRole::kReplay:
        ASSERT_TRUE(a.spec.has_value() && b.spec.has_value());
        EXPECT_NE(a.spec, b.spec);
        EXPECT_NE(a.params, b.params);
        EXPECT_EQ(a.tree_hash, b.tree_hash);
        EXPECT_EQ(a.identity, b.identity);
        break;
    }
  }
}

/// The decode error of `decode`, or "accepted".
std::string error_of(const std::function<void()>& decode) {
  try {
    decode();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "accepted";
}

std::string json_error(const std::string& line) {
  return error_of([&] { (void)service::request_from_json(line); });
}

std::string csv_error(const std::string& csv) {
  std::istringstream in(csv);
  return error_of([&] { (void)service::read_requests_csv(in); });
}

// A number that overflows to infinity used to decode as inf: the replay
// then reported makespan = inf and different page I/O.
TEST(RequestFields, NonFiniteRealsAreRejected) {
  const std::string base = R"({"nodes":300,"seed":3,"workers":2,"page_size":4,)";
  for (const std::string field : {"disk_latency", "disk_bandwidth", "memory_lb"}) {
    const std::string extra = field == "disk_latency" ? R"("disk_bandwidth":64,)" : "";
    EXPECT_NE(json_error(base + extra + "\"" + field + "\":1e400}").find("'" + field + "'"),
              std::string::npos)
        << field;
    for (const std::string cell : {"1e400", "inf", "nan", "-inf"})
      EXPECT_NE(csv_error("nodes,workers,page_size," + field + "\n300,2,4," + cell + "\n")
                    .find("'" + field + "'"),
                std::string::npos)
          << field << "=" << cell;
  }
  EXPECT_EQ(json_error(base + R"("disk_bandwidth":64,"disk_latency":1e300})"), "accepted");
}

// A request built in code bypasses the decoder; the service still refuses
// a non-finite disk model before planning.
TEST(RequestFields, ServiceRejectsNonFiniteDiskModel) {
  PlanRequest request =
      service::request_from_json(R"({"nodes":40,"seed":3,"workers":2,"page_size":4})");
  request.disk_bandwidth = 64;
  request.disk_latency = std::numeric_limits<double>::infinity();
  service::PlanService planner(service::ServiceConfig{.threads = 1});
  const service::PlanResponse response = planner.plan(request);
  EXPECT_FALSE(response.stats->ok);
  EXPECT_NE(response.stats->error.find("finite"), std::string::npos);
}

// strtoll used to clamp: seed 99999999999999999999999 planned (and was
// answered from the cache entry of) seed INT64_MAX.
TEST(RequestFields, IntegersBeyondInt64AreRejected) {
  for (const std::string field : {"seed", "w_hi", "id"}) {
    for (const std::string value : {"99999999999999999999999", "9223372036854775808",
                                    "-9223372036854775809"}) {
      EXPECT_NE(json_error(R"({"nodes":50,")" + field + "\":" + value + "}").find("int64"),
                std::string::npos)
          << field << "=" << value;
      EXPECT_NE(csv_error("nodes," + field + "\n50," + value + "\n").find("int64"),
                std::string::npos)
          << field << "=" << value << " (CSV)";
    }
  }
  const PlanRequest max = service::request_from_json(
      R"({"nodes":50,"seed":9223372036854775807,"w_hi":9223372036854775807,)"
      R"("id":-9223372036854775808})");
  EXPECT_EQ(max.seed, static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()));
  EXPECT_EQ(max.w_hi, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(max.id, std::numeric_limits<std::int64_t>::min());
  EXPECT_NE(json_error(R"({"parent":[-1,4294967296],"weight":[1,1]})").find("'parent'"),
            std::string::npos);
}

// Each CSV cell is parsed once, by its field's kind, as a strict decimal.
// "0x1F" used to pass stod whole and then decode as seed 0 through stoll.
TEST(RequestFields, CsvCellsAreStrictDecimals) {
  for (const std::string cell : {"0x1F", "nan", "inf", "1e999", "12abc", "1.5", "1e3"}) {
    const std::string error = csv_error("id,nodes,seed\n1,50," + cell + "\n");
    EXPECT_NE(error.find("'seed'"), std::string::npos) << cell << ": " << error;
    EXPECT_NE(error.find("'" + cell + "'"), std::string::npos) << cell << ": " << error;
  }
  for (const std::string cell : {"0x1F", "nan", "inf", "1e999", "12abc"}) {
    const std::string error = csv_error("nodes,memory_lb\n50," + cell + "\n");
    EXPECT_NE(error.find("'memory_lb'"), std::string::npos) << cell << ": " << error;
  }
  std::istringstream ok("id,nodes,seed,memory_lb\n1,50,31,1.25\n");
  const std::vector<PlanRequest> requests = service::read_requests_csv(ok);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].seed, 31u);
  EXPECT_DOUBLE_EQ(requests[0].memory_lb, 1.25);
}

// A JSON value of the wrong type names the field; only an unknown key is
// reported as unknown.
TEST(RequestFields, WrongValueTypesNameTheField) {
  EXPECT_NE(json_error(R"({"nodes":"40"})").find("field 'nodes' cannot be a string"),
            std::string::npos);
  EXPECT_NE(json_error(R"({"tenant":5})").find("field 'tenant' cannot be a number"),
            std::string::npos);
  EXPECT_NE(json_error(R"({"seed":[1]})").find("field 'seed' cannot be an array"),
            std::string::npos);
  EXPECT_NE(json_error(R"({"parent":[1.5],"weight":[1]})").find("'parent'"), std::string::npos);
  const std::string gated = json_error(R"({"nodes":8,"prefetch_window":2})");
  EXPECT_NE(gated.find("prefetch_window"), std::string::npos) << gated;
  EXPECT_NE(gated.find("require 'workers' > 0"), std::string::npos) << gated;
}

/// A scalar key decoded on top of `base`, with a valid and an invalid
/// value. Values are JSON-spelled (strings quoted); the CSV cell and the
/// request_from_fields text are the same value unquoted.
struct Spelling {
  std::string field;
  std::vector<std::pair<std::string, std::string>> base;
  std::string good;
  std::string bad;  ///< empty when every JSON value of the key's type decodes
};

std::vector<Spelling> spellings() {
  const std::vector<std::pair<std::string, std::string>> synth = {{"nodes", "30"}, {"seed", "3"}};
  auto replay = synth;
  replay.emplace_back("workers", "2");
  auto disk = replay;
  disk.insert(disk.end(), {{"page_size", "4"}, {"disk_bandwidth", "8"}});
  auto paged = replay;
  paged.emplace_back("page_size", "4");
  auto random = replay;
  random.emplace_back("evict", R"("random")");
  return {
      {"id", synth, "7", "1.5"},
      {"tenant", synth, R"("a")", ""},
      {"source", synth, R"("synth")", R"("bogus")"},
      {"nodes", {{"seed", "3"}}, "30", "0"},
      {"w_lo", {{"nodes", "30"}, {"seed", "3"}, {"w_hi", "50"}}, "2", "1.5"},
      {"w_hi", synth, "50", "1.5"},
      {"seed", {{"nodes", "30"}}, "3", "1.5"},
      {"path", {}, "\"" + tree_files()[0] + "\"", ""},
      {"model", synth, R"("sum")", R"("avg")"},
      {"memory", synth, "100000", "1.5"},
      {"memory_lb", synth, "1.5", "1e400"},
      {"strategy", synth, R"("postorder")", R"("bogus")"},
      {"workers", synth, "2", "-1"},
      {"priority", replay, R"("critical-path")", R"("bogus")"},
      {"evict", replay, R"("lru")", R"("bogus")"},
      {"cost", replay, R"("unit")", R"("bogus")"},
      {"backfill_depth", replay, "1", "-1"},
      {"residency", disk, "true", ""},  // a JSON boolean is true or false
      {"evict_seed", random, "5", "1.5"},
      {"page_size", replay, "4", "0"},
      {"disk_latency", disk, "0.5", "-1"},
      {"disk_bandwidth", paged, "8", "-1"},
      {"write_queue_depth", disk, "1", "-1"},
      {"prefetch_window", disk, "1", "-1"},
  };
}

std::string unquoted(const std::string& json) {
  return json.starts_with('"') ? json.substr(1, json.size() - 2) : json;
}

/// The request `spelling` decodes to with `value`, as a JSONL line, a CSV
/// row and request_from_fields pairs (in that order); or each decode error.
std::vector<std::function<PlanRequest()>> decoders(const Spelling& spelling,
                                                   const std::string& value) {
  auto pairs = spelling.base;
  pairs.emplace_back(spelling.field, value);
  std::string line;
  std::string header;
  std::string row;
  for (const auto& [name, json] : pairs) {
    const std::string separator = line.empty() ? "" : ",";
    line += separator + "\"" + name + "\":" + json;
    header += separator + name;
    row += separator + unquoted(json);
  }
  return {
      [line = "{" + line + "}"] { return service::request_from_json(line); },
      [csv = header + "\n" + row + "\n"] {
        std::istringstream in(csv);
        return service::read_requests_csv(in).at(0);
      },
      [pairs] {
        std::vector<std::string> texts;
        for (const auto& pair : pairs) texts.push_back(unquoted(pair.second));
        std::vector<service::FieldText> fields;
        for (std::size_t k = 0; k < pairs.size(); ++k) fields.push_back({pairs[k].first, texts[k]});
        return service::request_from_fields(fields);
      },
  };
}

/// A decode error without the CSV reader's "line N: " prefix.
std::string decode_error(const std::function<PlanRequest()>& decode) {
  try {
    (void)decode();
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    return what.starts_with("line 2: ") ? what.substr(8) : what;
  }
  return "accepted";
}

// One declaration per key: a value means the same request, and a bad
// value the same error, whether it arrives as a JSONL key, a CSV cell or
// a command-line option (request_from_fields). Only the array keys are
// JSONL-only.
TEST(RequestFields, EveryScalarKeyDecodesAlikeInEveryFormat) {
  const std::vector<Spelling> all = spellings();
  for (const service::RequestField& field : service::request_fields()) {
    const auto spelled = [&](const Spelling& s) { return s.field == field.name; };
    if (std::any_of(all.begin(), all.end(), spelled)) continue;
    const std::vector<service::FieldText> array = {{field.name, "1"}};
    EXPECT_NE(decode_error([&] { return service::request_from_fields(array); })
                  .find("unknown request field '" + std::string(field.name) + "'"),
              std::string::npos)
        << "no spelling for the scalar field '" << field.name << "'";
  }
  for (const Spelling& s : all) {
    SCOPED_TRACE(s.field + " = " + s.good);
    std::vector<Keys> keys;
    for (const auto& decode : decoders(s, s.good)) {
      ASSERT_EQ(decode_error(decode), "accepted");
      keys.push_back(keys_of(decode()));
    }
    for (std::size_t k = 1; k < keys.size(); ++k) {
      EXPECT_EQ(keys[k].spec, keys[0].spec) << "decoder " << k;
      EXPECT_EQ(keys[k].params, keys[0].params) << "decoder " << k;
      EXPECT_EQ(keys[k].tree_hash, keys[0].tree_hash) << "decoder " << k;
    }
    if (s.bad.empty()) continue;
    std::vector<std::string> errors;
    for (const auto& decode : decoders(s, s.bad)) errors.push_back(decode_error(decode));
    EXPECT_NE(errors[0], "accepted") << s.bad;
    EXPECT_EQ(errors[1], errors[0]) << "CSV, " << s.bad;
    EXPECT_EQ(errors[2], errors[0]) << "request_from_fields, " << s.bad;
  }
}

// An enum field names itself and lists its accepted values, in the shape
// the numeric fields have, whichever decoder reads it.
TEST(RequestFields, BadEnumValueNamesTheField) {
  const Spelling strategy = {"strategy", {{"nodes", "30"}, {"seed", "3"}}, "", ""};
  for (const auto& decode : decoders(strategy, R"("bogus")"))
    EXPECT_EQ(decode_error(decode),
              "field 'strategy': 'bogus' is unknown (postorder | optminmem | recexpand | full)");
}

}  // namespace
}  // namespace ooctree
