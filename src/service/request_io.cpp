#include "src/service/request_io.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "src/util/text.hpp"

namespace ooctree::service {

namespace {

// ---------------------------------------------------------------------------
// Minimal flat-JSON scanner: objects of string/number/bool/integer-array
// values. No nested objects — the request schema is flat by design.

struct JsonValue {
  enum class Kind : std::uint8_t { kString, kNumber, kBool, kArray } kind = Kind::kNumber;
  std::string str;
  double number = 0.0;
  std::int64_t integer = 0;
  bool is_integer = false;
  bool boolean = false;
  std::vector<std::int64_t> array;
};

class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : text_(text) {}

  /// Parses the whole line as one object; calls visit(key, value) per pair.
  template <typename Visitor>
  void parse_object(Visitor&& visit) {
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
    } else {
      for (;;) {
        skip_ws();
        const std::string key = parse_string();
        skip_ws();
        expect(':');
        visit(key, parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        break;
      }
    }
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after object");
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON error at column " + std::to_string(pos_ + 1) + ": " + what);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: fail(std::string("unsupported escape '\\") + e + "'");
        }
      }
      out.push_back(c);
    }
    expect('"');
    return out;
  }

  JsonValue parse_number_value() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    bool integral = true;
    if (peek() == '.' || peek() == 'e' || peek() == 'E') {
      integral = false;
      if (peek() == '.') {
        ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
      }
      if (peek() == 'e' || peek() == 'E') {
        ++pos_;
        if (peek() == '+' || peek() == '-') ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("malformed number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(token.c_str(), nullptr);
    v.is_integer = integral;
    if (integral) v.integer = std::strtoll(token.c_str(), nullptr, 10);
    return v;
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    const char c = peek();
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.str = parse_string();
    } else if (c == '[') {
      ++pos_;
      v.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
      } else {
        for (;;) {
          skip_ws();
          const JsonValue item = parse_number_value();
          if (!item.is_integer) fail("array elements must be integers");
          v.array.push_back(item.integer);
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          break;
        }
      }
    } else if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = false;
    } else {
      return parse_number_value();
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Field assignment shared by the JSONL and CSV decoders.

/// Every request field, in the order the unknown-field error lists them.
constexpr std::array<std::string_view, 26> kFields{
    "id", "tenant", "source", "nodes", "w_lo", "w_hi", "seed", "parent", "weight", "path",
    "model", "memory", "memory_lb", "strategy", "workers", "priority", "evict", "cost",
    "backfill_depth", "residency", "evict_seed", "page_size", "disk_latency", "disk_bandwidth",
    "write_queue_depth", "prefetch_window"};

bool key_is_known(const std::string& key) {
  return std::find(kFields.begin(), kFields.end(), key) != kFields.end();
}

[[noreturn]] void unknown_key(const std::string& key) {
  std::string fields;
  for (const std::string_view field : kFields) {
    if (!fields.empty()) fields += ", ";
    fields += field;
  }
  throw std::runtime_error("unknown request field '" + key + "' (" + fields + ")");
}

/// The replay knobs a request starts from. Three serving defaults differ
/// from ParallelConfig's: workers = 0 means "no replay" until the request
/// asks for one; the priority is sequential-order, so the replay starts
/// tasks in the order the planner just produced (the response's schedule)
/// rather than re-ranking them by critical path; and seed = 0 derives
/// kRandom's stream from the request instead of a fixed constant.
parallel::ParallelConfig serving_replay_defaults() {
  parallel::ParallelConfig pc;
  pc.workers = 0;
  pc.priority = parallel::Priority::kSequentialOrder;
  pc.seed = 0;
  return pc;
}

/// Tracks which fields were given so source inference and replay gating
/// can run after all assignments.
struct DecodeState {
  PlanRequest request;
  bool has_source = false;
  bool has_id = false;
  bool has_replay_field = false;  ///< any replay knob short of workers itself
  parallel::ParallelConfig replay = serving_replay_defaults();
};

core::MemoryModel model_from_name(const std::string& name) {
  const std::string s = util::to_lower(name);
  if (s == "max" || s == "maxinout") return core::MemoryModel::kMaxInOut;
  if (s == "sum" || s == "suminout") return core::MemoryModel::kSumInOut;
  throw std::runtime_error("unknown memory model '" + name + "' (max | sum)");
}

bool bool_from_cell(const std::string& key, const std::string& value) {
  const std::string s = util::to_lower(value);
  if (s == "1" || s == "true") return true;
  if (s == "0" || s == "false") return false;
  throw std::runtime_error("field '" + key + "': expected a boolean, got '" + value + "'");
}

void assign_string(DecodeState& state, const std::string& key, const std::string& value) {
  if (key == "source") {
    state.request.source = tree_source_from_name(value);
    state.has_source = true;
  } else if (key == "tenant") {
    state.request.tenant = value;
  } else if (key == "path") {
    state.request.path = value;
  } else if (key == "model") {
    state.request.model = model_from_name(value);
  } else if (key == "strategy") {
    state.request.strategy = core::strategy_from_name(value);
  } else if (key == "priority") {
    state.replay.priority = priority_from_name(value);
    state.has_replay_field = true;
  } else if (key == "evict") {
    state.replay.evict = core::eviction_policy_from_name(value);
    state.has_replay_field = true;
  } else if (key == "cost") {
    state.replay.cost = cost_model_from_name(value);
    state.has_replay_field = true;
  } else {
    unknown_key(key);
  }
}

void assign_number(DecodeState& state, const std::string& key, std::int64_t integer,
                   double number, bool is_integer) {
  const auto require_int = [&]() {
    if (!is_integer)
      throw std::runtime_error("field '" + key + "' must be an integer");
    return integer;
  };
  // The replay knobs are ints in ParallelConfig: a value past INT_MAX is an
  // error, not a silently truncated knob.
  const auto require_knob = [&]() {
    const std::int64_t v = require_int();
    if (v < 0) throw std::runtime_error("'" + key + "' must be >= 0");
    if (v > std::numeric_limits<int>::max())
      throw std::runtime_error("'" + key + "' must be <= " +
                               std::to_string(std::numeric_limits<int>::max()));
    return static_cast<int>(v);
  };
  if (key == "id") {
    state.request.id = require_int();
    state.has_id = true;
  } else if (key == "nodes") {
    // Node ids are core::NodeId: a larger tree could not be indexed.
    const std::int64_t v = require_int();
    if (v <= 0) throw std::runtime_error("'nodes' must be positive");
    if (v > std::numeric_limits<core::NodeId>::max())
      throw std::runtime_error("'nodes' must be <= " +
                               std::to_string(std::numeric_limits<core::NodeId>::max()));
    state.request.nodes = static_cast<std::size_t>(v);
  } else if (key == "w_lo") {
    state.request.w_lo = require_int();
  } else if (key == "w_hi") {
    state.request.w_hi = require_int();
  } else if (key == "seed") {
    state.request.seed = static_cast<std::uint64_t>(require_int());
  } else if (key == "memory") {
    state.request.memory = require_int();
  } else if (key == "memory_lb") {
    state.request.memory_lb = number;
  } else if (key == "workers") {
    state.replay.workers = require_knob();
  } else if (key == "backfill_depth") {
    state.replay.backfill_depth = require_knob();
    state.has_replay_field = true;
  } else if (key == "disk_latency") {
    if (number < 0) throw std::runtime_error("'disk_latency' must be >= 0");
    state.request.disk_latency = number;
    state.has_replay_field = true;
  } else if (key == "disk_bandwidth") {
    if (number < 0) throw std::runtime_error("'disk_bandwidth' must be >= 0");
    state.request.disk_bandwidth = number;
    state.has_replay_field = true;
  } else if (key == "write_queue_depth") {
    state.replay.write_queue_depth = require_knob();
    state.has_replay_field = true;
  } else if (key == "prefetch_window") {
    state.replay.prefetch_window = require_knob();
    state.has_replay_field = true;
  } else if (key == "evict_seed") {
    state.replay.seed = static_cast<std::uint64_t>(require_int());
    state.has_replay_field = true;
  } else if (key == "page_size") {
    const std::int64_t v = require_int();
    if (v <= 0) throw std::runtime_error("'page_size' must be positive");
    state.request.page_size = v;
    state.has_replay_field = true;
  } else {
    unknown_key(key);
  }
}

/// Applies inference and the replay block, yielding the final request.
PlanRequest finish(DecodeState&& state, std::int64_t fallback_id) {
  PlanRequest& request = state.request;
  if (!state.has_id) request.id = fallback_id;
  if (!state.has_source) {
    if (!request.path.empty()) {
      const auto has_ext = [&](const char* ext, std::size_t len) {
        return request.path.size() >= len &&
               request.path.compare(request.path.size() - len, len, ext) == 0;
      };
      request.source = has_ext(".mtx", 4)     ? TreeSource::kMatrixMarket
                       : has_ext(".otree", 6) ? TreeSource::kSnapshot
                                              : TreeSource::kTreeFile;
    } else if (!request.parent.empty()) {
      request.source = TreeSource::kParents;
    } else {
      request.source = TreeSource::kSynth;
    }
  }
  if ((request.source == TreeSource::kTreeFile || request.source == TreeSource::kMatrixMarket ||
       request.source == TreeSource::kSnapshot) &&
      request.path.empty())
    throw std::runtime_error("file-based request needs a 'path'");
  if (request.source == TreeSource::kParents && request.parent.size() != request.weight.size())
    throw std::runtime_error("'parent' and 'weight' arrays must have equal length");
  if (state.replay.workers > 0) {
    request.parallel = state.replay;
  } else if (state.has_replay_field) {
    // Silently dropping the replay block would report sequential-only
    // stats for a request that asked for a parallel evaluation.
    throw std::runtime_error(
        "replay fields (priority/evict/cost/backfill_depth/residency/evict_seed/page_size/"
        "disk_latency/disk_bandwidth/write_queue_depth/prefetch_window) require "
        "'workers' > 0");
  }
  return std::move(request);
}

bool blank_or_comment(const std::string& line) {
  for (const char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::vector<std::string> split_csv_row(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (const char c : line) {
    if (c == ',') {
      cells.push_back(cell);
      cell.clear();
    } else if (c != '\r') {
      cell.push_back(c);
    }
  }
  cells.push_back(cell);
  // Trim surrounding whitespace per cell.
  for (std::string& s : cells) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    s = s.substr(b, e - b);
  }
  return cells;
}

bool csv_key_is_numeric(const std::string& key) {
  return key == "id" || key == "nodes" || key == "w_lo" || key == "w_hi" || key == "seed" ||
         key == "memory" || key == "memory_lb" || key == "workers" || key == "evict_seed" ||
         key == "page_size" || key == "backfill_depth" || key == "disk_latency" ||
         key == "disk_bandwidth" || key == "write_queue_depth" || key == "prefetch_window";
}

}  // namespace

PlanRequest request_from_json(const std::string& line, std::int64_t fallback_id) {
  DecodeState state;
  JsonScanner scanner(line);
  scanner.parse_object([&](const std::string& key, const JsonValue& value) {
    switch (value.kind) {
      case JsonValue::Kind::kString:
        assign_string(state, key, value.str);
        break;
      case JsonValue::Kind::kNumber:
        assign_number(state, key, value.integer, value.number, value.is_integer);
        break;
      case JsonValue::Kind::kBool:
        if (key == "residency") {
          state.replay.residency_aware = value.boolean;
          state.has_replay_field = true;
        } else if (key_is_known(key)) {
          throw std::runtime_error("field '" + key + "' cannot be a boolean");
        } else {
          unknown_key(key);
        }
        break;
      case JsonValue::Kind::kArray:
        if (key == "parent") {
          state.request.parent.assign(value.array.begin(), value.array.end());
        } else if (key == "weight") {
          state.request.weight.assign(value.array.begin(), value.array.end());
        } else {
          throw std::runtime_error("field '" + key + "' cannot be an array");
        }
        break;
    }
  });
  return finish(std::move(state), fallback_id);
}

std::vector<PlanRequest> read_requests_jsonl(std::istream& in) {
  std::vector<PlanRequest> requests;
  std::string line;
  std::int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (blank_or_comment(line)) continue;
    try {
      requests.push_back(request_from_json(line, line_number));
    } catch (const std::exception& e) {
      throw std::runtime_error("line " + std::to_string(line_number) + ": " + e.what());
    }
  }
  return requests;
}

std::vector<PlanRequest> read_requests_csv(std::istream& in) {
  std::vector<PlanRequest> requests;
  std::string line;
  std::vector<std::string> header;
  std::int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (blank_or_comment(line)) continue;
    if (header.empty()) {
      header = split_csv_row(line);
      for (const std::string& key : header) {
        // Validate the header eagerly so a typo fails before row 1. The
        // parent/weight arrays are JSONL-only.
        if (!key_is_known(key) || key == "parent" || key == "weight") unknown_key(key);
      }
      continue;
    }
    const std::vector<std::string> cells = split_csv_row(line);
    if (cells.size() != header.size())
      throw std::runtime_error("line " + std::to_string(line_number) + ": expected " +
                               std::to_string(header.size()) + " cells, got " +
                               std::to_string(cells.size()));
    try {
      DecodeState state;
      for (std::size_t k = 0; k < header.size(); ++k) {
        const std::string& key = header[k];
        const std::string& cell = cells[k];
        if (cell.empty()) continue;  // keep the field's default
        if (key == "residency") {
          state.replay.residency_aware = bool_from_cell(key, cell);
          state.has_replay_field = true;
        } else if (csv_key_is_numeric(key)) {
          std::size_t consumed = 0;
          const double number = std::stod(cell, &consumed);
          if (consumed != cell.size())
            throw std::runtime_error("field '" + key + "': malformed number '" + cell + "'");
          const bool is_integer = cell.find_first_of(".eE") == std::string::npos;
          assign_number(state, key, is_integer ? std::stoll(cell) : 0, number, is_integer);
        } else {
          assign_string(state, key, cell);
        }
      }
      requests.push_back(finish(std::move(state), static_cast<std::int64_t>(requests.size()) + 1));
    } catch (const std::exception& e) {
      throw std::runtime_error("line " + std::to_string(line_number) + ": " + e.what());
    }
  }
  if (header.empty()) throw std::runtime_error("CSV batch: missing header row");
  return requests;
}

std::vector<PlanRequest> load_requests(const std::string& path, BatchFormat format) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open batch file '" + path + "'");
  if (format == BatchFormat::kAuto) {
    std::string line;
    while (std::getline(in, line) && blank_or_comment(line)) {
    }
    std::size_t first = 0;
    while (first < line.size() && std::isspace(static_cast<unsigned char>(line[first]))) ++first;
    format = (first < line.size() && line[first] == '{') ? BatchFormat::kJsonl : BatchFormat::kCsv;
    in.clear();
    in.seekg(0);
  }
  return format == BatchFormat::kJsonl ? read_requests_jsonl(in) : read_requests_csv(in);
}

}  // namespace ooctree::service
