#include "src/service/request_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/util/text.hpp"

namespace ooctree::service {

namespace {

/// How a request field's value is spelled and checked.
enum class FieldKind : std::uint8_t {
  kInteger,  ///< decimal int64 within [lo, hi]
  kReal,     ///< finite decimal double; >= 0 when lo == 0
  kName,     ///< free text or an enum name
  kBool,     ///< JSON boolean; CSV 1/0/true/false
  kArray,    ///< integer array, elements within [lo, hi] (JSONL only)
};
using enum FieldKind;

// ---------------------------------------------------------------------------
// Minimal flat-JSON scanner: objects of string/number/bool/integer-array
// values. No nested objects — the request schema is flat by design.

/// One scanned value: a string (kName), a number (kReal, any number
/// token), a boolean or an integer array. The field it is assigned to
/// parses the tokens.
struct JsonValue {
  FieldKind kind = kReal;
  std::string str;                       ///< kName contents
  std::vector<std::string_view> tokens;  ///< number, "true"/"false", or array elements
};

class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : text_(text) {}

  /// Parses the whole line as one object; calls visit(key, value) per pair.
  template <typename Visitor>
  void parse_object(Visitor&& visit) {
    skip_ws();
    expect('{');
    parse_list('}', [&] {
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      visit(key, parse_value());
    });
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

  /// Parses comma-separated items up to and including `close`.
  template <typename Item>
  void parse_list(char close, Item&& item) {
    skip_ws();
    if (peek() == close) {
      ++pos_;
      return;
    }
    for (;;) {
      skip_ws();
      item();
      skip_ws();
      if (peek() != ',') break;
      ++pos_;
    }
    expect(close);
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

  /// Scans a JSON number; the field it is assigned to parses the token.
  std::string_view parse_number_token() {
    const std::size_t start = pos_;
    const auto digits = [&] {
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    };
    if (peek() == '-') ++pos_;
    digits();
    if (peek() == '.') {
      ++pos_;
      digits();
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      digits();
    }
    if (pos_ == start || text_.compare(start, pos_ - start, "-") == 0) fail("malformed number");
    return std::string_view(text_).substr(start, pos_ - start);
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    const char c = peek();
    if (c == '"') {
      v.kind = kName;
      v.str = parse_string();
    } else if (c == '[') {
      ++pos_;
      v.kind = kArray;
      parse_list(']', [&] { v.tokens.push_back(parse_number_token()); });
    } else {
      for (const std::string_view literal : {"true", "false"}) {
        if (text_.compare(pos_, literal.size(), literal) != 0) continue;
        pos_ += literal.size();
        v.kind = kBool;
        v.tokens.push_back(literal);
        return v;
      }
      v.tokens.push_back(parse_number_token());
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// The request field table shared by the JSONL and CSV decoders.

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

/// The request being decoded plus what inference and replay gating need
/// once every field is assigned.
struct DecodeState {
  PlanRequest request;
  bool has_source = false;
  bool has_replay_field = false;  ///< any replay knob short of workers itself
  parallel::ParallelConfig replay = serving_replay_defaults();
};

/// The tokens of one value: a CSV cell, a JSON string, number or boolean,
/// or the elements of a JSON array.
using Tokens = std::span<const std::string_view>;

struct Field {
  std::string_view name;
  FieldRole role;
  FieldKind kind;
  std::int64_t lo;
  std::int64_t hi;
  void (*set)(DecodeState&, const Field&, Tokens);
};

void parse_name(const std::string& s, TreeSource& out) { out = tree_source_from_name(s); }
void parse_name(const std::string& s, core::Strategy& out) { out = core::strategy_from_name(s); }
void parse_name(const std::string& s, parallel::Priority& out) { out = priority_from_name(s); }
void parse_name(const std::string& s, parallel::CostModel& out) { out = cost_model_from_name(s); }
void parse_name(const std::string& s, core::EvictionPolicy& out) {
  out = core::eviction_policy_from_name(s);
}
void parse_name(const std::string& name, core::MemoryModel& out) {
  const std::string s = util::to_lower(name);
  if (s != "max" && s != "maxinout" && s != "sum" && s != "suminout")
    throw std::runtime_error("unknown memory model '" + name + "' (max | sum)");
  out = s[0] == 'm' ? core::MemoryModel::kMaxInOut : core::MemoryModel::kSumInOut;
}

[[noreturn]] void bad_value(const Field& field, std::string_view text, const std::string& why) {
  throw std::runtime_error("field '" + std::string(field.name) + "': '" + std::string(text) +
                           "' " + why);
}

std::int64_t parse_integer(const Field& field, std::string_view text) {
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range) bad_value(field, text, "is beyond the int64 range");
  if (ec != std::errc{} || ptr != end) bad_value(field, text, "is not a decimal integer");
  if (v < field.lo)
    bad_value(field, text,
              field.lo == 1 ? "must be positive" : "must be >= " + std::to_string(field.lo));
  if (v > field.hi) bad_value(field, text, "must be <= " + std::to_string(field.hi));
  return v;
}

double parse_real(const Field& field, std::string_view text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v))
    bad_value(field, text, "is not a finite decimal number");
  if (field.lo == 0 && v < 0) bad_value(field, text, "must be >= 0");
  return v;
}

bool parse_bool(const Field& field, std::string_view text) {
  const std::string s = util::to_lower(std::string(text));
  if (s == "1" || s == "true") return true;
  if (s != "0" && s != "false") bad_value(field, text, "is not a boolean");
  return false;
}

/// Parses a value into its member by the member's type.
template <typename T>
void parse_into(const Field& field, Tokens tokens, T& out) {
  const std::string_view text = tokens.empty() ? std::string_view{} : tokens.front();
  if constexpr (std::is_same_v<T, bool>) {
    out = parse_bool(field, text);
  } else if constexpr (std::is_integral_v<T>) {
    out = static_cast<T>(parse_integer(field, text));
  } else if constexpr (std::is_floating_point_v<T>) {
    out = parse_real(field, text);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = text;
  } else if constexpr (std::is_enum_v<T>) {
    // The name parsers say "unknown <what> 'x' (a | b)"; the field error
    // keeps the list of accepted names.
    try {
      parse_name(std::string(text), out);
    } catch (const std::exception& e) {
      const std::string_view what = e.what();
      const std::size_t list = what.rfind(" (");
      bad_value(field, text,
                "is unknown" + std::string(list == std::string_view::npos ? "" : what.substr(list)));
    }
  } else {
    out.clear();
    out.reserve(tokens.size());
    for (const std::string_view token : tokens)
      out.push_back(static_cast<typename T::value_type>(parse_integer(field, token)));
  }
}

template <typename M> struct MemberOf;
template <typename T, typename C> struct MemberOf<T C::*> { using Type = T; using Class = C; };
template <typename T> struct ElementOf { using Type = T; };
template <typename T> struct ElementOf<std::vector<T>> { using Type = T; };

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// The entry of a field stored in a PlanRequest or replay ParallelConfig
/// member. The kind follows the member's type, and integer bounds are
/// clipped to what the member (or array element) holds, so no value is
/// silently truncated: an int knob past INT_MAX is an error.
template <auto Member>
constexpr Field field(std::string_view name, FieldRole role, std::int64_t lo = kMin,
                      std::int64_t hi = kMax) {
  using T = typename MemberOf<decltype(Member)>::Type;
  using Element = typename ElementOf<T>::Type;
  if constexpr (std::is_integral_v<Element> && sizeof(Element) < sizeof(std::int64_t)) {
    lo = std::max<std::int64_t>(lo, std::numeric_limits<Element>::min());
    hi = std::min<std::int64_t>(hi, std::numeric_limits<Element>::max());
  }
  const FieldKind kind = std::is_same_v<T, bool>                                ? kBool
                         : std::is_integral_v<T>                                ? kInteger
                         : std::is_floating_point_v<T>                          ? kReal
                         : std::is_same_v<T, std::string> || std::is_enum_v<T> ? kName
                                                                                : kArray;
  return {name, role, kind, lo, hi, [](DecodeState& s, const Field& f, Tokens tokens) {
            if constexpr (std::is_same_v<typename MemberOf<decltype(Member)>::Class, PlanRequest>)
              parse_into(f, tokens, s.request.*Member);
            else
              parse_into(f, tokens, s.replay.*Member);
          }};
}

/// The key that enables the replay block; every other kReplay field needs it.
constexpr std::string_view kWorkers = "workers";

using enum FieldRole;
using R = PlanRequest;
using P = parallel::ParallelConfig;

/// Every request field, in the order the unknown-field error lists them.
/// The fingerprints in request.cpp mix these by hand; the role says which
/// keys a field must reach (tests/test_request_fields.cpp checks each).
constexpr Field kFields[] = {
    // Routing only while `seed` is set; with seed 0 it salts the derived stream.
    field<&R::id>("id", kRouting),
    field<&R::tenant>("tenant", kRouting),
    {"source", kTree, kName, 0, 0,
     [](DecodeState& s, const Field& f, Tokens tokens) {
       parse_into(f, tokens, s.request.source);
       s.has_source = true;
     }},
    // Node ids are core::NodeId: a larger tree could not be indexed.
    field<&R::nodes>("nodes", kTree, 1, std::numeric_limits<core::NodeId>::max()),
    field<&R::w_lo>("w_lo", kTree),
    field<&R::w_hi>("w_hi", kTree),
    field<&R::seed>("seed", kTree),
    field<&R::parent>("parent", kTree),
    field<&R::weight>("weight", kTree),
    field<&R::path>("path", kTree),
    field<&R::model>("model", kTree),
    field<&R::memory>("memory", kParams),
    field<&R::memory_lb>("memory_lb", kParams),
    field<&R::strategy>("strategy", kParams),
    field<&P::workers>(kWorkers, kReplay, 0),
    field<&P::priority>("priority", kReplay),
    field<&P::evict>("evict", kReplay),
    field<&P::cost>("cost", kReplay),
    field<&P::backfill_depth>("backfill_depth", kReplay, 0),
    field<&P::residency_aware>("residency", kReplay),
    field<&P::seed>("evict_seed", kReplay),
    field<&R::page_size>("page_size", kReplay, 1),
    field<&R::disk_latency>("disk_latency", kReplay, 0),
    field<&R::disk_bandwidth>("disk_bandwidth", kReplay, 0),
    field<&P::write_queue_depth>("write_queue_depth", kReplay, 0),
    field<&P::prefetch_window>("prefetch_window", kReplay, 0),
};

/// The names of the fields matching `keep`, joined by `separator`.
template <typename Predicate>
std::string join_names(const char* separator, Predicate keep) {
  std::string out;
  for (const Field& field : kFields) {
    if (!keep(field)) continue;
    if (!out.empty()) out += separator;
    out += field.name;
  }
  return out;
}

[[noreturn]] void unknown_field(std::string_view key) {
  throw std::runtime_error("unknown request field '" + std::string(key) + "' (" +
                           join_names(", ", [](const Field&) { return true; }) + ")");
}

const Field& field_named(std::string_view key) {
  for (const Field& field : kFields)
    if (field.name == key) return field;
  unknown_field(key);
}

/// The field a CSV header cell or a command-line option names: the array
/// fields are JSONL-only.
const Field& scalar_field_named(std::string_view key) {
  const Field& field = field_named(key);
  if (field.kind == kArray) unknown_field(key);
  return field;
}

void assign(DecodeState& state, const Field& field, Tokens tokens) {
  field.set(state, field, tokens);
  if (field.role == kReplay && field.name != kWorkers) state.has_replay_field = true;
}

/// Applies inference and the replay block, yielding the final request.
PlanRequest finish(DecodeState&& state) {
  PlanRequest& request = state.request;
  if (!state.has_source) {
    if (!request.path.empty()) {
      request.source = request.path.ends_with(".mtx")     ? TreeSource::kMatrixMarket
                       : request.path.ends_with(".otree") ? TreeSource::kSnapshot
                                                          : TreeSource::kTreeFile;
    } else if (!request.parent.empty()) {
      request.source = TreeSource::kParents;
    } else {
      request.source = TreeSource::kSynth;
    }
  }
  if (request.source != TreeSource::kSynth && request.source != TreeSource::kParents &&
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
        "replay fields (" +
        join_names("/", [](const Field& f) { return f.role == kReplay && f.name != kWorkers; }) +
        ") require '" + std::string(kWorkers) + "' > 0");
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

}  // namespace

std::vector<RequestField> request_fields() {
  std::vector<RequestField> out;
  for (const Field& field : kFields) out.push_back({field.name, field.role});
  return out;
}

PlanRequest request_from_json(const std::string& line, std::int64_t fallback_id) {
  DecodeState state;
  state.request.id = fallback_id;  // an "id" key overrides it
  JsonScanner scanner(line);
  scanner.parse_object([&](const std::string& key, const JsonValue& json) {
    // Indexed by the JSON value's FieldKind (a number scans as kReal).
    static constexpr const char* kSpelled[] = {"", "a number", "a string", "a boolean", "an array"};
    const Field& field = field_named(key);
    if (json.kind != field.kind && !(json.kind == kReal && field.kind == kInteger))
      throw std::runtime_error("field '" + key + "' cannot be " +
                               kSpelled[static_cast<int>(json.kind)]);
    const std::string_view text = json.str;
    assign(state, field, json.kind == kName ? Tokens(&text, 1) : Tokens(json.tokens));
  });
  return finish(std::move(state));
}

PlanRequest request_from_fields(std::span<const FieldText> fields, std::int64_t fallback_id) {
  DecodeState state;
  state.request.id = fallback_id;  // an "id" pair overrides it
  for (const FieldText& pair : fields) {
    const Field& field = scalar_field_named(pair.name);
    if (!pair.text.empty()) assign(state, field, Tokens(&pair.text, 1));
  }
  return finish(std::move(state));
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
      // Validate the header eagerly so a typo fails before row 1.
      for (const std::string& key : header) (void)scalar_field_named(key);
      continue;
    }
    const std::vector<std::string> cells = split_csv_row(line);
    if (cells.size() != header.size())
      throw std::runtime_error("line " + std::to_string(line_number) + ": expected " +
                               std::to_string(header.size()) + " cells, got " +
                               std::to_string(cells.size()));
    try {
      std::vector<FieldText> row(header.size());
      for (std::size_t k = 0; k < header.size(); ++k) row[k] = {header[k], cells[k]};
      requests.push_back(request_from_fields(row, static_cast<std::int64_t>(requests.size()) + 1));
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
