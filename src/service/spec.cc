#include "service/spec.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "common/string_util.h"
#include "constraints/parser.h"
#include "datagen/running_example.h"

namespace dbim {

namespace {

// Parses "relation Name(Attr1, Attr2, ...)".
bool ParseRelationLine(const std::string& line, std::shared_ptr<Schema>* out,
                       RelationId* relation, std::string* error) {
  const size_t open = line.find('(');
  const size_t close = line.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    *error = "malformed relation declaration: " + line;
    return false;
  }
  const std::string name(
      Trim(line.substr(strlen("relation"), open - strlen("relation"))));
  std::vector<std::string> attributes;
  for (const std::string& piece :
       Split(line.substr(open + 1, close - open - 1), ',')) {
    attributes.emplace_back(Trim(piece));
  }
  if (name.empty() || attributes.empty()) {
    *error = "relation needs a name and attributes: " + line;
    return false;
  }
  *out = std::make_shared<Schema>();
  *relation = (*out)->AddRelation(name, attributes);
  return true;
}

}  // namespace

bool ParseSpecText(const std::string& text, ServiceSpec* spec,
                   std::string* error) {
  std::istringstream in(text);
  std::shared_ptr<Schema> schema;
  std::string line;
  size_t line_number = 0;
  spec->constraints.clear();
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed(Trim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (StartsWith(trimmed, "relation")) {
      if (!ParseRelationLine(trimmed, &schema, &spec->relation, error)) {
        return false;
      }
      continue;
    }
    if (schema == nullptr) {
      *error = StrFormat("line %zu: constraint before relation declaration",
                         line_number);
      return false;
    }
    std::string parse_error;
    auto dc = ParseDc(*schema, spec->relation, trimmed, &parse_error);
    if (!dc) {
      *error = StrFormat("line %zu: %s", line_number, parse_error.c_str());
      return false;
    }
    spec->constraints.push_back(std::move(*dc));
  }
  if (schema == nullptr) {
    *error = "spec has no relation declaration";
    return false;
  }
  if (spec->constraints.empty()) {
    *error = "spec has no constraints";
    return false;
  }
  spec->schema = schema;
  return true;
}

bool LoadSpecFile(const std::string& path, ServiceSpec* spec,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open spec file " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseSpecText(text.str(), spec, error);
}

ServiceSpec ExampleSpec() {
  RunningExample example = MakeRunningExample();
  ServiceSpec spec;
  spec.schema = example.schema;
  spec.relation = example.relation;
  spec.constraints = std::move(example.dcs);
  return spec;
}

std::optional<std::string> FlagValue(int argc, char** argv,
                                     const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (StartsWith(argv[i], prefix)) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return std::nullopt;
}

bool HasFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

bool UintFlag(int argc, char** argv, const char* name, uint64_t min,
              uint64_t max, uint64_t* out, std::string* error) {
  const std::optional<std::string> value = FlagValue(argc, argv, name);
  if (!value) return true;
  uint64_t parsed = 0;
  std::string parse_error;
  if (!ParseUint64(*value, max, &parsed, &parse_error) || parsed < min) {
    *error = StrFormat("--%s=%s: expected an integer >= %llu", name,
                       value->c_str(), static_cast<unsigned long long>(min));
    if (max != std::numeric_limits<uint64_t>::max()) {
      *error += StrFormat(" and <= %llu", static_cast<unsigned long long>(max));
    }
    return false;
  }
  *out = parsed;
  return true;
}

bool SessionOptionsFromFlags(int argc, char** argv, SessionOptions* options,
                             std::string* error) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  *options = SessionOptions();
  uint64_t threads = options->detector.num_threads;
  if (!UintFlag(argc, argv, "threads", 0, kMax, &threads, error)) return false;
  options->WithThreads(threads)
      .WithIncludeMC(HasFlag(argc, argv, "mc"))
      .WithParallelMeasures(HasFlag(argc, argv, "parallel-measures"));
  for (const std::string& name :
       Split(FlagValue(argc, argv, "measures").value_or(""), ',')) {
    if (!name.empty()) options->WithMeasure(name);
  }
  if (const auto window = FlagValue(argc, argv, "window")) {
    // "count:N" or "ticks:N".
    const std::vector<std::string> parts = Split(*window, ':');
    uint64_t size = 0;
    std::string parse_error;
    if (parts.size() != 2 || (parts[0] != "count" && parts[0] != "ticks") ||
        !ParseUint64(parts[1], kMax, &size, &parse_error)) {
      *error = "--window=" + *window + ": expected count:N or ticks:N";
      return false;
    }
    options->WithWindow(parts[0] == "count" ? WindowSpec::Kind::kCount
                                            : WindowSpec::Kind::kTicks,
                        size);
  }
  if (const auto approx = FlagValue(argc, argv, "approx")) {
    double eps = 0.0;
    std::string parse_error;
    if (!ParseDouble(*approx, &eps, &parse_error) || !(eps > 0.0) ||
        eps > 1.0) {
      *error = "--approx=" + *approx + ": expected a number in (0, 1]";
      return false;
    }
    options->WithApprox(eps);
  }
  return true;
}

}  // namespace dbim
