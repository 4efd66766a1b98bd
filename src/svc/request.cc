#include "svc/request.h"

#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>

#include "graph/graph.h"
#include "graph/io.h"
#include "obs/json.h"

namespace qplex::svc {
namespace {

Status FieldError(const std::string& field, const std::string& problem,
                  int line_number) {
  return Status::InvalidArgument(field + " " + problem + " at line " +
                                 std::to_string(line_number));
}

/// Names the request line on an error from a callee, keeping its code.
Status AtLine(const Status& status, int line_number) {
  return Status(status.code(),
                status.message() + " at line " + std::to_string(line_number));
}

Result<Graph> AtLine(Result<Graph> graph, int line_number) {
  if (!graph.ok()) {
    return AtLine(graph.status(), line_number);
  }
  return graph;
}

/// Reads an integer field that must lie in [0, max]: the range check every
/// narrowing cast below relies on, so an out-of-range value is rejected
/// instead of silently wrapping into a different question.
Result<std::int64_t> NonNegativeInt(
    const obs::JsonValue& value, const std::string& field, int line_number,
    std::int64_t max = std::numeric_limits<int>::max()) {
  if (!value.is_int()) {
    return FieldError(field, "must be an integer", line_number);
  }
  if (value.AsInt() < 0 || value.AsInt() > max) {
    return FieldError(field, "must be in [0, " + std::to_string(max) + "]",
                      line_number);
  }
  return value.AsInt();
}

Result<std::string> StringField(const obs::JsonValue& value,
                                const std::string& field, int line_number) {
  if (!value.is_string()) {
    return FieldError(field, "must be a string", line_number);
  }
  return value.AsString();
}

Result<Graph> ParseInlineGraph(const obs::JsonValue& spec, int line_number) {
  const obs::JsonValue* n = spec.Find("n");
  if (n == nullptr) {
    return FieldError("graph.n", "missing", line_number);
  }
  QPLEX_ASSIGN_OR_RETURN(const std::int64_t num_vertices,
                         NonNegativeInt(*n, "graph.n", line_number));
  std::vector<std::pair<Vertex, Vertex>> edges;
  if (const obs::JsonValue* list = spec.Find("edges"); list != nullptr) {
    if (!list->is_array()) {
      return FieldError("graph.edges", "must be an array", line_number);
    }
    for (std::size_t i = 0; i < list->size(); ++i) {
      const obs::JsonValue& edge = list->at(i);
      const std::string field = "graph.edges[" + std::to_string(i) + "]";
      if (!edge.is_array() || edge.size() != 2) {
        return FieldError(field, "must be [u, v]", line_number);
      }
      QPLEX_ASSIGN_OR_RETURN(const std::int64_t u,
                             NonNegativeInt(edge.at(0), field, line_number));
      QPLEX_ASSIGN_OR_RETURN(const std::int64_t v,
                             NonNegativeInt(edge.at(1), field, line_number));
      edges.emplace_back(static_cast<Vertex>(u), static_cast<Vertex>(v));
    }
  }
  return AtLine(MakeGraph(static_cast<int>(num_vertices), edges), line_number);
}

Result<Graph> LoadRequestGraph(const obs::JsonValue& line, int line_number,
                               bool allow_file_input) {
  if (const obs::JsonValue* inline_graph = line.Find("graph");
      inline_graph != nullptr) {
    return ParseInlineGraph(*inline_graph, line_number);
  }
  const obs::JsonValue* input = line.Find("input");
  if (input == nullptr || !input->is_string()) {
    return Status::InvalidArgument(
        "request needs \"graph\" or \"input\" at line " +
        std::to_string(line_number));
  }
  if (!allow_file_input) {
    return FieldError("input", "is not accepted here; send the graph inline",
                      line_number);
  }
  std::string format = "dimacs";
  if (const obs::JsonValue* f = line.Find("format"); f != nullptr) {
    QPLEX_ASSIGN_OR_RETURN(format, StringField(*f, "format", line_number));
  }
  const Result<GraphParser> parse = GraphFormatParser(format);
  if (!parse.ok()) {
    return AtLine(parse.status(), line_number);
  }
  return AtLine(LoadGraphFile(input->AsString(), parse.value()), line_number);
}

}  // namespace

bool IsBlankOrComment(const std::string& line) {
  const auto first = line.find_first_not_of(" \t\r");
  return first == std::string::npos || line[first] == '#';
}

Result<RequestSpec> ParseRequestLine(const std::string& text, int line_number,
                                     bool allow_file_input) {
  QPLEX_ASSIGN_OR_RETURN(obs::JsonValue line, obs::JsonValue::Parse(text));
  if (!line.is_object()) {
    return FieldError("request", "must be a JSON object", line_number);
  }
  RequestSpec spec;
  spec.request.label = "line-" + std::to_string(line_number);
  if (const obs::JsonValue* id = line.Find("id"); id != nullptr) {
    if (!id->is_string() && !id->is_int()) {
      return FieldError("id", "must be a string or integer", line_number);
    }
    spec.request.label =
        id->is_string() ? id->AsString() : std::to_string(id->AsInt());
  }
  if (const obs::JsonValue* type = line.Find("type"); type != nullptr) {
    QPLEX_ASSIGN_OR_RETURN(const std::string name,
                           StringField(*type, "type", line_number));
    if (name == "health") {
      // Health probes carry no instance; everything else on the line is
      // ignored so clients can tag them freely.
      spec.kind = RequestKind::kHealth;
      return spec;
    }
    if (name != "solve") {
      return Status::InvalidArgument("unknown request type '" + name +
                                     "' at line " +
                                     std::to_string(line_number));
    }
  }
  QPLEX_ASSIGN_OR_RETURN(
      spec.request.graph,
      LoadRequestGraph(line, line_number, allow_file_input));
  if (const obs::JsonValue* k = line.Find("k"); k != nullptr) {
    QPLEX_ASSIGN_OR_RETURN(spec.request.k,
                           NonNegativeInt(*k, "k", line_number));
  }
  if (const obs::JsonValue* seed = line.Find("seed"); seed != nullptr) {
    QPLEX_ASSIGN_OR_RETURN(
        spec.request.seed,
        NonNegativeInt(*seed, "seed", line_number,
                       std::numeric_limits<std::int64_t>::max()));
  }
  if (const obs::JsonValue* deadline = line.Find("deadline_ms");
      deadline != nullptr) {
    if (!deadline->is_number()) {
      return FieldError("deadline_ms", "must be a number", line_number);
    }
    spec.request.deadline_seconds = deadline->AsDouble() / 1e3;
  }
  if (const obs::JsonValue* backend = line.Find("backend");
      backend != nullptr) {
    QPLEX_ASSIGN_OR_RETURN(spec.request.backend,
                           StringField(*backend, "backend", line_number));
  }
  if (const obs::JsonValue* backends = line.Find("backends");
      backends != nullptr) {
    if (!backends->is_array() || backends->size() == 0) {
      return FieldError("backends", "must be a non-empty array", line_number);
    }
    for (std::size_t i = 0; i < backends->size(); ++i) {
      QPLEX_ASSIGN_OR_RETURN(
          std::string name,
          StringField(backends->at(i), "backends[" + std::to_string(i) + "]",
                      line_number));
      spec.backends.push_back(std::move(name));
    }
  }
  if (const obs::JsonValue* options = line.Find("options");
      options != nullptr) {
    if (!options->is_object()) {
      return FieldError("options", "must be an object", line_number);
    }
    for (const auto& [key, value] : options->members()) {
      if (value.is_string()) {
        spec.request.options[key] = value.AsString();
      } else if (value.is_int()) {
        spec.request.options[key] = std::to_string(value.AsInt());
      } else if (value.is_number()) {
        std::ostringstream formatted;
        formatted << value.AsDouble();
        spec.request.options[key] = formatted.str();
      } else {
        return Status::InvalidArgument("option '" + key +
                                       "' must be a string or number at line " +
                                       std::to_string(line_number));
      }
    }
  }
  return spec;
}

std::string MembersToString(const VertexList& members) {
  std::string joined;
  for (Vertex v : members) {
    if (!joined.empty()) {
      joined += " ";
    }
    joined += std::to_string(v);
  }
  return joined;
}

std::string RenderResponseLine(const std::string& label,
                               const SolveResponse& response) {
  obs::JsonValue line = obs::JsonValue::Object();
  line.Set("label", label);
  line.Set("status", std::string(StatusCodeName(response.status.code())));
  line.Set("backend", response.backend);
  line.Set("size", response.solution.size);
  line.Set("members", MembersToString(response.solution.members));
  line.Set("provably_optimal", response.provably_optimal);
  line.Set("attempts", response.attempts);
  line.Set("degraded_from", response.degraded_from);
  line.Set("degradation_reason", response.degradation_reason);
  return line.Dump();
}

}  // namespace qplex::svc
