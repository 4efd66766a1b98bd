#ifndef QPLEX_GRAPH_IO_H_
#define QPLEX_GRAPH_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/status.h"
#include "graph/graph.h"

namespace qplex {

/// Parses a plain edge-list document:
///   # comment lines start with '#'
///   <num_vertices>
///   <u> <v>        (one edge per line, 0-based)
Result<Graph> ParseEdgeList(const std::string& text);

/// Serializes in the edge-list format accepted by ParseEdgeList.
std::string WriteEdgeList(const Graph& graph);

/// Parses the DIMACS clique benchmark format:
///   c <comment>
///   p edge <n> <m>
///   e <u> <v>      (1-based)
Result<Graph> ParseDimacs(const std::string& text);

/// Serializes in DIMACS `p edge` format (1-based endpoints).
std::string WriteDimacs(const Graph& graph);

/// A text parser for one graph file format.
using GraphParser = Result<Graph> (*)(const std::string& text);

/// The parser for a format name: "dimacs" or "edgelist". Any other name is
/// an InvalidArgument, so a mistyped format never picks a parser silently.
Result<GraphParser> GraphFormatParser(std::string_view format);

/// Reads a whole file and parses it with `parse`.
Result<Graph> LoadGraphFile(const std::string& path, GraphParser parse);

}  // namespace qplex

#endif  // QPLEX_GRAPH_IO_H_
