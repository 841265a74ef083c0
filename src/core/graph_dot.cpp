#include "core/graph_dot.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace remos::core {

namespace {

/// DOT identifiers: quote everything, escape embedded quotes.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string to_dot(const NetworkGraph& graph, const std::string& title) {
  std::ostringstream os;
  os << "graph " << quoted(title) << " {\n";
  os << "  layout=neato; overlap=false; splines=true;\n";
  for (const auto& [name, node] : graph.nodes()) {
    os << "  " << quoted(name) << " [shape="
       << (node.is_compute ? "box" : "ellipse");
    if (node.has_host_info && node.cpu_load > 0)
      os << ", label=" << quoted(name + "\\ncpu " +
                                 fixed(node.cpu_load * 100, 0) + "%");
    os << "];\n";
  }
  for (const GraphLink& l : graph.links()) {
    std::string label = fixed(to_mbps(l.capacity.quartiles.median), 0) + "M";
    if (l.used_ab.known() || l.used_ba.known()) {
      const double worst = std::max(l.used_ab.quartiles.median,
                                    l.used_ba.quartiles.median);
      if (worst > 0)
        label += concat(" (", fixed(to_mbps(worst), 0), "M used)");
    }
    label += concat(" ", fixed(l.latency.quartiles.median * 1e3, 1), "ms");
    if (l.sharing != SharingPolicy::kUnknown)
      label += concat(" ", remos::to_string(l.sharing));
    os << "  " << quoted(l.a) << " -- " << quoted(l.b) << " [label="
       << quoted(label);
    if (!l.abstracts.empty()) os << ", style=dashed";
    os << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace remos::core
