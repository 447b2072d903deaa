#include "graph/io.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/text.hpp"

namespace qaoa::graph {

Graph
readEdgeList(std::istream &in)
{
    std::string line;
    int num_nodes = -1;
    Graph g;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments and whitespace-only lines.
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream fields(line);
        std::string a, b, c, extra;
        if (!(fields >> a))
            continue; // blank or comment-only line
        fields >> b >> c >> extra;
        // Every field must parse as a whole token (common/text.hpp):
        // "0 1x" is an error, not an edge 0-1 of weight 1.
        if (num_nodes < 0) {
            const StatusOr<int> header = text::parseInt(a, 0);
            QAOA_CHECK(header.ok() && b.empty(),
                       "line " << line_no
                               << ": expected node-count header");
            num_nodes = header.value();
            g = Graph(num_nodes);
            continue;
        }
        const StatusOr<int> u = text::parseInt(a);
        const StatusOr<int> v = text::parseInt(b);
        const StatusOr<double> w =
            c.empty() ? StatusOr<double>(1.0) : text::parseDouble(c);
        QAOA_CHECK(u.ok() && v.ok() && w.ok() && extra.empty(),
                   "line " << line_no << ": expected '<u> <v> [weight]'");
        g.addEdge(u.value(), v.value(), w.value());
    }
    QAOA_CHECK(num_nodes >= 0, "edge list missing node-count header");
    return g;
}

Graph
parseEdgeList(const std::string &text)
{
    std::istringstream in(text);
    return readEdgeList(in);
}

std::string
writeEdgeList(const Graph &g)
{
    std::ostringstream os;
    // max_digits10 so a write/parse round trip preserves weights
    // bit-for-bit (default precision drops digits past the 6th).
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "# qaoa-compiler edge list: <num_nodes> then <u> <v> [weight]\n";
    os << g.numNodes() << "\n";
    for (const Edge &e : g.edges()) {
        os << e.u << " " << e.v;
        if (e.weight != 1.0)
            os << " " << e.weight;
        os << "\n";
    }
    return os.str();
}

Graph
loadGraphFile(const std::string &path)
{
    std::ifstream in(path);
    QAOA_CHECK(in.good(), "cannot open graph file: " << path);
    return readEdgeList(in);
}

void
saveGraphFile(const Graph &g, const std::string &path)
{
    // User-requested export to a path the caller owns, not service
    // state — torn output on crash is acceptable. qs-allow(QS002)
    std::ofstream out(path);
    QAOA_CHECK(out.good(), "cannot write graph file: " << path);
    out << writeEdgeList(g);
    QAOA_CHECK(out.good(), "write failed: " << path);
}

} // namespace qaoa::graph
