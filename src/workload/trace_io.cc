#include "workload/trace_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <vector>

#include "support/error.h"
#include "support/text.h"

namespace drsm::workload {

using fsm::OpKind;

namespace {

char op_code(OpKind op) {
  switch (op) {
    case OpKind::kRead: return 'r';
    case OpKind::kWrite: return 'w';
    case OpKind::kEject: return 'e';
    case OpKind::kSync: return 's';
  }
  return '?';
}

OpKind op_from_code(char code) {
  switch (code) {
    case 'r': return OpKind::kRead;
    case 'w': return OpKind::kWrite;
    case 'e': return OpKind::kEject;
    case 's': return OpKind::kSync;
    default:
      throw Error(strfmt("trace: unknown operation code '%c'", code));
  }
}

/// `token` as a whole unsigned decimal number that fits T: no sign, no
/// trailing characters, no wrap-around.
template <typename T>
T parse_number(const std::string& token, const char* what,
               std::size_t line_no) {
  T value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end)
    throw Error(strfmt("trace: bad %s '%s' at line %zu", what, token.c_str(),
                       line_no));
  return value;
}

}  // namespace

void save_trace(std::ostream& out, const OperationTrace& trace) {
  out << "drsm-trace v1\n";
  out << "clients " << trace.num_clients << "\n";
  out << "objects " << trace.num_objects << "\n";
  for (const TraceEntry& e : trace.entries)
    out << e.node << ' ' << e.object << ' ' << op_code(e.op) << '\n';
}

void save_trace_file(const std::string& path, const OperationTrace& trace) {
  std::ofstream out(path);
  DRSM_CHECK(out.good(), "cannot open trace file for writing: " + path);
  save_trace(out, trace);
  DRSM_CHECK(out.good(), "error while writing trace file: " + path);
}

OperationTrace load_trace(std::istream& in) {
  std::string line;
  DRSM_CHECK(std::getline(in, line) && line == "drsm-trace v1",
             "trace: missing or unsupported header");
  OperationTrace trace;
  bool have_clients = false, have_objects = false;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields;
    std::istringstream split(line);
    for (std::string field; split >> field;) fields.push_back(field);
    if (!fields.empty() && fields[0] == "clients") {
      DRSM_CHECK(fields.size() == 2,
                 strfmt("trace: bad clients line %zu", line_no));
      trace.num_clients =
          parse_number<NodeId>(fields[1], "clients count", line_no);
      have_clients = true;
      continue;
    }
    if (!fields.empty() && fields[0] == "objects") {
      DRSM_CHECK(fields.size() == 2,
                 strfmt("trace: bad objects line %zu", line_no));
      trace.num_objects =
          parse_number<ObjectId>(fields[1], "objects count", line_no);
      have_objects = true;
      continue;
    }
    DRSM_CHECK(have_clients && have_objects,
               "trace: records before the clients/objects preamble");
    DRSM_CHECK(fields.size() == 3 && fields[2].size() == 1,
               strfmt("trace: malformed record at line %zu", line_no));
    TraceEntry entry;
    entry.node = parse_number<NodeId>(fields[0], "node", line_no);
    entry.object = parse_number<ObjectId>(fields[1], "object", line_no);
    entry.op = op_from_code(fields[2][0]);
    DRSM_CHECK(entry.node <= trace.num_clients,
               strfmt("trace: node out of range at line %zu", line_no));
    DRSM_CHECK(entry.object < trace.num_objects,
               strfmt("trace: object out of range at line %zu", line_no));
    trace.entries.push_back(entry);
  }
  DRSM_CHECK(have_clients && have_objects, "trace: incomplete preamble");
  return trace;
}

OperationTrace load_trace_file(const std::string& path) {
  std::ifstream in(path);
  DRSM_CHECK(in.good(), "cannot open trace file: " + path);
  return load_trace(in);
}

}  // namespace drsm::workload
