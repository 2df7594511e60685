#include "algebra/result_io.h"

#include <algorithm>
#include <set>

namespace rdfql {
namespace {

std::vector<VarId> SortedColumns(const MappingSet& result,
                                 const Dictionary& dict) {
  std::set<VarId> vars;
  for (const Mapping& m : result) {
    for (const auto& [v, t] : m.bindings()) vars.insert(v);
  }
  std::vector<VarId> columns(vars.begin(), vars.end());
  std::sort(columns.begin(), columns.end(), [&dict](VarId a, VarId b) {
    return dict.VarName(a) < dict.VarName(b);
  });
  return columns;
}

// The rows in sorted order, as pointers into `result` (no row is copied).
std::vector<const Mapping*> SortedRows(const MappingSet& result) {
  std::vector<const Mapping*> rows;
  rows.reserve(result.size());
  for (const Mapping& m : result) rows.push_back(&m);
  std::sort(rows.begin(), rows.end(),
            [](const Mapping* a, const Mapping* b) { return *a < *b; });
  return rows;
}

void AppendCsv(const std::string& value, std::string* out) {
  if (value.find_first_of(",\"\n\r") == std::string::npos) {
    *out += value;
    return;
  }
  out->push_back('"');
  for (char c : value) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

// Appends `value` JSON-escaped; runs that need no escape are copied whole.
void AppendJsonEscaped(const std::string& value, std::string* out) {
  size_t run = 0;
  for (size_t i = 0; i < value.size(); ++i) {
    const char c = value[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out->append(value, run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        *out += buf;
      }
    }
  }
  out->append(value, run, std::string::npos);
}

}  // namespace

std::string WriteCsv(const MappingSet& result, const Dictionary& dict) {
  std::vector<VarId> columns = SortedColumns(result, dict);
  std::string out;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += ',';
    AppendCsv(dict.VarName(columns[c]), &out);
  }
  out += '\n';
  for (const Mapping* m : SortedRows(result)) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out += ',';
      std::optional<TermId> t = m->Get(columns[c]);
      if (t.has_value()) AppendCsv(dict.IriName(*t), &out);
    }
    out += '\n';
  }
  return out;
}

std::string WriteResultsJson(const MappingSet& result,
                             const Dictionary& dict) {
  std::vector<VarId> columns = SortedColumns(result, dict);
  std::string out = "{\"head\":{\"vars\":[";
  // Each cell opens with `"name":{"type":"iri","value":"`; escape every
  // column's name once, indexed by VarId so cells find it by a merge walk.
  std::vector<std::pair<VarId, std::string>> cell_open;
  cell_open.reserve(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += ',';
    std::string name;
    AppendJsonEscaped(dict.VarName(columns[c]), &name);
    out += '"';
    out += name;
    out += '"';
    cell_open.emplace_back(
        columns[c], '"' + name + "\":{\"type\":\"iri\",\"value\":\"");
  }
  std::sort(cell_open.begin(), cell_open.end());
  out += "]},\"results\":{\"bindings\":[";
  bool first_row = true;
  for (const Mapping* m : SortedRows(result)) {
    if (!first_row) out += ',';
    first_row = false;
    out += '{';
    bool first_cell = true;
    size_t k = 0;
    for (const auto& [v, t] : m->bindings()) {
      if (!first_cell) out += ',';
      first_cell = false;
      while (cell_open[k].first < v) ++k;
      out += cell_open[k].second;
      AppendJsonEscaped(dict.IriName(t), &out);
      out += "\"}";
    }
    out += '}';
  }
  out += "]}}";
  return out;
}

}  // namespace rdfql
