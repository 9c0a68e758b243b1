#include "harness.h"

#include <cstdio>
#include <sstream>

#include "core/simd_node_search.h"
#include "util/thread_pool.h"

namespace cssidx::bench {

volatile uint64_t g_sink = 0;

Options Options::Parse(int argc, char** argv) {
  CliArgs args(argc, argv);
  Options o;
  o.n = static_cast<size_t>(args.GetInt("n", 0));
  o.lookups = static_cast<size_t>(args.GetInt("lookups", 100'000));
  o.repeats = static_cast<int>(args.GetInt("repeats", 3));
  o.quick = args.GetBool("quick", false);
  o.full = args.GetBool("full", false);
  o.seed = static_cast<uint64_t>(args.GetInt("seed", 17));
  return o;
}

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

void Table::AddRow(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

std::string Table::Bytes(double bytes) {
  char buf[64];
  if (bytes >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", bytes / 1e6);
  } else if (bytes >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", bytes / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

std::string Table::Fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string Table::Quote(const std::string& text) {
  return "\"" + text + "\"";
}

void Table::Print(const std::string& title) const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      if (row[c].size() > widths[c]) widths[c] = row[c].size();
    }
  }
  std::printf("\n== %s ==\n", title.c_str());
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%-*s  ", static_cast<int>(widths[c]), columns_[c].c_str());
  }
  std::printf("\n");
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%s  ", std::string(widths[c], '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  }
  // CSV block for plotting.
  std::ostringstream csv;
  csv << "csv,";
  for (size_t c = 0; c < columns_.size(); ++c) {
    csv << columns_[c] << (c + 1 < columns_.size() ? "," : "\n");
  }
  for (const auto& row : rows_) {
    csv << "csv,";
    for (size_t c = 0; c < row.size(); ++c) {
      csv << row[c] << (c + 1 < row.size() ? "," : "\n");
    }
  }
  std::printf("%s", csv.str().c_str());
  std::fflush(stdout);
}

JsonReport::JsonReport(const std::string& bench) {
  Param("bench", Table::Quote(bench));
}

void JsonReport::Param(const std::string& name, const std::string& value) {
  header_.emplace_back(name, value);
}

void JsonReport::Block(const std::string& name, Table rows) {
  blocks_.emplace_back(name, std::move(rows));
}

bool JsonReport::Write(const std::string& path) const {
  std::FILE* json = std::fopen(path.c_str(), "w");
  if (json == nullptr) {
    std::printf("cannot write %s\n", path.c_str());
    return false;
  }
  auto header = header_;
  header.emplace_back("hardware_threads",
                      std::to_string(ThreadPool::HardwareThreads()));
  header.emplace_back(
      "node_search_path",
      Table::Quote(NodeSearchPathName(DetectedNodeSearchPath())));
  std::fprintf(json, "{");
  const char* sep = "\n";
  for (const auto& [name, value] : header) {
    std::fprintf(json, "%s  \"%s\": %s", sep, name.c_str(), value.c_str());
    sep = ",\n";
  }
  for (const auto& [name, rows] : blocks_) {
    std::fprintf(json, "%s  \"%s\": [", sep, name.c_str());
    const char* row_sep = "\n";
    for (const auto& row : rows.rows()) {
      std::fprintf(json, "%s    {", row_sep);
      for (size_t c = 0; c < row.size(); ++c) {
        std::fprintf(json, "%s\"%s\": %s", c == 0 ? "" : ", ",
                     rows.columns()[c].c_str(), row[c].c_str());
      }
      std::fprintf(json, "}");
      row_sep = ",\n";
    }
    std::fprintf(json, "\n  ]");
  }
  std::fprintf(json, "\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

void PrintHeader(const std::string& figure, const std::string& description,
                 const Options& options) {
  std::printf("######################################################\n");
  std::printf("# %s\n# %s\n", figure.c_str(), description.c_str());
  std::printf("# lookups=%zu repeats=%d%s%s\n", options.lookups,
              options.repeats, options.quick ? " (quick)" : "",
              options.full ? " (full paper scale)" : "");
  std::printf("######################################################\n");
  std::fflush(stdout);
}

}  // namespace cssidx::bench
