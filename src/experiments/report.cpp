#include "experiments/report.hpp"

#include <ostream>

#include "support/csv.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace treeplace {
namespace {

std::vector<std::string> headerWith(std::initializer_list<const char*> extra) {
  std::vector<std::string> header{"lambda"};
  for (const auto& name : seriesNames()) header.push_back(name);
  for (const char* e : extra) header.emplace_back(e);
  return header;
}

}  // namespace

std::string renderSuccessTable(const ExperimentResult& result) {
  TextTable table;
  table.setHeader(headerWith({"LP"}));
  for (const LambdaAggregate& agg : result.perLambda) {
    std::vector<std::string> row{formatDouble(agg.lambda, 1)};
    for (std::size_t k = 0; k < kSeriesCount; ++k) {
      row.push_back(formatPercent(
          agg.trees > 0 ? static_cast<double>(agg.successCount[k]) / agg.trees : 0.0));
    }
    row.push_back(formatPercent(
        agg.trees > 0 ? static_cast<double>(agg.lpFeasibleCount) / agg.trees : 0.0));
    table.addRow(std::move(row));
  }
  return table.render();
}

std::string renderRelativeCostTable(const ExperimentResult& result) {
  TextTable table;
  table.setHeader(headerWith({}));
  for (const LambdaAggregate& agg : result.perLambda) {
    std::vector<std::string> row{formatDouble(agg.lambda, 1)};
    for (std::size_t k = 0; k < kSeriesCount; ++k) {
      // No LP-feasible tree at this lambda: the mean is undefined, not zero.
      row.push_back(agg.lpFeasibleCount > 0 ? formatDouble(agg.relativeCost[k], 3)
                                            : "-");
    }
    table.addRow(std::move(row));
  }
  return table.render();
}

std::string renderMixedBestWinners(const ExperimentResult& result) {
  TextTable table;
  table.setHeader({"lambda", "winners (heuristic x trees)"});
  for (const LambdaAggregate& agg : result.perLambda) {
    std::string cell;
    for (const auto& [name, count] : agg.mbWinners) {
      if (!cell.empty()) cell += "  ";
      cell += name + "x" + std::to_string(count);
    }
    table.addRow({formatDouble(agg.lambda, 1), cell.empty() ? "-" : cell});
  }
  return table.render(TextTable::Align::Left);
}

void writeCsv(std::ostream& out, const ExperimentResult& result) {
  CsvWriter csv(out);
  std::vector<std::string> header{"kind", "lambda"};
  for (const auto& name : seriesNames()) header.push_back(name);
  header.emplace_back("LP");
  csv.writeRow(header);
  for (const LambdaAggregate& agg : result.perLambda) {
    std::vector<std::string> row{"success", CsvWriter::toCell(agg.lambda)};
    for (std::size_t k = 0; k < kSeriesCount; ++k)
      row.push_back(CsvWriter::toCell(
          agg.trees > 0 ? static_cast<double>(agg.successCount[k]) / agg.trees : 0.0));
    row.push_back(CsvWriter::toCell(
        agg.trees > 0 ? static_cast<double>(agg.lpFeasibleCount) / agg.trees : 0.0));
    csv.writeRow(row);
  }
  for (const LambdaAggregate& agg : result.perLambda) {
    std::vector<std::string> row{"rcost", CsvWriter::toCell(agg.lambda)};
    for (std::size_t k = 0; k < kSeriesCount; ++k)
      row.push_back(CsvWriter::toCell(agg.relativeCost[k]));
    row.emplace_back("");
    csv.writeRow(row);
  }
}

void writeJson(std::ostream& out, const ExperimentResult& result) {
  const auto names = seriesNames();
  JsonWriter json(out);
  json.beginObject();
  json.key("series").beginArray();
  for (const auto& name : names) json.value(name);
  json.endArray();
  json.key("per_lambda").beginArray();
  for (const LambdaAggregate& agg : result.perLambda) {
    json.beginObject();
    json.key("lambda").value(agg.lambda);
    json.key("trees").value(agg.trees);
    json.key("lp_feasible").value(agg.lpFeasibleCount);
    json.key("success").beginArray();
    for (std::size_t k = 0; k < kSeriesCount; ++k)
      json.value(agg.trees > 0
                     ? static_cast<double>(agg.successCount[k]) / agg.trees
                     : 0.0);
    json.endArray();
    json.key("relative_cost").beginArray();
    for (std::size_t k = 0; k < kSeriesCount; ++k) {
      if (agg.lpFeasibleCount > 0)
        json.value(agg.relativeCost[k]);
      else
        json.null();
    }
    json.endArray();
    json.endObject();
  }
  json.endArray();
  json.endObject();
  out << '\n';
}

}  // namespace treeplace
