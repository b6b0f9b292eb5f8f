//===- harness/TableRenderer.cpp - Fixed-width table output ----------------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "harness/TableRenderer.h"

#include "support/StringUtils.h"

#include <cstdio>
#include <stdexcept>

using namespace khaos;

TableRenderer::TableRenderer(std::vector<std::string> Headers)
    : Headers(std::move(Headers)) {}

void TableRenderer::addRow(std::vector<std::string> Cells) {
  if (Cells.size() > Headers.size())
    throw std::logic_error(formatStr(
        "TableRenderer: row of %zu cells under %zu headers", Cells.size(),
        Headers.size()));
  Rows.push_back(std::move(Cells));
}

std::string TableRenderer::render() const {
  std::vector<size_t> Widths(Headers.size(), 0);
  for (size_t C = 0; C != Headers.size(); ++C)
    Widths[C] = Headers[C].size();
  for (const auto &Row : Rows)
    for (size_t C = 0; C != Row.size(); ++C)
      Widths[C] = std::max(Widths[C], Row[C].size());

  auto RenderRow = [&](const std::vector<std::string> &Cells) {
    std::string Line = "|";
    for (size_t C = 0; C != Widths.size(); ++C) {
      std::string Cell = C < Cells.size() ? Cells[C] : "";
      Line += " " + Cell + std::string(Widths[C] - Cell.size(), ' ') + " |";
    }
    return Line + "\n";
  };

  std::string Out = RenderRow(Headers);
  std::string Sep = "|";
  for (size_t C = 0; C != Widths.size(); ++C)
    Sep += std::string(Widths[C] + 2, '-') + "|";
  Out += Sep + "\n";
  for (const auto &Row : Rows)
    Out += RenderRow(Row);
  return Out;
}

void TableRenderer::print() const {
  std::fputs(render().c_str(), stdout);
}

std::string TableRenderer::fmtPercent(double V) {
  return formatStr("%.1f%%", V);
}

std::string TableRenderer::fmtRatio(double V) {
  return formatStr("%.3f", V);
}
