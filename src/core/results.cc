#include "core/results.hh"

#include <cstdio>

#include "base/csv.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "base/table.hh"

namespace cosim {

FigureData::FigureData(std::string figure_id, std::string x_label,
                       std::vector<std::string> x_ticks)
    : figureId_(std::move(figure_id)), xLabel_(std::move(x_label)),
      xTicks_(std::move(x_ticks))
{
    fatal_if(xTicks_.empty(), "%s: figure needs a non-empty x axis",
             figureId_.c_str());
}

void
FigureData::addSeries(const std::string& workload,
                      const std::vector<double>& values,
                      std::vector<SweepPoint> points)
{
    fatal_if(values.size() != xTicks_.size(),
             "%s: series '%s' has %zu values for %zu ticks",
             figureId_.c_str(), workload.c_str(), values.size(),
             xTicks_.size());
    if (series_.find(workload) == series_.end())
        names_.push_back(workload);
    series_[workload] = values;
    points_[workload] = std::move(points);
    if (status_.find(workload) == status_.end())
        status_[workload] = "ok";
}

void
FigureData::addFailedSeries(const std::string& workload)
{
    if (series_.find(workload) == series_.end())
        names_.push_back(workload);
    series_[workload] = {};
    points_[workload] = {};
    status_[workload] = "failed";
}

const std::string&
FigureData::status(const std::string& workload) const
{
    static const std::string kOk = "ok";
    auto it = status_.find(workload);
    return it == status_.end() ? kOk : it->second;
}

void
FigureData::setSamplingError(const std::string& workload,
                             double rel_error)
{
    fatal_if(series_.find(workload) == series_.end(),
             "%s: no series for workload '%s'", figureId_.c_str(),
             workload.c_str());
    samplingErr_[workload] = rel_error;
}

double
FigureData::samplingError(const std::string& workload) const
{
    auto it = samplingErr_.find(workload);
    return it == samplingErr_.end() ? -1.0 : it->second;
}

const std::vector<double>&
FigureData::series(const std::string& workload) const
{
    auto it = series_.find(workload);
    fatal_if(it == series_.end(), "%s: no series for workload '%s'",
             figureId_.c_str(), workload.c_str());
    return it->second;
}

const std::vector<SweepPoint>&
FigureData::points(const std::string& workload) const
{
    auto it = points_.find(workload);
    fatal_if(it == points_.end(), "%s: no points for workload '%s'",
             figureId_.c_str(), workload.c_str());
    return it->second;
}

std::string
FigureData::render(const std::string& value_label) const
{
    TableWriter table(figureId_ + " -- " + value_label + " vs " + xLabel_);
    std::vector<std::string> header;
    header.push_back("Workload");
    for (const auto& tick : xTicks_)
        header.push_back(tick);
    table.setHeader(header);

    for (const auto& name : names_) {
        std::vector<std::string> row;
        row.push_back(name);
        const std::vector<double>& values = series_.at(name);
        if (values.empty()) {
            // A failed cell keeps its row; "-" placeholders make the
            // hole visible instead of faking zeros.
            for (std::size_t i = 0; i < xTicks_.size(); ++i)
                row.push_back("-");
        } else {
            for (double v : values)
                row.push_back(formatFixed(v, 3));
        }
        table.addRow(row);
    }
    return table.renderAscii();
}

void
FigureData::writeCsv(const std::string& path) const
{
    CsvWriter csv(path);
    const bool sampled = !samplingErr_.empty();
    std::vector<std::string> header;
    header.push_back("workload");
    for (const auto& tick : xTicks_)
        header.push_back(tick);
    header.push_back("status");
    if (sampled)
        header.push_back("sampling_err");
    csv.writeRow(header);
    for (const auto& name : names_) {
        std::vector<std::string> row;
        row.push_back(name);
        const std::vector<double>& values = series_.at(name);
        for (double v : values) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.10g", v);
            row.emplace_back(buf);
        }
        // A failed series is empty: pad so every row has a field per
        // tick and the status lands in the status column.
        for (std::size_t i = values.size(); i < xTicks_.size(); ++i)
            row.emplace_back("");
        row.push_back(status(name));
        if (sampled) {
            const double err = samplingError(name);
            if (err < 0.0) {
                row.emplace_back("");
            } else {
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%.10g", err);
                row.emplace_back(buf);
            }
        }
        csv.writeRow(row);
    }
}

} // namespace cosim
