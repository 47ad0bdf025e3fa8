/**
 * @file
 * Result records shared by the sweep harness and the benches.
 */

#ifndef COSIM_CORE_RESULTS_HH
#define COSIM_CORE_RESULTS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/types.hh"

namespace cosim {

/** One measured point of an LLC sweep. */
struct SweepPoint
{
    std::string workload;
    unsigned nCores = 0;
    std::uint64_t llcSize = 0;
    std::uint32_t lineSize = 0;

    std::uint64_t llcAccesses = 0;
    std::uint64_t llcMisses = 0;
    InstCount insts = 0;

    double mpki() const
    {
        return insts == 0 ? 0.0
                          : 1000.0 * static_cast<double>(llcMisses) /
                                static_cast<double>(insts);
    }
};

/**
 * A figure's worth of sweep points: one named series per workload over a
 * common x axis (cache sizes or line sizes).
 */
class FigureData
{
  public:
    FigureData(std::string figure_id, std::string x_label,
               std::vector<std::string> x_ticks);

    /** Append a workload's series (must match the x-axis length). */
    void addSeries(const std::string& workload,
                   const std::vector<double>& values,
                   std::vector<SweepPoint> points = {});

    /**
     * Record a workload whose sweep cell failed (see --keep-going):
     * it keeps its figure row, rendered with "-" placeholders and an
     * empty CSV row, tagged with status "failed".
     */
    void addFailedSeries(const std::string& workload);

    const std::string& figureId() const { return figureId_; }
    const std::vector<std::string>& xTicks() const { return xTicks_; }
    const std::vector<std::string>& seriesNames() const { return names_; }
    const std::vector<double>& series(const std::string& workload) const;
    const std::vector<SweepPoint>& points(const std::string& workload)
        const;

    /** Cell outcome for @p workload: "ok" or "failed". */
    const std::string& status(const std::string& workload) const;

    /**
     * Record a sampled run's relative MPKI error vs its full-run
     * reference for @p workload. Once any series carries one, the CSV
     * gains a trailing "sampling_err" column (empty for series
     * without).
     */
    void setSamplingError(const std::string& workload, double rel_error);

    /** The recorded sampling error; negative when none was set. */
    double samplingError(const std::string& workload) const;

    /** Paper-style printout: one row per workload, one column per tick. */
    std::string render(const std::string& value_label) const;

    /**
     * Persist to CSV: one row per workload, plus a trailing "status"
     * column so downstream tooling can tell a failed cell's empty row
     * from a real zero.
     */
    void writeCsv(const std::string& path) const;

  private:
    std::string figureId_;
    std::string xLabel_;
    std::vector<std::string> xTicks_;
    std::vector<std::string> names_;
    std::map<std::string, std::vector<double>> series_;
    std::map<std::string, std::vector<SweepPoint>> points_;
    std::map<std::string, std::string> status_;
    std::map<std::string, double> samplingErr_;
};

} // namespace cosim

#endif // COSIM_CORE_RESULTS_HH
