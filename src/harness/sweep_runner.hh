/**
 * @file
 * Runs the paper's sweep experiments. One workload execution per
 * (workload, CMP scale) with every cache configuration of the sweep
 * attached as a passive Dragonhead is the paper's rig (--cells=combined,
 * the default); --cells=exec, replay and sampled decompose the same
 * sweep into other cells (harness/sweep_cell.hh has the table). Replay
 * is combined over a capture: one broadcast replay per workload. Every
 * mode runs through the same pieces:
 *
 *  - harness/sweep_cell: the cell plan, the one cell body, and the rig
 *    lifetime rule;
 *  - harness/sweep_journal: the write-ahead journal and the cell
 *    artifacts --resume reads;
 *  - this file: the scheduler (one chain of cells per workload
 *    across --jobs threads, every cell in this process, run once) and
 *    the figure assembly (CSV rows, run.json, --stats, --digest,
 *    --plan-out).
 *
 * Orthogonally, --capture records each workload's bus stream to disk,
 * --replay feeds recorded streams back instead of executing the guest,
 * and --digest writes the per-workload stream fingerprints that CI
 * gates against tests/golden/.
 *
 * Every cell keeps its rig's statistics (named "cell/<label>/…") and
 * its host phases in its own output, so parallel cells never share a
 * collector and no rig has to outlive its cell; the sweep sums its kept
 * rows into the --stats dump and run.json.
 */

#ifndef COSIM_HARNESS_SWEEP_RUNNER_HH
#define COSIM_HARNESS_SWEEP_RUNNER_HH

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/results.hh"
#include "harness/report.hh"

namespace cosim {

/** See file comment. */
class SweepRunner
{
  public:
    explicit SweepRunner(const BenchOptions& opts) : opts_(opts) {}

    /**
     * Figures 4-6: LLC misses per kilo-instruction vs cache size
     * (4-256 MB, 64 B lines) on the given platform.
     */
    FigureData runCacheSizeFigure(const std::string& figure_id,
                                  const PlatformParams& platform);

    /**
     * Figure 7: LLC misses per kilo-instruction vs line size
     * (64 B-4 KB) with a 32 MB LLC on the given platform.
     */
    FigureData runLineSizeFigure(const std::string& figure_id,
                                 const PlatformParams& platform);

  private:
    FigureData runFigure(const std::string& figure_id,
                         const PlatformParams& platform,
                         const std::vector<DragonheadParams>& emulators,
                         const std::vector<std::string>& ticks);

    BenchOptions opts_;
};

} // namespace cosim

#endif // COSIM_HARNESS_SWEEP_RUNNER_HH
