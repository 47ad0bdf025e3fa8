/**
 * @file
 * RSEARCH: RNA secondary-structure homology search with a CYK parser
 * over a stochastic context-free grammar (Section 2.2).
 *
 * The grammar is the classic Nussinov-style folding SCFG
 * (S -> a S a' | a S | S a | S S | e) evaluated with two banded dynamic
 * programming matrices per thread -- V (best score with (i, j) paired)
 * and W (best score of the subsequence), the structure of Zuker-style
 * folding codes. Each thread scans its share of windows of the shared
 * nucleotide database; the planted hairpins give verify() a ground
 * truth.
 *
 * Memory structure: the DP matrices are private (~0.5 MB per thread at
 * scale 1, the paper's per-thread working set), the database is shared
 * and effectively streamed, so the aggregate working set scales with
 * the thread count (4 / 8 / 16 MB at 8 / 16 / 32 cores).
 */

#ifndef COSIM_WORKLOADS_RSEARCH_HH
#define COSIM_WORKLOADS_RSEARCH_HH

#include <cstdint>
#include <vector>

#include "softsdv/guest.hh"
#include "workloads/sim_array.hh"

namespace cosim {

/** Scaled input description. */
struct RsearchParams
{
    std::size_t dbLength = 8 * 1024 * 1024; ///< shared database (bases)
    std::size_t window = 256;   ///< bases per scanned window
    std::size_t band = 128;     ///< max pairing span (banded DP)
    std::size_t maxSplit = 16;  ///< bifurcation split candidates per cell
    std::size_t windowsPerThread = 4;
    std::size_t stemLen = 16;   ///< planted hairpin stem length
    std::size_t hairpinSpacing = 4096;
    double scoreThreshold = 58.0; ///< hit if helix score exceeds this

    static RsearchParams scaled(double scale);
};

/** See file comment. */
class RsearchWorkload : public Workload
{
  public:
    explicit RsearchWorkload(
        const RsearchParams& params = RsearchParams::scaled(1.0));

    std::string name() const override { return "RSEARCH"; }
    std::string description() const override
    {
        return "SCFG / CYK RNA homology search over a nucleotide "
               "database (banded folding DP)";
    }

    void setUp(const WorkloadConfig& cfg, SimAllocator& alloc) override;
    std::unique_ptr<ThreadTask> createThread(unsigned tid) override;
    bool verify() override;

    const RsearchParams& params() const { return params_; }

    /**
     * Windows whose fold score crossed the threshold (post-run).
     * Derived from the per-window scores on demand, so the list is in
     * window order whatever order the tasks scanned them in.
     */
    std::vector<std::size_t> hits() const;

    /** Total windows scanned per run (fixed at the SCMP work size). */
    std::size_t totalWindows() const;

    /** Score of scanned window @p w, or -1 if it was not scanned. */
    double windowScore(std::size_t w) const { return windowScores_.at(w); }

    /**
     * Host-side reference: banded Nussinov fold score of db[start,
     * start+len). Used by verify() and the unit tests.
     */
    double referenceFoldScore(std::size_t start, std::size_t len) const;

    /** Database offset of window @p w. */
    std::size_t windowStart(std::size_t w) const;

  private:
    friend class RsearchTask;

    /** Record a finished window's score (called by the tasks). */
    void recordScore(std::size_t window, double score);

    RsearchParams params_;
    unsigned nThreads_ = 1;

    SimArray<std::uint8_t> db_;   ///< shared nucleotide database
    std::vector<std::size_t> planted_;

    /** Private DP state, allocated per thread at setUp. */
    struct ThreadBuffers
    {
        SimArray<float> v; ///< V matrix, band x window
        SimArray<float> w; ///< W matrix, band x window
        SimArray<float> h; ///< helix matrix, band x window
        SimArray<std::uint8_t> seq; ///< private copy of the window
    };
    std::vector<ThreadBuffers> buffers_;

    std::vector<double> windowScores_;
};

} // namespace cosim

#endif // COSIM_WORKLOADS_RSEARCH_HH
