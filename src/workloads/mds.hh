/**
 * @file
 * MDS: multi-document summarization (Section 2.5).
 *
 * Graph-based sentence ranking (power iteration over a row-stochastic
 * sentence-similarity matrix, LexRank-style) followed by Maximum
 * Marginal Relevance selection of the summary. The similarity matrix is
 * stored compressed (CSR with packed (column, weight) pairs), ~300 MB at
 * scale 1 -- the paper's "frequently referenced ... sparse matrix of
 * 300MB" that makes MDS insensitive to every simulated cache size, while
 * its constant-stride streaming makes it one of the biggest winners from
 * larger cache lines.
 *
 * Threads partition matrix rows and share everything; cache behaviour is
 * insensitive to the thread count.
 */

#ifndef COSIM_WORKLOADS_MDS_HH
#define COSIM_WORKLOADS_MDS_HH

#include <cstdint>
#include <vector>

#include "base/random.hh"
#include "softsdv/guest.hh"
#include "workloads/sim_array.hh"
#include "workloads/thread_sync.hh"

namespace cosim {

/** Scaled input description. */
struct MdsParams
{
    std::size_t nSentences = 2048;
    std::size_t nnzPerRow = 18432;  ///< ~302 MB of packed CSR pairs
    unsigned powerIters = 2;
    std::size_t summaryLength = 8;  ///< sentences selected by MMR
    double damping = 0.85;
    double mmrLambda = 0.7;
    std::size_t rowsPerStep = 2;

    static MdsParams scaled(double scale);

    std::uint64_t matrixBytes() const
    {
        return static_cast<std::uint64_t>(nSentences) * nnzPerRow * 8;
    }
};

/** See file comment. */
class MdsWorkload : public Workload
{
  public:
    explicit MdsWorkload(const MdsParams& params = MdsParams::scaled(1.0));

    std::string name() const override { return "MDS"; }
    std::string description() const override
    {
        return "multi-document summarization: LexRank power iteration "
               "over a compressed similarity matrix + MMR selection";
    }

    void setUp(const WorkloadConfig& cfg, SimAllocator& alloc) override;
    std::unique_ptr<ThreadTask> createThread(unsigned tid) override;
    bool verify() override;

    const MdsParams& params() const { return params_; }

    /** The selected summary (post-run), in selection order. */
    const std::vector<std::uint32_t>& summary() const { return summary_; }

    /** Final rank vector (post-run). */
    const std::vector<float> rankVector() const;

    /** Host-side reference power iteration (verify and tests). */
    std::vector<float> referenceRank() const;

    /**
     * The packed CSR sentence-similarity matrix: @p n_rows sentences,
     * @p nnz_per_row similar sentences each (band-limited columns,
     * ascending from a per-row rotation), row-normalized weights drawn
     * from @p rng. Row r's entries start at r x @p nnz_per_row.
     */
    static std::vector<std::uint64_t>
    similarityMatrix(std::size_t n_rows, std::size_t nnz_per_row, Rng& rng);

    /** A packed CSR entry: column in the low 32 bits, weight above. */
    static std::uint64_t
    packEntry(std::uint32_t col, float w)
    {
        std::uint32_t wb;
        static_assert(sizeof(wb) == sizeof(w), "float packs into u32");
        __builtin_memcpy(&wb, &w, 4);
        return static_cast<std::uint64_t>(wb) << 32 | col;
    }

    static std::uint32_t entryCol(std::uint64_t e)
    {
        return static_cast<std::uint32_t>(e);
    }

    static float
    entryWeight(std::uint64_t e)
    {
        std::uint32_t wb = static_cast<std::uint32_t>(e >> 32);
        float w;
        __builtin_memcpy(&w, &wb, 4);
        return w;
    }

  private:
    friend class MdsTask;

    void advancePhase();

    MdsParams params_;
    unsigned nThreads_ = 1;

    SimArray<std::uint64_t> entries_;   ///< packed CSR pairs (shared)
    SimArray<std::uint32_t> rowPtr_;
    SimArray<float> rank_;              ///< current rank vector
    SimArray<float> rankNext_;
    SimArray<float> queryAffinity_;     ///< per-sentence query relevance

    enum class Phase { Power, Mmr, Done };
    Phase phase_ = Phase::Power;
    unsigned iter_ = 0;
    std::uint64_t phaseGen_ = 0;
    PhaseBarrier barrier_;

    std::vector<std::uint32_t> summary_;
};

} // namespace cosim

#endif // COSIM_WORKLOADS_MDS_HH
